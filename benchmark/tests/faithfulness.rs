//! The cluster workloads run the program's own scenario: composing the
//! run from public calls (to reach the kernel between boot and run) must
//! reproduce what `run_experiment` returns for the same spec and seed.

use corba_runtime::{run_experiment, ExperimentSpec};
use ldft_repo_bench::cluster::{fig3_spec, ft_spec, run_composed};

fn assert_reproduces(spec: &ExperimentSpec) {
    let reference = run_experiment(spec)
        .expect("run_experiment succeeds")
        .report;
    let composed = run_composed(spec).expect("composed run succeeds").report;
    assert_eq!(composed.elapsed, reference.elapsed, "virtual runtime");
    assert_eq!(
        composed.worker_calls, reference.worker_calls,
        "worker calls"
    );
    assert_eq!(
        composed.best_value.to_bits(),
        reference.best_value.to_bits(),
        "best value {} vs {}",
        composed.best_value,
        reference.best_value
    );
    assert_eq!(composed.recoveries, reference.recoveries, "recoveries");
}

#[test]
fn fig3_winner_reproduces_run_experiment() {
    assert_reproduces(&fig3_spec(1));
}

#[test]
fn ft_recovery_reproduces_run_experiment() {
    assert_reproduces(&ft_spec(1));
}
