//! A known extra cost added to the benchmark-owned echo servant must move
//! the end-to-end metrics the way the model predicts: a real-CPU spin per
//! dispatch adds about the spin to `cpu_us_per_call` and to the wall time
//! per call (so `calls_per_s` falls accordingly), and a virtual compute
//! per dispatch adds exactly that compute to the virtual runtime of every
//! call on the critical path.

use std::time::Duration;

use ldft_repo_bench::echo::{run_round, EchoConfig, EchoInputs};
use ldft_repo_bench::{median, Round};

const SPIN: Duration = Duration::from_micros(500);
const COMPUTE: f64 = 1e-3;

/// Virtual cost of one `ctx.compute(COMPUTE)` on an idle speed-1.0 host:
/// the kernel's CPU model schedules a job's completion at the next whole
/// nanosecond plus one, so the work never ends a hair early.
fn compute_ns() -> f64 {
    (COMPUTE * 1e9).ceil() + 1.0
}

fn rounds(cfg: &EchoConfig, inputs: &EchoInputs, n: usize) -> Vec<Round> {
    (0..n)
        .map(|_| run_round(cfg, inputs, false).expect("echo round passes its checks"))
        .collect()
}

fn med(rounds: &[Round], f: fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(f).collect::<Vec<_>>())
}

#[test]
fn servant_spin_moves_cpu_and_throughput_by_the_spin() {
    let base_cfg = EchoConfig {
        calls_per_client: 200,
        ..EchoConfig::default()
    };
    let spin_cfg = EchoConfig {
        spin: SPIN,
        ..base_cfg.clone()
    };
    let inputs = EchoInputs::new(&base_cfg, 7);
    let base = rounds(&base_cfg, &inputs, 7);
    let spun = rounds(&spin_cfg, &inputs, 7);
    let spin_us = SPIN.as_secs_f64() * 1e6;

    let cpu_rise = med(&spun, Round::cpu_us_per_call) - med(&base, Round::cpu_us_per_call);
    assert!(
        (0.8 * spin_us..1.3 * spin_us).contains(&cpu_rise),
        "cpu_us_per_call rose by {cpu_rise:.1} us for a {spin_us} us spin"
    );
    let wall_per_call = |r: &Round| 1e6 / r.calls_per_s();
    let wall_rise = med(&spun, wall_per_call) - med(&base, wall_per_call);
    assert!(
        (0.8 * spin_us..1.3 * spin_us).contains(&wall_rise),
        "wall time per call rose by {wall_rise:.1} us for a {spin_us} us spin"
    );
    // The spin is real time only: the simulation does not see it.
    assert_eq!(
        base[0].virtual_runtime_s.to_bits(),
        spun[0].virtual_runtime_s.to_bits()
    );
}

#[test]
fn servant_compute_adds_exactly_its_virtual_cost() {
    // One client: every dispatch is on the critical path, so the virtual
    // runtime rises by exactly calls x compute.
    let one = EchoConfig {
        clients: 1,
        calls_per_client: 300,
        ..EchoConfig::default()
    };
    let inputs = EchoInputs::new(&one, 11);
    let base = rounds(&one, &inputs, 1);
    let loaded = rounds(
        &EchoConfig {
            compute: COMPUTE,
            ..one.clone()
        },
        &inputs,
        1,
    );
    let rise_ns = (loaded[0].virtual_runtime_s - base[0].virtual_runtime_s) * 1e9;
    let expected_ns = one.calls_per_client as f64 * compute_ns();
    assert!(
        (rise_ns - expected_ns).abs() < 1.0,
        "virtual runtime rose by {rise_ns} ns, expected {expected_ns} ns"
    );

    // Two clients share the servant: each client's own calls bear the
    // cost, and no more than every call's cost can queue up in front.
    let two = EchoConfig {
        calls_per_client: 300,
        ..EchoConfig::default()
    };
    let inputs = EchoInputs::new(&two, 11);
    let base = rounds(&two, &inputs, 1);
    let loaded = rounds(
        &EchoConfig {
            compute: COMPUTE,
            ..two.clone()
        },
        &inputs,
        1,
    );
    let rise_ns = (loaded[0].virtual_runtime_s - base[0].virtual_runtime_s) * 1e9;
    let per_client = two.calls_per_client as f64 * compute_ns();
    let all = two.clients as f64 * per_client;
    assert!(
        (per_client..=all).contains(&rise_ns),
        "virtual runtime rose by {rise_ns} ns, outside [{per_client}, {all}] ns"
    );
}
