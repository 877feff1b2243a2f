//! Same seed, same virtual results: the virtual runtime and every virtual
//! per-layer metric are byte-identical across runs of one seed, tracing
//! changes neither, and every check also passes on a second seed.

use ldft_repo_bench::{is_virtual, Workload, PER_LAYER, WORKLOADS};

#[test]
fn virtual_metrics_repeat_exactly_and_checks_pass_on_a_second_seed() {
    for name in WORKLOADS {
        let workload = Workload::new(name, 3).expect("known workload");
        let a = workload.round(true).expect("first traced round passes");
        let b = workload.round(true).expect("second traced round passes");
        let plain = workload.round(false).expect("untraced round passes");
        assert_eq!(
            a.virtual_runtime_s.to_bits(),
            b.virtual_runtime_s.to_bits(),
            "{name}: virtual runtime"
        );
        assert_eq!(
            a.virtual_runtime_s.to_bits(),
            plain.virtual_runtime_s.to_bits(),
            "{name}: tracing moved the virtual runtime"
        );
        for (metric, unit) in PER_LAYER {
            if is_virtual(metric, unit) {
                let (x, y) = (a.layers.get(metric), b.layers.get(metric));
                assert_eq!(
                    x.map(|v| v.to_bits()),
                    y.map(|v| v.to_bits()),
                    "{name}: {metric} {x:?} vs {y:?}"
                );
            }
        }
        let other = Workload::new(name, 4).expect("known workload");
        other.round(false).expect("checks pass on a second seed");
    }
}
