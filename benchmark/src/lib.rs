//! The repository benchmark: three closed-loop workloads that drive the
//! runtime through its public API, end-to-end metrics from untraced
//! rounds, and a per-layer split from traced ones. See README.md.

pub mod cluster;
pub mod echo;
pub mod sys;
mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

use simnet::KernelProfile;

use crate::trace::KernelOps;

/// Per-layer metrics of one traced round, by `layer.field` name.
pub type Layers = BTreeMap<&'static str, f64>;

/// One round: a fresh simulation booted (set-up) and driven through a
/// fixed amount of work (the measured phase).
#[derive(Clone, Debug)]
pub struct Round {
    /// Wall time from the round's start to its first measured call.
    pub setup: Duration,
    /// Wall time of the measured phase.
    pub measured: Duration,
    /// Process CPU time (all threads) of the measured phase.
    pub cpu: Duration,
    /// Application calls completed in the measured phase.
    pub calls: u64,
    /// Simulated duration of the measured phase, in seconds.
    pub virtual_runtime_s: f64,
    /// Per-layer metrics; empty unless the round was traced.
    pub layers: Layers,
}

impl Round {
    /// Calls completed per wall second of the measured phase.
    pub fn calls_per_s(&self) -> f64 {
        self.calls as f64 / self.measured.as_secs_f64()
    }

    /// Process CPU per completed call, in microseconds.
    pub fn cpu_us_per_call(&self) -> f64 {
        self.cpu.as_secs_f64() * 1e6 / self.calls as f64
    }
}

/// Every per-layer metric the traced run prints, with its unit. A metric
/// a workload does not exercise reads 0 there (README.md lists which
/// apply where).
pub const PER_LAYER: [(&str, &str); 54] = [
    ("simnet.handoffs_per_call", "count"),
    ("simnet.handoff_us_per_call", "us"),
    ("simnet.events_per_call", "count"),
    ("simnet.event_us_per_call", "us"),
    ("simnet.syscalls_per_call", "count"),
    ("simnet.syscall_us_per_call", "us"),
    ("simnet.unmarked_us_per_call", "us"),
    ("simnet.msgs_per_call", "count"),
    ("simnet.event_queue_peak", "count"),
    ("simnet.mailbox_peak", "count"),
    ("simnet.runnable_peak", "count"),
    ("simnet.os_threads", "count"),
    ("core.build_ms", "ms"),
    ("core.boot_ms", "ms"),
    ("cdr.encode_us_per_call", "us"),
    ("cdr.decode_us_per_call", "us"),
    ("cdr.payload_bytes_per_call", "B"),
    ("cdr.checkpoint_bytes_per_call", "B"),
    ("orb.invoke_us_per_call", "us"),
    ("orb.dispatch_us_per_call", "us"),
    ("orb.requests_per_call", "count"),
    ("orb.invoke_virtual_ms_p50", "ms"),
    ("orb.invoke_virtual_ms_p99", "ms"),
    ("orb.comm_failures", "count"),
    ("orb.timeouts", "count"),
    ("naming.resolves", "count"),
    ("naming.resolve_virtual_ms_p50", "ms"),
    ("naming.cpu_virtual_ms", "ms"),
    ("winner.reports", "count"),
    ("winner.selections", "count"),
    ("winner.cpu_virtual_ms", "ms"),
    ("winner.loaded_placements", "count"),
    ("optim.solve_virtual_ms_per_call", "ms"),
    ("optim.worker_cpu_virtual_s", "s"),
    ("optim.manager_evals", "count"),
    ("optim.solve_wall_ms_per_call", "ms"),
    ("ft.checkpoints_per_call", "count"),
    ("ft.checkpoint_rpcs_per_call", "count"),
    ("ft.checkpoint_virtual_ms_per_call", "ms"),
    ("ft.recoveries", "count"),
    ("ft.restores", "count"),
    ("ft.factory_creates", "count"),
    ("ft.recovery_virtual_ms", "ms"),
    ("store.writes_per_call", "count"),
    ("store.repl_acks_per_write", "count"),
    ("store.replicate_virtual_ms_per_call", "ms"),
    ("store.cpu_virtual_ms", "ms"),
    ("store.retargets", "count"),
    ("monitor.events_per_call", "count"),
    ("monitor.channel_cpu_virtual_ms", "ms"),
    ("monitor.violations", "count"),
    ("monitor.late_events", "count"),
    ("obs.spans_per_call", "count"),
    ("obs.trace_overhead_us_per_call", "us"),
];

/// Whether a per-layer metric is a pure function of the seed: counts and
/// virtual times are, wall times (a time unit without `virtual` in the
/// name) are not.
pub fn is_virtual(name: &str, unit: &str) -> bool {
    !matches!(unit, "us" | "ms" | "s") || name.contains("virtual")
}

/// The kernel's share of a traced round: op counts and wall split from
/// the profile hook, message count and queue peaks.
pub(crate) fn simnet_layers(
    layers: &mut Layers,
    ops: &KernelOps,
    kernel_wall: Duration,
    msgs: u64,
    profile: &KernelProfile,
    spawned: u64,
    calls: u64,
) {
    let calls = calls as f64;
    let us = |d: Duration| d.as_secs_f64() * 1e6 / calls;
    layers.insert("simnet.handoffs_per_call", ops.handoff.count as f64 / calls);
    layers.insert("simnet.handoff_us_per_call", us(ops.handoff.wall));
    layers.insert("simnet.events_per_call", ops.event.count as f64 / calls);
    layers.insert("simnet.event_us_per_call", us(ops.event.wall));
    layers.insert("simnet.syscalls_per_call", ops.syscall.count as f64 / calls);
    layers.insert("simnet.syscall_us_per_call", us(ops.syscall.wall));
    layers.insert(
        "simnet.unmarked_us_per_call",
        us(kernel_wall.saturating_sub(ops.marked())),
    );
    layers.insert("simnet.msgs_per_call", msgs as f64 / calls);
    layers.insert("simnet.event_queue_peak", profile.event_queue_peak as f64);
    layers.insert("simnet.mailbox_peak", profile.mailbox_peak as f64);
    layers.insert("simnet.runnable_peak", profile.runnable_peak as f64);
    layers.insert("simnet.os_threads", spawned as f64);
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(sample: &[f64]) -> f64 {
    let mut v = sample.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A workload with its seed-generated inputs, ready to run rounds.
pub enum Workload {
    /// Two clients echoing small payloads through one servant.
    EchoRpc(echo::EchoConfig, echo::EchoInputs),
    /// Figure 3's loaded-cluster cell with Winner naming.
    Fig3Winner(corba_runtime::ExperimentSpec),
    /// The FT cell with a mid-run host crash and restart.
    FtRecovery(corba_runtime::ExperimentSpec),
}

/// The workload names, as the command line takes them.
pub const WORKLOADS: [&str; 3] = ["echo_rpc", "fig3_winner", "ft_recovery"];

impl Workload {
    /// Prepare `name`'s inputs from `seed`; `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Workload> {
        match name {
            "echo_rpc" => {
                let cfg = echo::EchoConfig::default();
                let inputs = echo::EchoInputs::new(&cfg, seed);
                Some(Workload::EchoRpc(cfg, inputs))
            }
            "fig3_winner" => Some(Workload::Fig3Winner(cluster::fig3_spec(seed))),
            "ft_recovery" => Some(Workload::FtRecovery(cluster::ft_spec(seed))),
            _ => None,
        }
    }

    /// Boot a round up to its first measured call and tear it down;
    /// returns the wall time the boot took.
    pub fn setup_only(&self) -> Duration {
        match self {
            Workload::EchoRpc(cfg, inputs) => echo::setup_only(cfg, inputs),
            Workload::Fig3Winner(spec) | Workload::FtRecovery(spec) => cluster::setup_only(spec),
        }
    }

    /// Run one round, with the profile hook and timers on when `traced`.
    ///
    /// # Errors
    /// Any failed correctness check or sum check.
    pub fn round(&self, traced: bool) -> Result<Round, String> {
        match self {
            Workload::EchoRpc(cfg, inputs) => echo::run_round(cfg, inputs, traced),
            Workload::Fig3Winner(spec) | Workload::FtRecovery(spec) => {
                cluster::run_round(spec, traced)
            }
        }
    }
}
