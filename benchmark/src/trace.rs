//! The traced run's instruments: a kernel profile hook that charges wall
//! time to the kernel's own ops, and the grouping of virtual CPU by layer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

use simnet::{Kernel, KernelProfile, ProfileMark};

/// Count and wall time of one class of kernel op.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpTotal {
    /// Ops completed.
    pub count: u64,
    /// Wall time between their begin and end marks.
    pub wall: Duration,
}

/// Wall accounting of the kernel's profiled ops, split the way the kernel
/// names them: `sched.handoff` (the kernel waiting while a process thread
/// runs), `event.*` dispatch and `sys.*` syscall handling. Marks never
/// nest, so one pending begin suffices.
#[derive(Debug, Default)]
pub struct KernelOps {
    pending: Option<(&'static str, Instant)>,
    /// `sched.handoff` marks.
    pub handoff: OpTotal,
    /// `event.*` marks.
    pub event: OpTotal,
    /// `sys.*` marks.
    pub syscall: OpTotal,
}

impl KernelOps {
    /// Install a fresh accumulator as `kernel`'s profile hook.
    pub fn install(kernel: &mut Kernel) -> Rc<RefCell<KernelOps>> {
        let ops = Rc::new(RefCell::new(KernelOps::default()));
        let hook = ops.clone();
        kernel.set_profile_hook(move |mark| hook.borrow_mut().on_mark(mark));
        ops
    }

    fn on_mark(&mut self, mark: ProfileMark) {
        match mark {
            ProfileMark::OpBegin(op) => self.pending = Some((op, Instant::now())),
            ProfileMark::OpEnd(op) => {
                let Some((begun, at)) = self.pending.take() else {
                    return;
                };
                if begun != op {
                    return;
                }
                let total = if op == "sched.handoff" {
                    &mut self.handoff
                } else if op.starts_with("event.") {
                    &mut self.event
                } else {
                    &mut self.syscall
                };
                total.count += 1;
                total.wall += at.elapsed();
            }
        }
    }

    /// Forget everything counted so far (the phase boundary).
    pub fn reset(&mut self) {
        *self = KernelOps::default();
    }

    /// Wall time spent inside any profiled op.
    pub fn marked(&self) -> Duration {
        self.handoff.wall + self.event.wall + self.syscall.wall
    }
}

/// The layer a simulated process belongs to, by the name it was spawned
/// with. `load` is the background CPU spinners and `bench` the
/// benchmark's own echo processes; neither is a runtime layer, but both
/// take CPU the kernel counts.
pub fn layer_of(process: &str) -> Option<&'static str> {
    const PREFIXES: [(&str, &str); 10] = [
        ("naming", "naming"),
        ("winner-", "winner"),
        ("opt-worker-", "optim"),
        ("manager", "optim"),
        ("factory-", "ft"),
        ("checkpoint-service", "store"),
        ("store-", "store"),
        ("monitor-channel", "monitor"),
        ("bgload-", "load"),
        ("echo-", "bench"),
    ];
    PREFIXES
        .iter()
        .find(|(prefix, _)| process.starts_with(prefix))
        .map(|&(_, layer)| layer)
}

/// Virtual CPU per layer from [`Kernel::profile`], in nanoseconds.
///
/// # Errors
/// The sum check: a process no layer claims, or layer totals that do not
/// add up exactly to the kernel's total over all processes.
pub fn cpu_by_layer(profile: &KernelProfile) -> Result<BTreeMap<&'static str, u64>, String> {
    let mut by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for proc in &profile.cpu_by_proc {
        let layer = layer_of(&proc.name)
            .ok_or_else(|| format!("process {:?} belongs to no layer", proc.name))?;
        *by_layer.entry(layer).or_insert(0) += proc.cpu_ns;
    }
    let total: u64 = profile.cpu_by_proc.iter().map(|p| p.cpu_ns).sum();
    let grouped: u64 = by_layer.values().sum();
    if grouped != total {
        return Err(format!(
            "virtual CPU by layer sums to {grouped} ns, the kernel's total is {total} ns"
        ));
    }
    Ok(by_layer)
}

/// Virtual CPU of the processes whose names start with `prefix`, in ns.
pub fn cpu_of(profile: &KernelProfile, prefix: &str) -> u64 {
    profile
        .cpu_by_proc
        .iter()
        .filter(|p| p.name.starts_with(prefix))
        .map(|p| p.cpu_ns)
        .sum()
}
