//! `fig3_winner` and `ft_recovery`: the paper's 100-dimensional decomposed
//! Rosenbrock on a booted cluster, composed here from the same public
//! calls `corba_runtime::run_experiment` makes, so the benchmark can reach
//! the kernel between boot and run and install its profile hook.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use corba_runtime::{
    publish_kernel_profile, Cluster, ClusterConfig, CrashPlan, ExperimentSpec, NamingMode,
};
use obs::{Metric, Obs, SpanRecord};
use optim::{
    run_manager, ComplexBox, ComplexBoxConfig, DecomposedRosenbrock, FtSettings, ManagerConfig,
    Problem, Rosenbrock, RunReport, SolveResult, SolveSpec,
};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use simnet::{HostId, Pid, Shared, SimDuration, SimTime};

use crate::trace::{cpu_by_layer, cpu_of, KernelOps};
use crate::{simnet_layers, sys, Layers, Round};

/// Figure 3's cell: 100 dimensions, 7 workers, Winner naming, background
/// load on 2 of the 10 workstations, 20,000 iterations per worker call.
pub fn fig3_spec(seed: u64) -> ExperimentSpec {
    ExperimentSpec::dim100(NamingMode::Winner)
        .loaded(2)
        .seed(seed)
}

/// The same problem behind FT proxies that checkpoint after every call
/// (per-value mode) into a 3-replica quorum store, with the doctor
/// attached. One worker host crashes 20 virtual seconds into the run and
/// restarts 2 s later. Workers sit on hosts 1–7 only, so the crashed
/// host 1 carries a worker whatever the seed; the store replicas take
/// hosts 8–10.
pub fn ft_spec(seed: u64) -> ExperimentSpec {
    let mut spec = ExperimentSpec::dim100(NamingMode::Winner).seed(seed);
    spec.available_hosts = spec.workers;
    spec.ft = Some(FtSettings::default());
    spec.store_replicas = 3;
    spec.monitor = Some(monitor::MonitorConfig::default());
    // Crash detection is timeout based; 2 s is ten times the longest
    // worker call, so only the crash trips it.
    spec.request_timeout = SimDuration::from_secs(2);
    spec.crash = Some(CrashPlan {
        after: SimDuration::from_secs(20),
        now_host_index: 0,
        restart_after: Some(SimDuration::from_secs(2)),
    });
    spec
}

/// What a composed run yields besides the round's timings.
pub struct Outcome {
    /// The manager's report.
    pub report: RunReport,
    /// Hosts that carried background load.
    pub loaded: Vec<u32>,
    /// Virtual instant the manager started.
    pub started_at: SimTime,
    /// The cluster's observability sink.
    pub obs: Obs,
    /// The finalized doctor, when the spec attached one.
    pub monitor: Option<monitor::MonitorHandle>,
}

/// A cluster booted up to the instant its manager starts.
struct Booted {
    cluster: Cluster,
    ops: Option<Rc<RefCell<KernelOps>>>,
    manager: Pid,
    report: Shared<Option<Result<RunReport, String>>>,
    loaded: Vec<HostId>,
    started_at: SimTime,
    build: Duration,
    boot: Duration,
    setup: Duration,
}

/// Boot `spec` exactly as `run_experiment` does: build the cluster, place
/// the background load, schedule the crash and the manager, and run every
/// event before the manager's start (service boot and Winner warm-up).
/// Stopping the clock there leaves the event order untouched.
fn boot(spec: &ExperimentSpec, traced: bool) -> Booted {
    assert!(
        spec.store_crash.is_none(),
        "store crashes are not composed here"
    );
    let started = Instant::now();
    let mut cluster = Cluster::build(ClusterConfig {
        hosts: spec.now_hosts + 1,
        naming: spec.naming.clone(),
        worker_hosts: (1..=spec.available_hosts).collect(),
        seed: spec.seed,
        policy: spec.policy,
        store_replicas: spec.store_replicas.max(1),
        monitor: spec.monitor.clone(),
        ..ClusterConfig::default()
    });
    let build = started.elapsed();
    let ops = traced.then(|| KernelOps::install(&mut cluster.kernel));

    let mut rng = rand::rngs::SmallRng::seed_from_u64(spec.seed.wrapping_mul(0x9E37_79B9));
    let mut now_hosts: Vec<HostId> = cluster.hosts[1..].to_vec();
    now_hosts.shuffle(&mut rng);
    let loaded: Vec<HostId> = now_hosts[..spec.loaded_hosts].to_vec();
    let load_start = SimTime::ZERO + SimDuration::from_secs_f64(spec.warmup.as_secs_f64() * 0.5);
    for &h in &loaded {
        cluster.add_background_load_at(h, load_start);
    }

    let report: Shared<Option<Result<RunReport, String>>> = Shared::new(None);
    let out = report.clone();
    let mcfg = ManagerConfig {
        n: spec.n,
        workers: spec.workers,
        worker_iters: spec.worker_iters,
        manager_iters: spec.manager_iters,
        seed: spec.seed,
        request_timeout: spec.request_timeout,
        ft: spec.ft.clone(),
        obs: Some(cluster.obs.clone()),
        monitor: cluster.monitor.as_ref().map(|h| h.ior.clone()),
        ..ManagerConfig::new(spec.n, spec.workers, cluster.infra)
    };
    let started_at = SimTime::ZERO + spec.warmup;
    if let Some(crash) = spec.crash {
        let victim = cluster.hosts[crash.now_host_index + 1];
        let crash_at = started_at + crash.after;
        cluster
            .kernel
            .schedule_fault(crash_at, simnet::Fault::CrashHost(victim));
        if let Some(d) = crash.restart_after {
            cluster
                .kernel
                .schedule_fault(crash_at + d, simnet::Fault::RestartHost(victim));
        }
    }
    let manager = cluster.kernel.spawn_at(
        started_at,
        cluster.infra,
        "manager",
        Box::new(move |ctx: &mut simnet::Ctx| match run_manager(ctx, &mcfg) {
            Ok(Ok(report)) => {
                out.put(Ok(report));
            }
            Ok(Err(e)) => {
                out.put(Err(e.to_string()));
            }
            Err(_) => {} // killed: the outcome stays empty
        }),
    );
    let boot_started = Instant::now();
    cluster
        .kernel
        .run_until(SimTime::from_nanos(started_at.as_nanos() - 1));
    Booted {
        cluster,
        ops,
        manager,
        report,
        loaded,
        started_at,
        build,
        boot: boot_started.elapsed(),
        setup: started.elapsed(),
    }
}

/// Wall time to boot `spec` up to its manager's start.
pub fn setup_only(spec: &ExperimentSpec) -> Duration {
    boot(spec, false).setup
}

/// Wall and CPU figures of one composed run.
struct Phases {
    build: Duration,
    boot: Duration,
    setup: Duration,
    measured: Duration,
    cpu: Duration,
}

/// Boot `spec`, then run its manager to the end (the measured phase).
fn compose(
    spec: &ExperimentSpec,
    traced: bool,
    layers: &mut Layers,
) -> Result<(Outcome, Phases), String> {
    let Booted {
        mut cluster,
        ops,
        manager,
        report,
        loaded,
        started_at,
        build,
        boot,
        setup,
    } = boot(spec, traced);
    if let Some(ops) = &ops {
        ops.borrow_mut().reset();
    }
    let msgs_before = cluster.kernel.stats().msgs_delivered;
    let cpu_before = sys::process_cpu();
    let measured_started = Instant::now();
    cluster.kernel.run_until_exit(manager);
    let measured = measured_started.elapsed();
    let cpu = sys::process_cpu() - cpu_before;

    if let Some(handle) = &cluster.monitor {
        handle.finalize(cluster.kernel.now());
    }
    publish_kernel_profile(&cluster.kernel, &cluster.obs);
    let report = match report.take() {
        Some(Ok(report)) => report,
        Some(Err(e)) => return Err(format!("experiment manager failed: {e}")),
        None => return Err("experiment manager was killed before reporting".into()),
    };
    if let Some(ops) = ops {
        let profile = cluster.kernel.profile();
        let by_layer = cpu_by_layer(&profile)?;
        let stats = cluster.kernel.stats();
        simnet_layers(
            layers,
            &ops.borrow(),
            measured,
            stats.msgs_delivered - msgs_before,
            &profile,
            stats.spawned,
            report.worker_calls,
        );
        let layer_ms = |layer| by_layer.get(layer).copied().unwrap_or(0) as f64 / 1e6;
        layers.insert("naming.cpu_virtual_ms", layer_ms("naming"));
        layers.insert("winner.cpu_virtual_ms", layer_ms("winner"));
        layers.insert("store.cpu_virtual_ms", layer_ms("store"));
        layers.insert("monitor.channel_cpu_virtual_ms", layer_ms("monitor"));
        // Recovered workers live in their host's factory process.
        let workers = cpu_of(&profile, "opt-worker-") + cpu_of(&profile, "factory-");
        layers.insert("optim.worker_cpu_virtual_s", workers as f64 / 1e9);
    }
    let outcome = Outcome {
        report,
        loaded: loaded.iter().map(|h| h.0).collect(),
        started_at,
        obs: cluster.obs.clone(),
        monitor: cluster.monitor.clone(),
    };
    let phases = Phases {
        build,
        boot,
        setup,
        measured,
        cpu,
    };
    Ok((outcome, phases))
}

/// Run `spec` through the benchmark's composition, without timers.
///
/// # Errors
/// When the manager fails or is killed.
pub fn run_composed(spec: &ExperimentSpec) -> Result<Outcome, String> {
    compose(spec, false, &mut Layers::new()).map(|(outcome, _)| outcome)
}

/// The decomposition identity, checked apart from the program: the full
/// Rosenbrock function evaluated at the reported best point must equal
/// the reported best value.
fn check_best_point(n: usize, report: &RunReport) -> Result<(), String> {
    if report.best_point.len() != n {
        return Err(format!(
            "best point has {} coordinates, expected {n}",
            report.best_point.len()
        ));
    }
    let value = Rosenbrock::new(n).eval(&report.best_point);
    let rel = (value - report.best_value).abs() / value.abs().max(1e-12);
    if rel.is_nan() || rel > 1e-6 {
        return Err(format!(
            "Rosenbrock({n}) at the best point is {value}, the run reported {}",
            report.best_value
        ));
    }
    Ok(())
}

/// Property checks on a composed run's outputs.
fn check(spec: &ExperimentSpec, o: &Outcome) -> Result<(), String> {
    let r = &o.report;
    check_best_point(spec.n, r)?;
    let expected_calls = r.manager_evals * spec.workers as u64;
    if r.worker_calls != expected_calls || r.worker_calls == 0 {
        return Err(format!(
            "{} worker calls for {} manager evaluations of {} workers",
            r.worker_calls, r.manager_evals, spec.workers
        ));
    }
    let on_loaded = r.placements.iter().filter(|h| o.loaded.contains(h)).count();
    if on_loaded > 0 {
        return Err(format!(
            "{on_loaded} worker(s) placed on loaded hosts {:?} (placements {:?})",
            o.loaded, r.placements
        ));
    }
    if spec.crash.is_some() {
        if r.recoveries == 0 {
            return Err("the host crash caused no recovery".into());
        }
        let handle = o.monitor.as_ref().ok_or("the doctor was not attached")?;
        let violations = handle.violations();
        let late = gauge(&o.obs, "monitor.late_events");
        if violations != 0 || late != 0.0 {
            return Err(format!(
                "doctor reports {violations} invariant violation(s) and {late} late event(s)"
            ));
        }
    }
    Ok(())
}

fn gauge(obs: &Obs, name: &str) -> f64 {
    match obs.metric(name) {
        Some(Metric::Gauge(v)) => v,
        _ => 0.0,
    }
}

fn percentile_ms(obs: &Obs, name: &str, p: u64) -> f64 {
    match obs.metric(name) {
        Some(Metric::Histogram(h)) => h.percentile(p) as f64 / 1e6,
        _ => 0.0,
    }
}

fn span_ms(spans: &[SpanRecord]) -> f64 {
    spans.iter().map(|s| s.end_ns - s.start_ns).sum::<u64>() as f64 / 1e6
}

/// CDR cost of the worker calls' request and reply bodies, and Complex
/// Box cost of one solve, timed on the workload's own sub-problem shapes
/// outside the kernel.
fn off_kernel_layers(spec: &ExperimentSpec, calls: u64, layers: &mut Layers) {
    let decomposition = DecomposedRosenbrock::new(spec.n, spec.workers);
    let bounds = decomposition.manager_bounds();
    let coords: Vec<f64> = bounds
        .lower
        .iter()
        .zip(&bounds.upper)
        .map(|(lo, hi)| (lo + hi) / 2.0)
        .collect();
    let subs: Vec<_> = (0..spec.workers)
        .map(|w| decomposition.subproblem(w, &coords))
        .collect();
    let shapes: Vec<(SolveSpec, SolveResult)> = subs
        .iter()
        .enumerate()
        .map(|(w, sub)| {
            let request = SolveSpec {
                problem_id: w as u32,
                dim: sub.dim as u32,
                left: sub.left,
                right: sub.right,
                iters: spec.worker_iters,
                seed: spec.seed,
                reset: false,
            };
            let reply = SolveResult {
                best_value: 1.0,
                best_point: vec![1.0; sub.dim],
                iterations: spec.worker_iters,
                evals: spec.worker_iters,
            };
            (request, reply)
        })
        .collect();
    let (mut encode, mut decode, mut bytes) = (Duration::ZERO, Duration::ZERO, 0u64);
    for i in 0..calls as usize {
        let (request, reply) = &shapes[i % shapes.len()];
        let t0 = Instant::now();
        let req_bytes = cdr::to_bytes(&(request,));
        let rep_bytes = cdr::to_bytes(reply);
        let t1 = Instant::now();
        let req: Result<(SolveSpec,), _> = cdr::from_bytes(std::hint::black_box(&req_bytes));
        let rep: Result<SolveResult, _> = cdr::from_bytes(std::hint::black_box(&rep_bytes));
        let t2 = Instant::now();
        std::hint::black_box((req.is_ok(), rep.is_ok()));
        encode += t1 - t0;
        decode += t2 - t1;
        bytes += (req_bytes.len() + rep_bytes.len()) as u64;
    }
    let per_call_us = |d: Duration| d.as_secs_f64() * 1e6 / calls as f64;
    layers.insert("cdr.encode_us_per_call", per_call_us(encode));
    layers.insert("cdr.decode_us_per_call", per_call_us(decode));
    layers.insert("cdr.payload_bytes_per_call", bytes as f64 / calls as f64);

    let solve_started = Instant::now();
    for (w, sub) in subs.iter().enumerate() {
        let cfg = ComplexBoxConfig {
            seed: spec.seed ^ (w as u64).wrapping_mul(0x9E37_79B9),
            ..ComplexBoxConfig::default()
        };
        std::hint::black_box(ComplexBox::new(sub, cfg).run(spec.worker_iters));
    }
    layers.insert(
        "optim.solve_wall_ms_per_call",
        solve_started.elapsed().as_secs_f64() * 1e3 / subs.len() as f64,
    );
}

/// Per-layer metrics read from the program's own spans and metrics.
fn obs_layers(spec: &ExperimentSpec, o: &Outcome, layers: &mut Layers) {
    let calls = o.report.worker_calls as f64;
    let r = &o.report;
    let spans = o.obs.spans();
    let measured: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.start_ns >= o.started_at.as_nanos())
        .collect();
    let named = |name: &str| -> Vec<SpanRecord> {
        measured
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (*s).clone())
            .collect()
    };
    let served = measured
        .iter()
        .filter(|s| s.name.starts_with("serve:"))
        .count();
    let counter = |name: &str| o.obs.counter(name) as f64;
    layers.insert("orb.requests_per_call", served as f64 / calls);
    layers.insert(
        "orb.invoke_virtual_ms_p50",
        percentile_ms(&o.obs, "orb.invoke_ns", 50),
    );
    layers.insert(
        "orb.invoke_virtual_ms_p99",
        percentile_ms(&o.obs, "orb.invoke_ns", 99),
    );
    layers.insert("orb.comm_failures", counter("orb.comm_failures"));
    layers.insert("orb.timeouts", counter("orb.timeouts"));
    layers.insert("naming.resolves", counter("naming.resolves"));
    layers.insert(
        "naming.resolve_virtual_ms_p50",
        percentile_ms(&o.obs, "naming.resolve_ns", 50),
    );
    layers.insert("winner.reports", counter("winner.reports"));
    layers.insert("winner.selections", counter("winner.selections"));
    let on_loaded = r.placements.iter().filter(|h| o.loaded.contains(h)).count();
    layers.insert("winner.loaded_placements", on_loaded as f64);
    layers.insert(
        "optim.solve_virtual_ms_per_call",
        span_ms(&named("serve:solve")) / calls,
    );
    layers.insert("optim.manager_evals", r.manager_evals as f64);
    if spec.ft.is_some() {
        let checkpoint_bytes = match o.obs.metric("ft.checkpoint_bytes") {
            Some(Metric::Histogram(h)) => h.sum as f64,
            _ => 0.0,
        };
        layers.insert("cdr.checkpoint_bytes_per_call", checkpoint_bytes / calls);
        layers.insert("ft.checkpoints_per_call", r.checkpoints as f64 / calls);
        layers.insert(
            "ft.checkpoint_rpcs_per_call",
            counter("ft.checkpoint_rpcs") / calls,
        );
        layers.insert(
            "ft.checkpoint_virtual_ms_per_call",
            span_ms(&named("ft.checkpoint")) / calls,
        );
        layers.insert("ft.recoveries", r.recoveries as f64);
        layers.insert("ft.restores", counter("ft.restores"));
        layers.insert("ft.factory_creates", counter("ft.factory_creates"));
        layers.insert("ft.recovery_virtual_ms", span_ms(&named("ft.recover")));
        let writes = named("serve:store_value").len() as f64;
        layers.insert("store.writes_per_call", writes / calls);
        layers.insert(
            "store.repl_acks_per_write",
            if writes > 0.0 {
                counter("store.repl_acks") / writes
            } else {
                0.0
            },
        );
        layers.insert(
            "store.replicate_virtual_ms_per_call",
            span_ms(&named("store.replicate")) / calls,
        );
        layers.insert("store.retargets", r.store_retargets as f64);
        layers.insert("monitor.events_per_call", counter("monitor.events") / calls);
        layers.insert(
            "monitor.violations",
            o.monitor.as_ref().map_or(0, |m| m.violations()) as f64,
        );
        layers.insert("monitor.late_events", gauge(&o.obs, "monitor.late_events"));
    }
    layers.insert("obs.spans_per_call", spans.len() as f64 / calls);
}

/// Run one round of a cluster workload.
///
/// # Errors
/// Any failed correctness check or sum check.
pub fn run_round(spec: &ExperimentSpec, traced: bool) -> Result<Round, String> {
    let mut layers = Layers::new();
    let (outcome, phases) = compose(spec, traced, &mut layers)?;
    check(spec, &outcome)?;
    let calls = outcome.report.worker_calls;
    if traced {
        layers.insert("core.build_ms", phases.build.as_secs_f64() * 1e3);
        layers.insert("core.boot_ms", phases.boot.as_secs_f64() * 1e3);
        obs_layers(spec, &outcome, &mut layers);
        off_kernel_layers(spec, calls, &mut layers);
    }
    Ok(Round {
        setup: phases.setup,
        measured: phases.measured,
        cpu: phases.cpu,
        calls,
        virtual_runtime_s: outcome.report.elapsed.as_secs_f64(),
        layers,
    })
}
