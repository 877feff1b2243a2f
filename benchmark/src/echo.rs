//! `echo_rpc`: closed-loop synchronous GIOP calls from two clients on two
//! hosts to a benchmark-owned echo servant on a third. No naming, Winner,
//! FT, store or servant work: the kernel, the ORB and CDR carry it all.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use orb::{CallCtx, Exception, Ior, Orb, Poa, Servant, SystemException};
use rand::{Rng, SeedableRng};
use simnet::{HostConfig, Kernel, KernelConfig, NetConfig, Shared, SimTime};

use crate::trace::{cpu_by_layer, KernelOps};
use crate::{median, simnet_layers, sys, Layers, Round};

const ECHO_TYPE: &str = "IDL:Bench/Echo:1.0";

/// Virtual instant the clients make their first call; the server has
/// been listening since time zero.
const FIRST_CALL: SimTime = SimTime::from_nanos(1_000_000);

/// Shape of one `echo_rpc` round.
#[derive(Clone, Debug)]
pub struct EchoConfig {
    /// Simulated clients, each on its own host.
    pub clients: usize,
    /// Calls each client makes per round.
    pub calls_per_client: usize,
    /// Real CPU the servant burns per dispatch (sensitivity checks).
    pub spin: Duration,
    /// Virtual CPU work the servant computes per dispatch (work units,
    /// seconds on a speed-1.0 host).
    pub compute: f64,
}

impl Default for EchoConfig {
    fn default() -> Self {
        EchoConfig {
            clients: 2,
            calls_per_client: 2_000,
            spin: Duration::ZERO,
            compute: 0.0,
        }
    }
}

/// The seed-generated inputs: one payload of 16 to 64 doubles per call.
pub struct EchoInputs {
    seed: u64,
    payloads: Vec<Arc<Vec<Vec<f64>>>>,
}

impl EchoInputs {
    /// Generate every client's payload sequence from `seed`.
    pub fn new(cfg: &EchoConfig, seed: u64) -> Self {
        let mut rng = rand::rngs::SmallRng::seed_from_u64(seed ^ 0xEC40);
        let payloads = (0..cfg.clients)
            .map(|_| {
                let calls = (0..cfg.calls_per_client)
                    .map(|_| {
                        let len = rng.random_range(16..=64usize);
                        (0..len).map(|_| rng.random_range(-1e3..1e3)).collect()
                    })
                    .collect();
                Arc::new(calls)
            })
            .collect();
        EchoInputs { seed, payloads }
    }
}

/// Wall timers of the traced run, summed over calls.
#[derive(Clone, Copy, Debug, Default)]
struct Timers {
    encode: Duration,
    invoke: Duration,
    decode: Duration,
    call: Duration,
    dispatch: Duration,
    bytes: u64,
}

impl Timers {
    fn add(&mut self, o: &Timers) {
        self.encode += o.encode;
        self.invoke += o.invoke;
        self.decode += o.decode;
        self.call += o.call;
        self.dispatch += o.dispatch;
        self.bytes += o.bytes;
    }
}

/// What one client hands back: completed calls, per-call virtual
/// latencies, its finishing instant and its timers.
#[derive(Default)]
struct ClientOut {
    completed: u64,
    latencies_ns: Vec<u64>,
    finished: SimTime,
    timers: Timers,
    error: Option<String>,
}

struct Echo {
    spin: Duration,
    compute: f64,
    traced: bool,
    served: Shared<u64>,
    timers: Shared<Timers>,
}

impl Servant for Echo {
    fn dispatch(
        &mut self,
        call: &mut CallCtx<'_>,
        _op: &str,
        args: &[u8],
    ) -> Result<Vec<u8>, Exception> {
        let begun = self.traced.then(Instant::now);
        let (v,): (Vec<f64>,) = cdr::from_bytes(args).map_err(SystemException::marshal)?;
        let decoded = self.traced.then(Instant::now);
        if !self.spin.is_zero() {
            let t = Instant::now();
            while t.elapsed() < self.spin {
                std::hint::black_box(&v);
            }
        }
        if self.compute > 0.0 {
            call.ctx
                .compute(self.compute)
                .map_err(|_| SystemException::comm_failure("killed mid-dispatch"))?;
        }
        let encoding = self.traced.then(Instant::now);
        let out = cdr::to_bytes(&v);
        self.served.with(|n| *n += 1);
        if let (Some(begun), Some(decoded), Some(encoding)) = (begun, decoded, encoding) {
            let end = Instant::now();
            self.timers.with(|s| {
                s.decode += decoded - begun;
                s.encode += end - encoding;
                s.dispatch += end - begun;
            });
        }
        Ok(out)
    }
}

/// One client's closed loop: encode, [`Orb::invoke`], decode, compare.
fn client_loop(
    ctx: &mut simnet::Ctx,
    ior: &Ior,
    payloads: &[Vec<f64>],
    traced: bool,
) -> simnet::SimResult<ClientOut> {
    let mut orb = Orb::init(ctx);
    let mut out = ClientOut {
        latencies_ns: Vec::with_capacity(payloads.len()),
        ..ClientOut::default()
    };
    for payload in payloads {
        let sent = ctx.now();
        let t0 = traced.then(Instant::now);
        let body = cdr::to_bytes(&(payload,));
        let request_bytes = body.len() as u64;
        let t1 = traced.then(Instant::now);
        let reply = orb.invoke(ctx, ior, "echo", body)?;
        let t2 = traced.then(Instant::now);
        let decoded = reply.map(|bytes| {
            let n = request_bytes + bytes.len() as u64;
            (cdr::from_bytes::<Vec<f64>>(&bytes), n)
        });
        if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
            let t3 = Instant::now();
            let timers = &mut out.timers;
            timers.encode += t1 - t0;
            timers.invoke += t2 - t1;
            timers.decode += t3 - t2;
            timers.call += t3 - t0;
        }
        match decoded {
            Ok((Ok(echoed), n)) if echoed == *payload => out.timers.bytes += n,
            Ok((Ok(_), _)) => out.error = Some("reply differs from the payload sent".into()),
            Ok((Err(e), _)) => out.error = Some(format!("reply does not decode: {e}")),
            Err(e) => out.error = Some(format!("call failed: {e}")),
        }
        if out.error.is_some() {
            break;
        }
        out.latencies_ns.push(ctx.now().since(sent).as_nanos());
        out.completed += 1;
    }
    out.finished = ctx.now();
    Ok(out)
}

/// A kernel booted up to the clients' first call.
struct Booted {
    kernel: Kernel,
    ops: Option<Rc<RefCell<KernelOps>>>,
    outs: Vec<Shared<Option<ClientOut>>>,
    served: Shared<u64>,
    server_timers: Shared<Timers>,
    build: Duration,
    boot: Duration,
    setup: Duration,
}

/// Build the hosts and processes and run the server's boot.
fn boot(cfg: &EchoConfig, inputs: &EchoInputs, traced: bool) -> Booted {
    let started = Instant::now();
    let mut kernel = Kernel::new(KernelConfig {
        seed: inputs.seed,
        ..KernelConfig::default()
    });
    let ops = traced.then(|| KernelOps::install(&mut kernel));
    let client_hosts: Vec<_> = (0..cfg.clients)
        .map(|i| kernel.add_host(HostConfig::new(format!("client{i}"))))
        .collect();
    let server_host = kernel.add_host(HostConfig::new("server"));

    let ior_cell: Shared<Option<String>> = Shared::new(None);
    let served = Shared::new(0u64);
    let server_timers = Shared::new(Timers::default());
    {
        let ior_cell = ior_cell.clone();
        let echo = Echo {
            spin: cfg.spin,
            compute: cfg.compute,
            traced,
            served: served.clone(),
            timers: server_timers.clone(),
        };
        kernel.spawn(server_host, "echo-server", move |ctx| {
            let mut orb = Orb::init(ctx);
            if orb.listen(ctx).is_err() {
                return;
            }
            let poa = Poa::new();
            let key = poa.activate(ECHO_TYPE, Rc::new(RefCell::new(echo)));
            ior_cell.put(orb.ior(ECHO_TYPE, key).stringify());
            let _ = orb.serve_forever(ctx, &poa);
        });
    }
    let outs: Vec<Shared<Option<ClientOut>>> =
        (0..cfg.clients).map(|_| Shared::new(None)).collect();
    for (i, &host) in client_hosts.iter().enumerate() {
        let ior_cell = ior_cell.clone();
        let payloads = inputs.payloads[i].clone();
        let out = outs[i].clone();
        kernel.spawn(host, format!("echo-client-{i}"), move |ctx| {
            if ctx.sleep(FIRST_CALL.since(ctx.now())).is_err() {
                return;
            }
            let ior = match ior_cell.get().map(|s| Ior::destringify(&s)) {
                Some(Ok(ior)) => ior,
                _ => {
                    out.put(ClientOut {
                        error: Some("the echo server published no IOR".into()),
                        ..ClientOut::default()
                    });
                    return;
                }
            };
            if let Ok(o) = client_loop(ctx, &ior, &payloads, traced) {
                out.put(o);
            }
        });
    }
    let build = started.elapsed();
    let boot_started = Instant::now();
    kernel.run_until(SimTime::from_nanos(FIRST_CALL.as_nanos() - 1));
    Booted {
        kernel,
        ops,
        outs,
        served,
        server_timers,
        build,
        boot: boot_started.elapsed(),
        setup: started.elapsed(),
    }
}

/// Wall time to boot a round up to its first call.
pub fn setup_only(cfg: &EchoConfig, inputs: &EchoInputs) -> Duration {
    boot(cfg, inputs, false).setup
}

/// Run one `echo_rpc` round: boot, then every client's calls.
///
/// # Errors
/// Any failed correctness check or sum check.
pub fn run_round(cfg: &EchoConfig, inputs: &EchoInputs, traced: bool) -> Result<Round, String> {
    let Booted {
        mut kernel,
        ops,
        outs,
        served,
        server_timers,
        build,
        boot,
        setup,
    } = boot(cfg, inputs, traced);
    if let Some(ops) = &ops {
        ops.borrow_mut().reset();
    }
    let msgs_before = kernel.stats().msgs_delivered;
    let cpu_before = sys::process_cpu();
    let measured_started = Instant::now();
    kernel.run_until_idle();
    let measured = measured_started.elapsed();
    let cpu = sys::process_cpu() - cpu_before;

    // ---- correctness ------------------------------------------------------
    let outs: Vec<ClientOut> = outs
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            cell.take()
                .ok_or_else(|| format!("echo client {i} never reported"))
        })
        .collect::<Result<_, _>>()?;
    if let Some(e) = outs.iter().find_map(|o| o.error.clone()) {
        return Err(format!("echo_rpc: {e}"));
    }
    let calls: u64 = outs.iter().map(|o| o.completed).sum();
    let expected = (cfg.clients * cfg.calls_per_client) as u64;
    if calls != expected {
        return Err(format!("echo_rpc: {calls} of {expected} calls completed"));
    }
    let served = served.get();
    if served != calls {
        return Err(format!(
            "echo_rpc: server served {served}, clients completed {calls}"
        ));
    }
    // No call can beat the network model: request and reply each cross
    // the LAN once, and each frame carries at least its payload bytes.
    let net = NetConfig::default();
    for (client, payloads) in outs.iter().zip(&inputs.payloads) {
        for (lat, payload) in client.latencies_ns.iter().zip(payloads.iter()) {
            let bytes = 2.0 * 8.0 * payload.len() as f64;
            let rtt = 2 * net.latency_remote.as_nanos() + (bytes / net.bandwidth * 1e9) as u64;
            if *lat < rtt {
                return Err(format!(
                    "echo_rpc: a call took {lat} ns of virtual time, below the {rtt} ns round trip"
                ));
            }
        }
    }
    let finished = outs.iter().map(|o| o.finished).max().unwrap_or(FIRST_CALL);
    let virtual_runtime_s = finished.since(FIRST_CALL).as_secs_f64();

    let mut layers = Layers::new();
    if let Some(ops) = ops {
        let mut client = Timers::default();
        for o in &outs {
            client.add(&o.timers);
        }
        // Sum check: the clients' three timed steps cover their call time.
        let parts = client.encode + client.invoke + client.decode;
        if client.call.abs_diff(parts) > client.call / 50 {
            return Err(format!(
                "echo_rpc: encode + invoke + decode = {parts:?}, call time = {:?} \
                 (more than 2% apart)",
                client.call
            ));
        }
        let mut timers = server_timers.get();
        timers.add(&client);
        let profile = kernel.profile();
        cpu_by_layer(&profile)?;
        let per_call = |d: Duration| d.as_secs_f64() * 1e6 / calls as f64;
        simnet_layers(
            &mut layers,
            &ops.borrow(),
            measured,
            kernel.stats().msgs_delivered - msgs_before,
            &profile,
            kernel.stats().spawned,
            calls,
        );
        layers.insert("core.build_ms", build.as_secs_f64() * 1e3);
        layers.insert("core.boot_ms", boot.as_secs_f64() * 1e3);
        layers.insert("cdr.encode_us_per_call", per_call(timers.encode));
        layers.insert("cdr.decode_us_per_call", per_call(timers.decode));
        layers.insert(
            "cdr.payload_bytes_per_call",
            timers.bytes as f64 / calls as f64,
        );
        layers.insert("orb.invoke_us_per_call", per_call(client.invoke));
        layers.insert("orb.dispatch_us_per_call", per_call(timers.dispatch));
        layers.insert("orb.requests_per_call", served as f64 / calls as f64);
        let mut lat: Vec<f64> = outs
            .iter()
            .flat_map(|o| o.latencies_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        lat.sort_by(f64::total_cmp);
        layers.insert("orb.invoke_virtual_ms_p50", median(&lat));
        layers.insert("orb.invoke_virtual_ms_p99", lat[(lat.len() * 99) / 100]);
    }
    Ok(Round {
        setup,
        measured,
        cpu,
        calls,
        virtual_runtime_s,
        layers,
    })
}
