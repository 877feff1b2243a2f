//! Run one workload for a wall-time budget and print its metrics.
//!
//! ```text
//! ldft-repo-bench --workload <echo_rpc|fig3_winner|ft_recovery> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! ```
//!
//! The run repeats whole rounds until `--seconds` have passed, each round
//! in a fresh child process of this binary: a cluster run leaves memory
//! behind in its process, and later rounds in the same process would run
//! on a grown heap. With `--trace 0` every round is untraced and the last
//! line of standard output is the end-to-end metrics; with `--trace 1`
//! untraced and traced rounds alternate and the line carries the
//! per-layer metrics. A failed correctness check prints
//! `"correct": false` and exits with status 1.

use std::fmt::Write as _;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use ldft_repo_bench::{is_virtual, median, sys, Layers, Round, Workload, PER_LAYER, WORKLOADS};

/// Set-ups timed on their own before the rounds, each in a fresh process
/// like a round's, so `setup_s` is a median of many samples even when few
/// rounds fit in the budget.
const SETUP_SAMPLES: usize = 15;

enum Mode {
    /// Run rounds in child processes for the budget; print the result.
    Run { seconds: u64, trace: bool },
    /// Child: run one round and print it.
    Round { traced: bool },
    /// Child: time one set-up and print it.
    Setup,
}

struct Args {
    workload: String,
    seed: u64,
    mode: Mode,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut child = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = number()?,
            "--trace" => trace = number()? != 0,
            "--round" => {
                child = Some(Mode::Round {
                    traced: number()? != 0,
                })
            }
            "--setup" => child = Some(Mode::Setup),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        mode: child.unwrap_or(Mode::Run { seconds, trace }),
    })
}

/// One round as a child process measured it.
struct Sample {
    round: Round,
    peak_rss_mib: f64,
}

/// The child's one-line report. `f64` prints with all its digits and
/// parses back to the same bits.
fn encode(round: &Round) -> String {
    let mut line = format!(
        "ROUND {} {} {} {} {} {}",
        round.setup.as_secs_f64(),
        round.measured.as_secs_f64(),
        round.cpu.as_secs_f64(),
        round.calls,
        round.virtual_runtime_s,
        sys::peak_rss_mib()
    );
    for (name, value) in &round.layers {
        let _ = write!(line, " {name}={value}");
    }
    line
}

fn decode(line: &str) -> Result<Sample, String> {
    let bad = || format!("malformed round report: {line:?}");
    let mut fields = line.split(' ');
    if fields.next() != Some("ROUND") {
        return Err(bad());
    }
    let mut num = || -> Result<f64, String> {
        fields
            .next()
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(bad)
    };
    let (setup, measured, cpu) = (num()?, num()?, num()?);
    let (calls, virtual_runtime_s, peak_rss_mib) = (num()?, num()?, num()?);
    let mut layers = Layers::new();
    for pair in fields {
        let (name, value) = pair.split_once('=').ok_or_else(bad)?;
        let (name, _) = PER_LAYER
            .iter()
            .find(|(known, _)| *known == name)
            .ok_or_else(bad)?;
        layers.insert(name, value.parse().map_err(|_| bad())?);
    }
    let round = Round {
        setup: Duration::from_secs_f64(setup),
        measured: Duration::from_secs_f64(measured),
        cpu: Duration::from_secs_f64(cpu),
        calls: calls as u64,
        virtual_runtime_s,
        layers,
    };
    Ok(Sample {
        round,
        peak_rss_mib,
    })
}

/// Run this binary again with `extra` flags and return its standard
/// output. Its standard error (progress, failed checks) passes through.
fn child(args: &Args, extra: &[&str]) -> Result<String, String> {
    // The path this binary was started by; resolving it needs no read
    // outside the working directory.
    let exe = std::env::args().next().ok_or("no program path in argv")?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
        ])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a round: {e}"))?;
    if !out.status.success() {
        return Err(format!("a round failed ({})", out.status));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("round output is not text: {e}"))
}

/// Render the result line. Values print with all their digits.
fn result_json(correct: bool, attempted: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{"
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn median_of(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    median(&samples.iter().map(f).collect::<Vec<_>>())
}

/// The end-to-end metrics: medians over the untraced rounds (set-up also
/// over the extra set-up samples).
fn end_to_end(rounds: &[Sample], mut setups: Vec<f64>) -> Metrics {
    setups.extend(rounds.iter().map(|s| s.round.setup.as_secs_f64()));
    vec![
        ("setup_s", median(&setups), "s"),
        (
            "calls_per_s",
            median_of(rounds, |s| s.round.calls_per_s()),
            "calls/s",
        ),
        (
            "cpu_us_per_call",
            median_of(rounds, |s| s.round.cpu_us_per_call()),
            "us",
        ),
        ("virtual_runtime_s", rounds[0].round.virtual_runtime_s, "s"),
        ("peak_rss_mib", median_of(rounds, |s| s.peak_rss_mib), "MiB"),
    ]
}

/// The per-layer metrics: medians over the traced rounds, plus the
/// tracing overhead against the untraced rounds.
fn per_layer(traced: &[Sample], untraced: &[Sample]) -> Metrics {
    let cpu = |s: &[Sample]| median_of(s, |s| s.round.cpu_us_per_call());
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let value = if name == "obs.trace_overhead_us_per_call" {
                cpu(traced) - cpu(untraced)
            } else {
                median_of(traced, |s| s.round.layers.get(name).copied().unwrap_or(0.0))
            };
            (name, value, unit)
        })
        .collect()
}

/// Same seed, same virtual results: every round must agree exactly.
fn check_determinism(untraced: &[Sample], traced: &[Sample]) -> Result<(), String> {
    let first = &untraced.first().ok_or("no round ran")?.round;
    for r in untraced.iter().chain(traced).map(|s| &s.round) {
        if r.virtual_runtime_s.to_bits() != first.virtual_runtime_s.to_bits() {
            return Err(format!(
                "virtual runtime differs between rounds of one seed: {} vs {}",
                r.virtual_runtime_s, first.virtual_runtime_s
            ));
        }
    }
    if let Some(t0) = traced.first() {
        for r in traced {
            for &(name, unit) in &PER_LAYER {
                let (a, b) = (r.round.layers.get(name), t0.round.layers.get(name));
                if is_virtual(name, unit) && a != b {
                    return Err(format!("{name} differs between traced rounds of one seed"));
                }
            }
        }
    }
    Ok(())
}

/// The budgeted run: set-up samples, then rounds until the budget is
/// spent (with tracing, until as many traced as untraced rounds ran).
fn run(args: &Args, seconds: u64, trace: bool) -> Result<(u64, Metrics), String> {
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let setups: Vec<f64> = if trace {
        Vec::new()
    } else {
        (0..SETUP_SAMPLES)
            .map(|_| {
                let out = child(args, &["--setup", "1"])?;
                out.trim()
                    .parse::<f64>()
                    .map_err(|e| format!("set-up sample {out:?}: {e}"))
            })
            .collect::<Result<_, _>>()?
    };
    let (mut untraced, mut traced): (Vec<Sample>, Vec<Sample>) = (Vec::new(), Vec::new());
    loop {
        let tracing = trace && untraced.len() > traced.len();
        let out = child(args, &["--round", if tracing { "1" } else { "0" }])?;
        let line = out.lines().last().ok_or("a round printed nothing")?;
        let sample = decode(line)?;
        let r = &sample.round;
        eprintln!(
            "{} round {}: setup {:.4} s, {} calls in {:.4} s, cpu {:.1} us/call, \
             virtual {} s, peak rss {:.1} MiB",
            if tracing { "traced" } else { "untraced" },
            untraced.len() + traced.len() + 1,
            r.setup.as_secs_f64(),
            r.calls,
            r.measured.as_secs_f64(),
            r.cpu_us_per_call(),
            r.virtual_runtime_s,
            sample.peak_rss_mib
        );
        if tracing {
            traced.push(sample);
        } else {
            untraced.push(sample);
        }
        let paired = !trace || traced.len() == untraced.len();
        if started.elapsed() >= budget && paired {
            break;
        }
    }
    check_determinism(&untraced, &traced)?;
    let attempted = untraced.iter().chain(&traced).map(|s| s.round.calls).sum();
    let metrics = if trace {
        per_layer(&traced, &untraced)
    } else {
        end_to_end(&untraced, setups)
    };
    if let Some((name, value, _)) = metrics.iter().find(|(_, v, _)| !v.is_finite()) {
        return Err(format!("{name} is not a finite number: {value}"));
    }
    Ok((attempted, metrics))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ldft-repo-bench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = Workload::new(&args.workload, args.seed) else {
        eprintln!(
            "ldft-repo-bench: unknown workload {:?} (one of {WORKLOADS:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let outcome = match args.mode {
        Mode::Setup => {
            println!("{}", workload.setup_only().as_secs_f64());
            return ExitCode::SUCCESS;
        }
        Mode::Round { traced } => match workload.round(traced) {
            Ok(round) => {
                println!("{}", encode(&round));
                return ExitCode::SUCCESS;
            }
            Err(e) => {
                eprintln!("ldft-repo-bench: {}: check failed: {e}", args.workload);
                return ExitCode::from(1);
            }
        },
        Mode::Run { seconds, trace } => run(&args, seconds, trace),
    };
    match outcome {
        Ok((attempted, metrics)) => {
            println!("{}", result_json(true, attempted, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ldft-repo-bench: {}: {e}", args.workload);
            println!("{}", result_json(false, 1, &[]));
            ExitCode::from(1)
        }
    }
}
