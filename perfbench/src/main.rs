//! The repository's benchmark: end-to-end and per-layer performance
//! of the Cedar reproduction on three workloads.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` is the
//! separate traced run that yields the per-layer metrics and the spans
//! (written to `perfbench/out/`). The last line of standard output is
//! the result as one JSON object. A failed correctness check makes the
//! result `"correct": false` and the exit code 1.
//! `--all [--seed N] [--seconds S]` runs every workload, untraced and
//! traced, one after the other. `--print-manifest` prints the
//! `BENCHMARK.json` this benchmark declares.

mod calib;
mod campaign;
mod fidelity;
mod layers;
mod loadgen;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use cedar_core::RunResult;
use cedar_obs::Counters;

use metrics::Report;
use trace::Tracer;

/// The command that runs the benchmark from the repository root.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// The workloads and why each is there.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "campaign",
        "the full 25-cell paper grid on the worker pool: simulator event loop, gmem path and pool; no cache or service",
    ),
    (
        "serve_warm",
        "warm POST /run over 2 keep-alive connections: HTTP, spec parse, run key, hot tier, reply; no simulation",
    ),
    (
        "serve_mixed",
        "warm mix at 1000 req/s plus 300 never-seen specs: small simulations, disk writes, hot-tier inserts and evictions",
    ),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-manifest" {
            print!("{}", metrics::manifest());
            std::process::exit(0);
        }
        if flag == "--all" {
            std::process::exit(run_all());
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => args.seconds = value.parse().map_err(bad)?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| e.to_string())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.iter().any(|(w, _)| *w == args.workload) {
        return Err(format!(
            "--workload must be one of campaign, serve_warm, serve_mixed (got `{}`)",
            args.workload
        ));
    }
    Ok(args)
}

/// `--all [--seed N]`: every workload, untraced then traced, each in a
/// process of its own (peak memory is per process). Returns the exit
/// code: 0 when every run passed its checks.
fn run_all() -> i32 {
    let rest: Vec<String> = std::env::args().skip(2).collect();
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let mut code = 0;
    for (workload, _) in WORKLOADS {
        for trace in ["0", "1"] {
            let status = std::process::Command::new(&exe)
                .args(["--workload", workload, "--trace", trace])
                .args(&rest)
                .status();
            match status {
                Ok(s) if s.success() => {}
                other => {
                    eprintln!("perfbench: {workload} trace {trace} failed: {other:?}");
                    code = 1;
                }
            }
        }
    }
    code
}

/// The benchmark's working directory inside the checkout: scratch
/// caches under it are removed when a run ends, spans are kept.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A per-process scratch directory under [`out_dir`].
pub fn scratch_dir() -> PathBuf {
    out_dir().join(format!("scratch-{}", std::process::id()))
}

/// cedar-core metrics from the RunStats of `runs`, simulated during a
/// window of `wall_s` seconds.
pub fn set_core_from_runs(report: &mut Report, runs: &[&RunResult], wall_s: f64) {
    if runs.is_empty() {
        return;
    }
    let n = runs.len() as f64;
    let sum = |f: fn(&RunResult) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    let events = sum(|r| r.events);
    let run_ns = sum(|r| r.stats.run_ns);
    report.set("core.run_s", run_ns / 1e9);
    report.set("core.setup_ms", sum(|r| r.stats.setup_ns) / 1e6 / n);
    report.set("core.breakdown_ms", sum(|r| r.stats.breakdown_ns) / 1e6 / n);
    report.set("core.ns_per_event", run_ns / events.max(1.0));
    report.set("core.events_per_s", events / wall_s);
    let critical = runs.iter().map(|r| r.stats.total_ns()).max().unwrap_or(0);
    report.set("core.critical_cell_s", critical as f64 / 1e9);
    for (name, c) in [
        ("core.ns_per_event.p1", cedar_hw::Configuration::P1),
        ("core.ns_per_event.p32", cedar_hw::Configuration::P32),
    ] {
        let (ns, ev) = runs
            .iter()
            .filter(|r| r.configuration == c)
            .fold((0u64, 0u64), |(ns, ev), r| {
                (ns + r.stats.run_ns, ev + r.events)
            });
        report.set(name, ns as f64 / ev.max(1) as f64);
    }
}

/// cedar-sim, cedar-hw, cedar-rtl and cedar-xylem counters rolled up
/// over `runs`.
pub fn set_sim_counters(report: &mut Report, runs: &[&RunResult]) {
    let mut c = Counters::new();
    for r in runs {
        c.merge(&r.stats.counters);
    }
    let get = |name: &str| c.get(name) as f64;
    let scheduled = get("queue.scheduled");
    report.set("sim.queue.scheduled", scheduled);
    report.set("sim.queue.overflow_spills", get("queue.overflow_spills"));
    report.set(
        "sim.queue.spill_ratio",
        get("queue.overflow_spills") / scheduled.max(1.0),
    );
    report.set("sim.queue.pending_peak", get("queue.pending.peak"));
    report.set("sim.outbox.flushes", get("outbox.flushes"));
    report.set("sim.outbox.emitted", get("outbox.emitted"));
    report.set(
        "sim.outbox.flush_yield",
        get("outbox.emitted") / get("outbox.flushes").max(1.0),
    );
    let packets: u64 = runs.iter().map(|r| r.gmem.packets).sum();
    let queued: u64 = runs.iter().map(|r| r.gmem.total_queued().0).sum();
    report.set("hw.gmem.packets", packets as f64);
    report.set("hw.gmem.queued_mcycles", queued as f64 / 1e6);
    report.set("rtl.bodies", get("bodies"));
    report.set(
        "rtl.events",
        get("events.ce_done") + get("events.ce_resume") + get("events.cbus_release"),
    );
    report.set(
        "xylem.events",
        get("events.ast") + get("events.daemon") + get("events.fault"),
    );
    let faults: u64 = runs.iter().map(|r| r.faults.0 + r.faults.1).sum();
    report.set("xylem.page_faults", faults as f64);
}

/// The process's peak resident set, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::new();
    let mut tracer = Tracer::new(args.trace);
    println!(
        "perfbench: workload {} seed {} seconds {} trace {} (available parallelism {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    match args.workload.as_str() {
        "campaign" => campaign::run(&args, &mut report, &mut tracer),
        "serve_warm" => serve::run(&args, &mut report, &mut tracer, false),
        _ => serve::run(&args, &mut report, &mut tracer, true),
    }
    report.set(
        "fail_ratio",
        report.failed as f64 / report.attempted.max(1) as f64,
    );

    let names: Vec<&'static str> = if args.trace {
        let layers = tracer.self_time_by_layer();
        for &(name, _, _) in &metrics::PER_LAYER {
            if let Some(layer) = name.strip_prefix("trace.self_s.") {
                let ns = layers.iter().find(|(l, _)| l == layer).map_or(0, |l| l.1);
                report.set(name, ns as f64 / 1e9);
            }
        }
        report.set("trace.spans", tracer.spans().len() as f64);
        let path = out_dir().join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(out_dir())
            .and_then(|_| std::fs::write(&path, tracer.to_jsonl()));
        match written {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write spans: {e}"),
        }
        metrics::PER_LAYER.iter().map(|m| m.0).collect()
    } else {
        metrics::END_TO_END.iter().map(|m| m.0).collect()
    };
    report.print_table();
    println!("{}", report.json_line(&names));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
