//! The `campaign` workload: the full-scale 25-cell Perfect grid, run
//! through the worker pool as `--bin all` runs it.
//!
//! Set-up builds the applications and runs one reference pass on a
//! single worker; its fingerprints are what every timed pass must
//! reproduce, and its pool busy time is the base of the work-inflation
//! ratio. Timed passes then run at `nproc` workers until the run's
//! time is spent.

use std::time::{Duration, Instant};

use cedar_core::RunResult;
use cedar_core::{CacheMode, RunOptions, SuiteResult};
use cedar_hw::Configuration;
use cedar_serve::reply::measurement_fingerprint;
use cedar_serve::CampaignSpec;

use crate::layers::{self, Served};
use crate::metrics::Report;
use crate::stats;
use crate::trace::Tracer;
use crate::Args;

fn grid(opts: &RunOptions, apps: &[cedar_apps::AppSpec]) -> SuiteResult {
    SuiteResult::run_parallel(apps, &Configuration::ALL, opts).expect("campaign runs")
}

fn fingerprints(suite: &SuiteResult) -> Vec<u64> {
    suite
        .apps
        .iter()
        .flat_map(|a| a.runs.iter().map(measurement_fingerprint))
        .collect()
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer) {
    let workers = cedar_core::pool::default_workers();
    let opts = RunOptions::default()
        .with_cache(CacheMode::Off)
        .with_workers(workers);
    println!(
        "campaign: 5 apps x {} configurations, {workers} workers (nproc)",
        Configuration::ALL.len()
    );

    let t0 = Instant::now();
    let root = tracer.record("bench.campaign", t0, t0, None, None);
    let apps = cedar_apps::perfect_suite();
    let reference = tracer.time("core.reference_pass", root, |_, _| {
        grid(&opts.clone().with_workers(1), &apps)
    });
    let setup_s = t0.elapsed().as_secs_f64();
    let expected = fingerprints(&reference);
    let busy_1 = reference.telemetry.pool.map_or(0, |p| p.busy_ns);

    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut cells_ms = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last = None;
    let mut pass = 0u64;
    while pass < 2 || start.elapsed() < window {
        // In the traced run every other pass carries spans, so the
        // two kinds of pass give the tracing overhead.
        let traced = tracer.enabled() && pass % 2 == 1;
        let t = Instant::now();
        let suite = grid(&opts, &apps);
        let wall = t.elapsed();
        if traced {
            tracer.record("core.run_parallel", t, t + wall, root, Some(pass));
            traced_walls.push(wall.as_secs_f64());
        } else {
            walls.push(wall.as_secs_f64());
        }
        report.attempted += 25;
        let got = fingerprints(&suite);
        let mismatched = got.iter().zip(&expected).filter(|(a, b)| a != b).count() as u64;
        if mismatched > 0 || got.len() != expected.len() {
            report.failed += mismatched.max(1);
            report.problem(format!(
                "pass {pass}: {mismatched} cell fingerprints differ from the 1-worker pass"
            ));
        }
        for a in &suite.apps {
            cells_ms.extend(a.runs.iter().map(|r| r.stats.total_ns() as f64 / 1e6));
        }
        last = Some(suite);
        pass += 1;
    }
    let suite = last.expect("at least one pass ran");
    report.set("peak_rss_mb", crate::peak_rss_mb());
    let wall_s = stats::median(&walls);
    let tail = stats::tail(&cells_ms, 10).expect("cells ran");
    println!(
        "  {pass} passes {walls:.3?}; wall median {wall_s:.4} s; cell p50 {:.3} ms, p{} {:.3} ms over {} cells ({} beyond)",
        stats::median(&cells_ms),
        tail.pct,
        tail.value,
        tail.samples,
        tail.beyond
    );
    report.set("setup_s", setup_s);
    report.set("wall_s", wall_s);
    report.set("p50_ms", stats::median(&cells_ms));
    report.set("tail_ms", tail.value);
    report.set("tail_ms.beyond", tail.beyond as f64);

    let (mape, mae) = tracer.time("report.fidelity", root, |_, _| {
        crate::fidelity::errors(&suite.apps)
    });
    report.set("fidelity.speedup_mape_pct", mape);
    report.set("fidelity.contention_mae_pp", mae);

    let t = &suite.telemetry;
    let cells: Vec<&RunResult> = suite.apps.iter().flat_map(|a| a.runs.iter()).collect();
    crate::set_core_from_runs(report, &cells, wall_s);
    crate::set_sim_counters(report, &cells);
    if let Some(p) = t.pool {
        report.set("core.pool.busy_s", p.busy_ns as f64 / 1e9);
        report.set("core.pool.idle_s", p.idle_ns() as f64 / 1e9);
        report.set("core.pool.utilization", p.utilization());
        report.set(
            "core.pool.work_inflation",
            p.busy_ns as f64 / busy_1.max(1) as f64,
        );
    }

    if tracer.enabled() {
        let traced = stats::median(&traced_walls);
        report.set("trace.headline_ms", traced * 1e3);
        report.set("trace.overhead_pct", (traced - wall_s) / wall_s * 100.0);
        let cells: Vec<(String, CampaignSpec)> = suite
            .apps
            .iter()
            .flat_map(|a| a.runs.iter())
            .map(|r| {
                let body = format!(
                    "{{\"app\":\"{}\",\"processors\":{}}}",
                    r.app,
                    r.configuration.total_ces()
                );
                let spec = CampaignSpec::from_json(&body).expect("grid cells are valid specs");
                (body, spec)
            })
            .collect();
        let served: Vec<Served<'_>> = cells
            .iter()
            .zip(suite.apps.iter().flat_map(|a| a.runs.iter()))
            .map(|((body, spec), result)| Served { body, spec, result })
            .collect();
        let scratch = crate::scratch_dir();
        layers::measure(
            report,
            tracer,
            root,
            &t.counters,
            &served,
            &scratch,
            args.seed,
        );
    }
    if let Some(root) = root {
        tracer.close(root);
    }
}
