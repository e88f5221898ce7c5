//! The `serve_warm` and `serve_mixed` workloads: an in-process
//! `cedar_serve::Server` (default options, fresh cache directory)
//! driven open-loop over two keep-alive connections.
//!
//! * `serve_warm` requests a key space that set-up has pre-filled, so
//!   every timed request is a hot-tier hit. It measures latency at the
//!   reference rate, then walks a doubling rate ladder from below the
//!   rate at which warm latency jumps to above the rate at which the
//!   server's CPU saturates.
//! * `serve_mixed` sends the same warm mix at the reference rate, but a
//!   fixed share of requests carry specs never seen before: a real
//!   simulation, a disk write and a hot-tier insert each, more of them
//!   than the hot tier holds, so entries are evicted.
//!
//! Every 200 reply's fingerprint is checked against a run of the same
//! spec through the library, and every fresh request must show up as a
//! cache miss on `/metrics`.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use cedar_core::cache::run_key;
use cedar_core::{Experiment, RunResult};
use cedar_serve::reply::measurement_fingerprint;
use cedar_serve::{CampaignSpec, ServeOptions, Server};
use cedar_sim::SplitMix64;

use crate::layers::{self, Served};
use crate::loadgen::{self, Outcome, Request};
use crate::metrics::Report;
use crate::stats::{self, Rung};
use crate::trace::{SpanId, Tracer};
use crate::Args;

/// Offered load at which `serve_warm` reports latency, requests per
/// second: above the rate where warm latency jumps.
pub const WARM_RATE: f64 = 100.0;
/// Offered load of `serve_mixed`, requests per second.
pub const MIXED_RATE: f64 = 1000.0;
/// Load connections, one per CPU of the reference host.
const CONNS: usize = 2;
/// Tail latency a ladder rung must meet (`results/SERVE_budget.json`).
pub const WARM_LIMIT_MS: f64 = 5.0;
/// The warm rate ladder, requests per second: doubling from below the
/// warm-latency cliff to past CPU saturation.
pub const LADDER: [f64; 11] = [
    20.0, 40.0, 80.0, 160.0, 320.0, 640.0, 1280.0, 2560.0, 5120.0, 10240.0, 20480.0,
];
/// Share of `serve_mixed` requests that carry a never-seen spec, per
/// ten thousand: a 20 s run sends 300 of them, more than the hot
/// tier's 256.
const FRESH_PER_10K: usize = 150;
/// How many times set-up runs; the median is reported.
const SETUPS: usize = 3;
/// How long to wait for replies after the last due time.
const GRACE: Duration = Duration::from_secs(5);

/// The pre-filled key space: every (application, processors) pair at
/// fault levels 0 and 2, at shrink 64. It is the same for every seed,
/// so set-up does the same work on every run; the seed picks the
/// requests.
pub fn warm_keyspace() -> Vec<String> {
    let mut out = Vec::new();
    for app in APPS {
        for procs in PROCS {
            for faults in [0, 2] {
                out.push(format!(
                    "{{\"app\":\"{app}\",\"processors\":{procs},\"faults\":{faults},\"shrink\":64}}"
                ));
            }
        }
    }
    out
}

fn key_of(body: &str) -> cedar_cache::RunKey {
    let spec = CampaignSpec::from_json(body).expect("generated specs parse");
    run_key(&spec.workload(), &spec.sim_config())
}

const APPS: [&str; 5] = ["FLO52", "ARC2D", "MDG", "OCEAN", "ADM"];
const PROCS: [u64; 5] = [1, 4, 8, 16, 32];
const SCHEDULERS: [&str; 2] = ["calendar", "heap"];

fn spec_body(app: &str, procs: u64, faults: u64, scheduler: &str, shrink: u64) -> String {
    format!(
        "{{\"app\":\"{app}\",\"processors\":{procs},\"faults\":{faults},\"scheduler\":\"{scheduler}\",\"shrink\":{shrink}}}"
    )
}

/// `n` specs whose run keys differ from each other and from `seen`,
/// in seeded order, over shrink, processors, fault levels 0..=4 and
/// both schedulers, for every application but FLO52: one spec per
/// (application, processors, fault level, scheduler) combination at
/// shrink 8..=64, then more shapes at shrink 6..=64. Seeded shrink
/// values can name the same run (a shrink past an application's
/// smallest phase count changes nothing), so distinctness is by key.
///
/// Which specs are chosen is the same for every seed; the seed orders
/// them. Their simulations then cost the same in every run, and the
/// seed moves only where each lands among the warm requests.
///
/// FLO52 stays out: one of its runs takes 50-280 ms, long enough to
/// hold back a keep-alive connection's next dozens of requests, so the
/// tail would measure where the few FLO52 runs happened to land rather
/// than the mix.
pub fn fresh_specs(order: &mut SplitMix64, n: usize, seen: &[String]) -> Vec<String> {
    let mut keys: HashSet<_> = seen.iter().map(|b| key_of(b)).collect();
    let mut rng = SplitMix64::new(0xF2E5);
    let mut out = Vec::with_capacity(n);
    let combos = APPS[1..].iter().flat_map(|&a| {
        PROCS.iter().flat_map(move |&p| {
            (0..5).flat_map(move |f| SCHEDULERS.iter().map(move |&s| (a, p, f, s)))
        })
    });
    for (app, procs, faults, scheduler) in combos.take(n) {
        // A few draws: one may land on a warm key.
        for _ in 0..8 {
            let body = spec_body(app, procs, faults, scheduler, 8 + rng.next_below(57));
            if keys.insert(key_of(&body)) {
                out.push(body);
                break;
            }
        }
    }
    let mut attempts = 0;
    while out.len() < n {
        attempts += 1;
        assert!(attempts < 1000 * n, "fresh key space exhausted");
        let body = spec_body(
            APPS[1 + rng.next_below(4) as usize],
            PROCS[rng.next_below(5) as usize],
            rng.next_below(5),
            SCHEDULERS[rng.next_below(2) as usize],
            6 + rng.next_below(59),
        );
        if keys.insert(key_of(&body)) {
            out.push(body);
        }
    }
    for i in (1..out.len()).rev() {
        out.swap(i, order.next_below(i as u64 + 1) as usize);
    }
    out
}

/// The `/metrics` counters, by name with labels.
fn scrape(addr: SocketAddr) -> BTreeMap<String, f64> {
    let (status, text) = loadgen::one_shot(addr, "GET", "/metrics", "").expect("/metrics answers");
    assert_eq!(status, 200, "/metrics status");
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, v) = l.rsplit_once(' ')?;
            Some((name.to_string(), v.parse().ok()?))
        })
        .collect()
}

/// Counter growth between two scrapes.
fn delta(before: &BTreeMap<String, f64>, after: &BTreeMap<String, f64>, name: &str) -> f64 {
    after.get(name).copied().unwrap_or(0.0) - before.get(name).copied().unwrap_or(0.0)
}

fn fingerprint_in(body: &str) -> Option<&str> {
    let at = body.find("\"fingerprint\":\"")? + "\"fingerprint\":\"".len();
    body.get(at..at + 16)
}

/// A started, pre-filled server and its cache directory.
struct Running {
    server: Server,
    dir: PathBuf,
}

impl Running {
    fn stop(self) {
        self.server.shutdown();
        self.server.join();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Starts a server on a fresh cache directory and requests every warm
/// key once. Returns it with the time that took.
fn set_up(
    dir: PathBuf,
    warm: &[String],
    tracer: &mut Tracer,
    parent: Option<SpanId>,
) -> (Running, f64) {
    let t0 = Instant::now();
    let _ = std::fs::remove_dir_all(&dir);
    let opts = ServeOptions::default()
        .with_addr("127.0.0.1:0")
        .with_cache_dir(&dir);
    let server = tracer.time("serve.start", parent, |_, _| {
        Server::start(&opts).expect("server starts")
    });
    let addr = server.local_addr();
    for (i, body) in warm.iter().enumerate() {
        let t = Instant::now();
        let (status, _) = loadgen::one_shot(addr, "POST", "/run", body).expect("prefill answers");
        tracer.record("serve.prefill", t, Instant::now(), parent, Some(i as u64));
        assert_eq!(status, 200, "prefill of {body}");
    }
    (Running { server, dir }, t0.elapsed().as_secs_f64())
}

/// An open-loop phase: `bodies` at `rate`, starting shortly from now.
/// Requests for specs in `fresh` travel on a connection of their own,
/// as a client keeps bulk work off its interactive connection; the
/// rest are dealt round-robin over the other connections. Requests
/// from `trace_from` on are traced as they are answered.
fn phase(
    addr: SocketAddr,
    bodies: &[&str],
    fresh: &HashSet<&str>,
    rate: f64,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    trace_from: usize,
) -> (Vec<Outcome>, f64) {
    let warm_conns = if fresh.is_empty() { CONNS } else { CONNS - 1 };
    let requests: Vec<Request> = bodies
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let conn = if fresh.contains(b) {
                CONNS - 1
            } else {
                i % warm_conns
            };
            Request::post_run(Duration::from_secs_f64(i as f64 / rate), b, conn)
        })
        .collect();
    let per_conn = ServeOptions::default().keepalive_requests;
    let start = Instant::now() + Duration::from_millis(5);
    let mut on_reply = |i: usize, o: &Outcome| {
        if i >= trace_from {
            record_request(tracer, parent, i, o);
        }
    };
    let out = loadgen::run(
        addr,
        &requests,
        CONNS,
        per_conn,
        start,
        GRACE,
        &mut on_reply,
    );
    let end = out.iter().filter_map(|o| o.done).max().unwrap_or(start);
    (out, end.saturating_duration_since(start).as_secs_f64())
}

fn latencies(out: &[Outcome]) -> Vec<f64> {
    out.iter().filter_map(Outcome::latency_ms).collect()
}

/// Requests that failed outright: no reply or a status other than 200.
fn outright_failures(out: &[Outcome]) -> usize {
    out.iter().filter(|o| o.status != 200).count()
}

/// A request's spans: due to reply under `parent`, and the exchange
/// with the server (sent to reply) under that.
fn record_request(tracer: &mut Tracer, parent: Option<SpanId>, i: usize, o: &Outcome) {
    let (Some(due), Some(sent), Some(done)) = (o.due, o.sent, o.done) else {
        return;
    };
    let id = Some(i as u64);
    let req = tracer.record("loadgen.request", due, done, parent, id);
    tracer.record("serve.exchange", sent, done, req, id);
}

fn pick<'a>(rng: &mut SplitMix64, keys: &'a [String], n: usize) -> Vec<&'a str> {
    (0..n)
        .map(|_| keys[rng.next_below(keys.len() as u64) as usize].as_str())
        .collect()
}

pub fn run(args: &Args, report: &mut Report, tracer: &mut Tracer, mixed: bool) {
    let mut rng = SplitMix64::new(args.seed);
    let warm = warm_keyspace();
    let scratch = crate::scratch_dir();
    let window = args.seconds as f64;
    let name = if mixed { "serve_mixed" } else { "serve_warm" };
    let t0 = Instant::now();
    let root = tracer.record("bench.serve", t0, t0, None, None);

    // Set up several times; the last server is the one measured.
    let mut setups = Vec::new();
    let mut running = None;
    for i in 0..SETUPS {
        if let Some(r) = running.take() {
            Running::stop(r);
        }
        let t = Instant::now();
        let span = tracer.record("bench.setup", t, t, root, Some(i as u64));
        let (r, secs) = set_up(scratch.join(format!("serve-{i}")), &warm, tracer, span);
        if let Some(span) = span {
            tracer.close(span);
        }
        setups.push(secs);
        running = Some(r);
    }
    let running = running.expect("set-up ran");
    let addr = running.server.local_addr();
    report.set("setup_s", stats::median(&setups));
    println!(
        "{name}: server with {} workers, {} pre-filled keys; set-up {:?} s",
        ServeOptions::default().workers,
        warm.len(),
        setups
    );

    // The measured phase at the reference rate. For serve_mixed it fills
    // the whole window; serve_warm leaves 60% of it for the ladder.
    let share = if mixed { 1.0 } else { 0.4 };
    let rate = if mixed { MIXED_RATE } else { WARM_RATE };
    let n = (rate * window * share).round() as usize;
    let fresh: Vec<String>;
    let bodies: Vec<&str> = if mixed {
        // Fresh requests spread evenly: request i is fresh when the
        // running fresh quota steps up at i.
        let quota = |k: usize| k * FRESH_PER_10K / 10_000;
        fresh = fresh_specs(&mut rng, quota(n), &warm);
        let mut warm_picks = pick(&mut rng, &warm, n - quota(n)).into_iter();
        let mut fresh_iter = fresh.iter().map(String::as_str);
        (0..n)
            .map(|i| {
                if quota(i + 1) > quota(i) {
                    fresh_iter.next()
                } else {
                    warm_picks.next()
                }
                .expect("one pick per request")
            })
            .collect()
    } else {
        fresh = Vec::new();
        pick(&mut rng, &warm, n)
    };

    // In the traced run the second half of the phase carries spans;
    // the two halves give the tracing overhead.
    let trace_from = if tracer.enabled() { n / 2 } else { n };
    let before = scrape(addr);
    let t = Instant::now();
    let phase_span = tracer.record("bench.reference_phase", t, t, root, None);
    let fresh_set: HashSet<&str> = fresh.iter().map(String::as_str).collect();
    let (out, wall_s) = phase(
        addr, &bodies, &fresh_set, rate, tracer, phase_span, trace_from,
    );
    if let Some(span) = phase_span {
        tracer.close(span);
    }
    let after = scrape(addr);

    let lat = latencies(&out);
    let tail = stats::tail(&lat, 10).expect("replies arrived");
    let failed = outright_failures(&out);
    let over = lat.iter().filter(|&&l| l > WARM_LIMIT_MS).count();
    let lag = out.iter().map(Outcome::lag_ms).fold(0.0, f64::max);
    println!(
        "  reference {rate} req/s: {} requests, p50 {:.3} ms, p{} {:.3} ms ({} beyond), {failed} failed, {over} over {WARM_LIMIT_MS} ms, lag max {lag:.3} ms",
        out.len(),
        stats::median(&lat),
        tail.pct,
        tail.value,
        tail.beyond
    );
    report.attempted += out.len() as u64;
    report.failed += failed as u64;
    report.set("wall_s", wall_s);
    report.set("p50_ms", stats::median(&lat));
    report.set("tail_ms", tail.value);
    report.set("tail_ms.beyond", tail.beyond as f64);
    report.set("loadgen.lag_ms_max", lag);
    if tracer.enabled() {
        let untraced = stats::median(&latencies(&out[..trace_from]));
        let traced = stats::median(&latencies(&out[trace_from..]));
        report.set("trace.headline_ms", traced);
        report.set("trace.overhead_pct", (traced - untraced) / untraced * 100.0);
    }

    // What the server says about the phase.
    let d = |name: &str| delta(&before, &after, name);
    let ok = d("cedar_serve_requests_total{code=\"200\"}");
    let hot_hits = d("cedar_serve_cache_hot_hits_total");
    let hot_misses = d("cedar_serve_cache_hot_misses_total");
    let misses = d("cedar_serve_cache_misses_total");
    report.set("cache.hot_hits", hot_hits);
    report.set("cache.hot_misses", hot_misses);
    report.set(
        "cache.disk_hits",
        d("cedar_serve_cache_hits_total") - hot_hits,
    );
    report.set("cache.misses", misses);
    // Under the server's read-write cache every miss is simulated and
    // written back.
    report.set("cache.writes", misses);
    report.set(
        "cache.hot_evictions",
        d("cedar_serve_cache_hot_evictions_total"),
    );
    report.set(
        "cache.hot_hit_ratio",
        hot_hits / (hot_hits + hot_misses).max(1.0),
    );
    report.set(
        "serve.shed_503",
        d("cedar_serve_requests_total{code=\"503\"}"),
    );
    report.set(
        "serve.reuse_ratio",
        d("cedar_serve_keepalive_reuse_total") / ok.max(1.0),
    );
    let mut phases_ms = 0.0;
    for (phase, metric) in [
        ("parse", "serve.parse_mean_us"),
        ("execute", "serve.execute_mean_us"),
        ("write", "serve.write_mean_us"),
    ] {
        let sum = d(&format!(
            "cedar_serve_request_phase_seconds_sum{{phase=\"{phase}\"}}"
        ));
        let count = d(&format!(
            "cedar_serve_request_phase_seconds_count{{phase=\"{phase}\"}}"
        ));
        let mean_us = sum * 1e6 / count.max(1.0);
        phases_ms += mean_us / 1e3;
        report.set(metric, mean_us);
    }
    let mean_ms = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    report.set("serve.wait_mean_ms", (mean_ms - phases_ms).max(0.0));
    if mixed && misses as usize != fresh.len() {
        report.problem(format!(
            "{} fresh requests but {misses} cache misses on /metrics",
            fresh.len()
        ));
    }
    if !mixed && hot_hits as usize != out.len() {
        report.problem(format!(
            "{} warm requests but {hot_hits} hot-tier hits on /metrics",
            out.len()
        ));
    }

    // The warm rate ladder.
    let mut all = vec![(out, bodies.clone())];
    if !mixed {
        let per_rung = window * (1.0 - share) / LADDER.len() as f64;
        let mut rungs = Vec::new();
        println!("  ladder (limit {WARM_LIMIT_MS} ms on the tail):");
        for &rate in &LADDER {
            let n = ((rate * per_rung).round() as usize).max(10);
            let rung_bodies = pick(&mut rng, &warm, n);
            let t = Instant::now();
            let span = tracer.record("bench.rung", t, t, root, Some(rate as u64));
            let (out, secs) = phase(
                addr,
                &rung_bodies,
                &HashSet::new(),
                rate,
                tracer,
                span,
                usize::MAX,
            );
            if let Some(span) = span {
                tracer.close(span);
            }
            let lat = latencies(&out);
            let tail = stats::tail(&lat, 10).map_or(f64::INFINITY, |t| t.value);
            let rung = Rung {
                rate,
                achieved: lat.len() as f64 / secs.max(1e-9),
                tail_ms: tail,
                backlog: stats::backlog_grows(&lat, WARM_LIMIT_MS / 2.0),
                failed: outright_failures(&out),
            };
            println!(
                "    {rate:>7} req/s: achieved {:>9.1}, p50 {:>9.3} ms, tail {:>9.3} ms, backlog {}, failed {}, holds {}",
                rung.achieved,
                stats::median(&lat),
                rung.tail_ms,
                rung.backlog,
                rung.failed,
                rung.holds(WARM_LIMIT_MS)
            );
            rungs.push(rung);
            // Replies past saturation are probes, not the workload's
            // operations; only their content is checked.
            let answered: Vec<_> = out.into_iter().zip(rung_bodies).collect();
            let (o, b): (Vec<_>, Vec<_>) = answered
                .into_iter()
                .filter(|(o, _)| o.status == 200)
                .unzip();
            all.push((o, b));
        }
        report.set("serve.max_rate_rps", stats::max_rate(&rungs, WARM_LIMIT_MS));
    }
    // Peak memory of the measured window, before the checks below run
    // simulations of their own.
    report.set("peak_rss_mb", crate::peak_rss_mb());
    running.stop();

    // Check every reply against the library path.
    let distinct: Vec<&str> = {
        let mut seen = HashSet::new();
        all.iter()
            .flat_map(|(_, b)| b.iter().copied())
            .filter(|b| seen.insert(*b))
            .collect()
    };
    let t = Instant::now();
    let library = library_runs(&distinct);
    tracer.record("core.library_runs", t, Instant::now(), root, None);
    let expected: HashMap<&str, String> = distinct
        .iter()
        .zip(&library)
        .map(|(b, (_, r))| (*b, format!("{:016x}", measurement_fingerprint(r))))
        .collect();
    let mismatched: Vec<u64> = all
        .iter()
        .map(|(out, bodies)| {
            out.iter()
                .zip(bodies)
                .filter(|(o, b)| {
                    o.status == 200 && fingerprint_in(&o.body) != Some(expected[*b].as_str())
                })
                .count() as u64
        })
        .collect();
    // The reference phase's requests are the operations counted as
    // attempted; a wrong ladder reply fails the run all the same.
    report.failed += mismatched[0];
    let total: u64 = mismatched.iter().sum();
    if total > 0 {
        report.problem(format!(
            "{total} replies differ from the library fingerprint"
        ));
    }

    // The simulations the server ran in the window are the fresh ones.
    let simulated: Vec<&RunResult> = distinct
        .iter()
        .zip(&library)
        .filter(|(b, _)| fresh_set.contains(**b))
        .map(|(_, (_, r))| r)
        .collect();
    crate::set_core_from_runs(report, &simulated, wall_s);
    crate::set_sim_counters(report, &simulated);

    if tracer.enabled() {
        let served: Vec<Served<'_>> = distinct
            .iter()
            .zip(&library)
            .map(|(body, (spec, result))| Served { body, spec, result })
            .collect();
        let mut rollup = cedar_obs::Counters::new();
        for (_, r) in &library {
            rollup.merge(&r.stats.counters);
        }
        layers::measure(report, tracer, root, &rollup, &served, &scratch, args.seed);
    }
    if let Some(root) = root {
        tracer.close(root);
    }
    let _ = std::fs::remove_dir_all(&scratch);
}

/// Each spec run through the library, on the worker pool.
fn library_runs(bodies: &[&str]) -> Vec<(CampaignSpec, RunResult)> {
    let jobs: Vec<_> = bodies
        .iter()
        .map(|b| {
            let spec = CampaignSpec::from_json(b).expect("generated specs parse");
            move || {
                let r = Experiment::new(spec.workload(), spec.sim_config()).run();
                (spec, r)
            }
        })
        .collect();
    cedar_core::pool::run_jobs(cedar_core::pool::default_workers(), jobs)
        .expect("library runs complete")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_specs_are_distinct_by_key_and_unseen() {
        let mut rng = SplitMix64::new(7);
        let warm = warm_keyspace();
        assert_eq!(warm.len(), 50);
        let fresh = fresh_specs(&mut rng, 300, &warm);
        let mut keys: HashSet<_> = warm.iter().map(|b| key_of(b)).collect();
        assert_eq!(keys.len(), 50, "warm keys are distinct");
        for b in &fresh {
            assert!(keys.insert(key_of(b)), "{b} repeats a key");
        }
    }

    #[test]
    fn same_seed_same_inputs() {
        let warm = warm_keyspace();
        let a = fresh_specs(&mut SplitMix64::new(3), 40, &warm);
        assert_eq!(a, fresh_specs(&mut SplitMix64::new(3), 40, &warm));
        let b = fresh_specs(&mut SplitMix64::new(4), 40, &warm);
        assert_ne!(a, b, "another seed, another order");
        let sorted = |mut v: Vec<String>| {
            v.sort();
            v
        };
        assert_eq!(sorted(a), sorted(b), "the same specs");
    }

    #[test]
    fn fingerprint_is_read_from_the_reply() {
        let body = r#"{"key":"ab","fingerprint":"0123456789abcdef","app":"MDG"}"#;
        assert_eq!(fingerprint_in(body), Some("0123456789abcdef"));
        assert_eq!(fingerprint_in("{}"), None);
    }
}
