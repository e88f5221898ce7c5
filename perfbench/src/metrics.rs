//! Every metric the benchmark reports, with its unit and direction,
//! and the run's result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a
//! test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// (name, unit, better, bound). End-to-end metrics, measured with
/// tracing off, on every workload.
pub const END_TO_END: [(&str, &str, &str, f64); 5] = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("p50_ms", "ms", "lower", 0.25),
    ("tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
];

/// (name, unit, better). Per-layer metrics, from the traced run. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [(&str, &str, &str); 66] = [
    // cedar-core: summed from the RunStats of the runs simulated.
    ("core.run_s", "s", "lower"),
    ("core.setup_ms", "ms", "lower"),
    ("core.breakdown_ms", "ms", "lower"),
    ("core.ns_per_event", "ns", "lower"),
    ("core.ns_per_event.p1", "ns", "lower"),
    ("core.ns_per_event.p32", "ns", "lower"),
    ("core.critical_cell_s", "s", "lower"),
    ("core.events_per_s", "events/s", "higher"),
    // cedar-core worker pool.
    ("core.pool.busy_s", "s", "lower"),
    ("core.pool.idle_s", "s", "lower"),
    ("core.pool.utilization", "ratio", "higher"),
    ("core.pool.work_inflation", "ratio", "lower"),
    // cedar-sim.
    ("sim.queue.scheduled", "count", "lower"),
    ("sim.queue.overflow_spills", "count", "lower"),
    ("sim.queue.spill_ratio", "ratio", "lower"),
    ("sim.queue.pending_peak", "count", "lower"),
    ("sim.outbox.flushes", "count", "lower"),
    ("sim.outbox.emitted", "count", "lower"),
    ("sim.outbox.flush_yield", "ratio", "higher"),
    ("sim.hold_ns", "ns", "lower"),
    // cedar-hw.
    ("hw.gmem.packets", "count", "lower"),
    ("hw.gmem.queued_mcycles", "Mcycles", "lower"),
    ("hw.gmem.event_ns", "ns", "lower"),
    ("hw.module.serve_ns", "ns", "lower"),
    ("hw.net.transit_ns", "ns", "lower"),
    // cedar-rtl and cedar-xylem.
    ("rtl.bodies", "count", "lower"),
    ("rtl.events", "count", "lower"),
    ("rtl.claim_ns", "ns", "lower"),
    ("xylem.events", "count", "lower"),
    ("xylem.page_faults", "count", "lower"),
    // cedar-cache.
    ("cache.key_us", "us", "lower"),
    ("cache.get_us", "us", "lower"),
    ("cache.put_us", "us", "lower"),
    ("cache.hot_hits", "count", "higher"),
    ("cache.hot_misses", "count", "lower"),
    ("cache.disk_hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.writes", "count", "lower"),
    ("cache.hot_evictions", "count", "lower"),
    ("cache.hot_hit_ratio", "ratio", "higher"),
    // cedar-serve.
    ("serve.parse_mean_us", "us", "lower"),
    ("serve.execute_mean_us", "us", "lower"),
    ("serve.write_mean_us", "us", "lower"),
    ("serve.wait_mean_ms", "ms", "lower"),
    ("serve.spec_parse_us", "us", "lower"),
    ("serve.render_us", "us", "lower"),
    ("serve.shed_503", "count", "lower"),
    ("serve.reuse_ratio", "ratio", "higher"),
    ("serve.max_rate_rps", "req/s", "higher"),
    // The load generator.
    ("loadgen.lag_ms_max", "ms", "lower"),
    ("tail_ms.beyond", "count", "higher"),
    // Fidelity to the published tables (simulated time, campaign).
    ("fidelity.speedup_mape_pct", "%", "lower"),
    ("fidelity.contention_mae_pp", "pp", "lower"),
    // Outright failures over attempts.
    ("fail_ratio", "ratio", "lower"),
    // Self time per layer from the spans (span time minus children).
    ("trace.self_s.bench", "s", "lower"),
    ("trace.self_s.core", "s", "lower"),
    ("trace.self_s.sim", "s", "lower"),
    ("trace.self_s.hw", "s", "lower"),
    ("trace.self_s.rtl", "s", "lower"),
    ("trace.self_s.cache", "s", "lower"),
    ("trace.self_s.serve", "s", "lower"),
    ("trace.self_s.loadgen", "s", "lower"),
    ("trace.self_s.report", "s", "lower"),
    ("trace.spans", "count", "higher"),
    // Traced minus untraced headline, as a share of untraced.
    ("trace.overhead_pct", "%", "lower"),
    ("trace.headline_ms", "ms", "lower"),
];

/// (unit, better) of a declared metric.
fn declared(name: &str) -> Option<(&'static str, &'static str)> {
    END_TO_END
        .iter()
        .map(|&(n, u, b, _)| (n, u, b))
        .chain(PER_LAYER.iter().copied())
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, b)| (u, b))
}

fn unit_of(name: &str) -> Option<&'static str> {
    declared(name).map(|(u, _)| u)
}

/// A run's results: the correctness verdict, operation counts and
/// metric values by name.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<&'static str, f64>,
    /// Why the run is not correct, one line each.
    pub problems: Vec<String>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Sets a metric; the name must be one of the declared metrics.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(unit_of(name).is_some(), "undeclared metric {name}");
        self.values.insert(name, value);
    }

    /// Records a failed correctness check.
    pub fn problem(&mut self, what: String) {
        self.correct = false;
        self.problems.push(what);
    }

    /// The result line: `names` (all of them declared) with their
    /// values; an unset metric reads 0.
    pub fn json_line(&self, names: &[&'static str]) -> String {
        let mut m = String::new();
        for (i, name) in names.iter().enumerate() {
            let unit = unit_of(name).expect("declared metric");
            let v = self.values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            if i > 0 {
                m.push(',');
            }
            let _ = write!(m, "\"{name}\":{{\"value\":{v:?},\"unit\":\"{unit}\"}}");
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{m}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Human-readable lines: every set metric by name, value, unit and
    /// which direction is better.
    pub fn print_table(&self) {
        for (name, v) in &self.values {
            let (unit, better) = declared(name).expect("only declared metrics are set");
            println!("{name:<32} {v:>18.6} {unit:<9} {better} is better");
        }
        for p in &self.problems {
            println!("CHECK FAILED: {p}");
        }
    }
}

/// `BENCHMARK.json` as the benchmark declares it.
pub fn manifest() -> String {
    let mut e2e = Vec::new();
    for (name, unit, better, bound) in END_TO_END {
        e2e.push(format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}"
        ));
    }
    let mut layer = Vec::new();
    for (name, unit, better) in PER_LAYER {
        layer.push(format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}"
        ));
    }
    let mut workloads = Vec::new();
    for (name, why) in crate::WORKLOADS {
        workloads.push(format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}"));
    }
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"perfbench\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        crate::COMMAND
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", "),
        crate::RUN_SECONDS,
        workloads.join(",\n"),
        e2e.join(",\n"),
        layer.join(",\n"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(committed, manifest(), "regenerate with `--print-manifest`");
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric name");
        for name in names {
            assert!(name.len() <= 64);
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
    }

    #[test]
    fn result_line_carries_every_named_metric() {
        let mut r = Report::new();
        r.attempted = 3;
        r.set("setup_s", 0.5);
        let line = r.json_line(&["setup_s", "wall_s"]);
        assert_eq!(
            line,
            "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":{\"setup_s\":{\"value\":0.5,\"unit\":\"s\"},\"wall_s\":{\"value\":0.0,\"unit\":\"s\"}}}"
        );
        r.problem("mismatch".into());
        assert!(r.json_line(&[]).starts_with("{\"correct\":false"));
    }
}
