//! Rendering a campaign result as the service's reply body.
//!
//! The body is deterministic by construction: every field derives from
//! the measured [`RunResult`] (itself deterministic for a fixed spec)
//! and fields are emitted in a fixed order by the workspace's ordered
//! JSON writer. No wall-clock, host, or cache-traffic value appears —
//! that is what makes a warm (cache-hit) reply byte-identical to the
//! cold reply for the same spec, which `tests/serve_api.rs` asserts.
//!
//! The `key` is the run's content address in the cache
//! ([`cedar_core::cache::run_key`]); the `fingerprint` hashes the full
//! cacheable measurement payload, so any change to any measured number
//! shows up even if a client only compares one field.

use cedar_core::cache::{run_key, to_cached};
use cedar_core::{RunResult, TelemetryLevel};
use cedar_obs::json::{self, Obj};
use cedar_xylem::accounting::Category;

use crate::spec::CampaignSpec;

/// The run's measurement fingerprint: FNV-1a over the cacheable payload
/// with the three `stats.*_ns` wall-clock lines dropped. Those are the
/// only nondeterministic bytes in [`CachedRun::encode`]
/// (`crates/cache/src/record.rs`) — everything else is measurement, so
/// the same spec fingerprints identically whether it ran here, in the
/// library, or replayed from the cache. The kept lines are hashed as
/// they stream past, `\n`-joined (no trailing separator).
pub fn measurement_fingerprint(result: &RunResult) -> u64 {
    let encoded = to_cached(result).encode();
    let kept = encoded.lines().filter(|l| {
        let field = l.split_whitespace().next().unwrap_or("");
        !matches!(
            field,
            "stats.setup_ns" | "stats.run_ns" | "stats.breakdown_ns"
        )
    });
    let mut h = json::FNV_BASIS;
    for (i, line) in kept.enumerate() {
        if i > 0 {
            h = json::fnv1a_from(h, b"\n");
        }
        h = json::fnv1a_from(h, line.as_bytes());
    }
    h
}

/// Renders the reply body for one executed campaign.
pub fn render(spec: &CampaignSpec, result: &RunResult) -> String {
    let key = run_key(&spec.workload(), &spec.sim_config());

    let mut breakdown = Obj::new();
    for (name, cat) in [
        ("user", Category::User),
        ("system", Category::System),
        ("interrupt", Category::Interrupt),
        ("spin", Category::Spin),
    ] {
        breakdown.f64(name, result.os_category_fraction(cat));
    }

    let mut overheads = Obj::new();
    overheads
        .f64("os_total", result.os_overhead_fraction())
        .f64(
            "parallelization_main",
            result.main_parallelization_fraction(),
        );

    // Hex, not a JSON number: a 64-bit hash exceeds f64's 53-bit
    // integer range, so a numeric field would not survive a parse
    // round-trip.
    let mut o = Obj::new();
    o.str("key", &key.hex())
        .str(
            "fingerprint",
            &format!("{:016x}", measurement_fingerprint(result)),
        )
        .str("app", result.app)
        .str("configuration", result.configuration.label())
        .u64("processors", u64::from(result.configuration.total_ces()))
        .str("scheduler", spec.scheduler.as_str())
        .u64("fault_level", u64::from(spec.fault_level))
        .u64("shrink", u64::from(spec.shrink))
        .u64("completion_time", result.completion_time.0)
        .f64("ct_seconds", result.ct_seconds())
        .raw("breakdown", breakdown.finish())
        .raw("overheads", overheads.finish())
        .u64("bodies", result.bodies)
        .u64("events", result.events);
    if spec.telemetry == TelemetryLevel::Full {
        // The counter rollup is deterministic (unlike the *_ns phase
        // wall-clocks, which are deliberately excluded).
        let mut counters = Obj::new();
        for (name, value) in result.stats.counters.iter() {
            counters.u64(name, value);
        }
        o.raw("counters", counters.finish());
    }
    o.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_cache::CachedRun;
    use cedar_core::cache::from_cached;
    use cedar_core::Experiment;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::from_json(r#"{"app":"FLO52","processors":4,"shrink":64}"#).unwrap()
    }

    #[test]
    fn reply_is_ordered_parseable_and_wall_clock_free() {
        let spec = tiny_spec();
        let result = Experiment::new(spec.workload(), spec.sim_config()).run();
        let body = render(&spec, &result);
        let parsed = json::parse(&body).unwrap();
        assert_eq!(parsed.get("app").unwrap().as_str(), Some("FLO52"));
        assert_eq!(parsed.get("processors").unwrap().as_u64(), Some(4));
        assert_eq!(
            parsed.get("completion_time").unwrap().as_u64(),
            Some(result.completion_time.0)
        );
        assert!(parsed.get("breakdown").unwrap().get("user").is_some());
        assert!(!body.contains("_ns"), "no wall-clock leaks: {body}");
        assert!(parsed.get("counters").is_none(), "summary omits counters");
    }

    #[test]
    fn replay_from_the_cache_renders_byte_identically() {
        let spec = tiny_spec();
        let direct = Experiment::new(spec.workload(), spec.sim_config()).run();
        let replayed =
            from_cached(CachedRun::decode(&to_cached(&direct).encode()).expect("decode"));
        assert_eq!(render(&spec, &direct), render(&spec, &replayed));
    }

    #[test]
    fn fingerprint_ignores_wall_clock_but_not_measurements() {
        let spec = tiny_spec();
        // Two independent executions: identical measurements, different
        // host wall-clocks — the fingerprint must not see the latter.
        let a = Experiment::new(spec.workload(), spec.sim_config()).run();
        let b = Experiment::new(spec.workload(), spec.sim_config()).run();
        assert_eq!(measurement_fingerprint(&a), measurement_fingerprint(&b));

        let other =
            CampaignSpec::from_json(r#"{"app":"FLO52","processors":8,"shrink":64}"#).unwrap();
        let c = Experiment::new(other.workload(), other.sim_config()).run();
        assert_ne!(
            measurement_fingerprint(&a),
            measurement_fingerprint(&c),
            "a different configuration must re-fingerprint"
        );
    }

    #[test]
    fn full_telemetry_adds_the_counter_rollup() {
        let spec = CampaignSpec::from_json(
            r#"{"app":"FLO52","processors":4,"shrink":64,"telemetry":"full"}"#,
        )
        .unwrap();
        let result = Experiment::new(spec.workload(), spec.sim_config()).run();
        let body = render(&spec, &result);
        let parsed = json::parse(&body).unwrap();
        let counters = parsed.get("counters").expect("counters present");
        assert_eq!(
            counters.get("events.total").and_then(|v| v.as_u64()),
            Some(result.events)
        );
        assert!(!body.contains("_ns"), "counters stay wall-clock-free");
    }
}
