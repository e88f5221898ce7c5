//! How far the simulated campaign sits from the published tables, in
//! simulated time: the speedup error against Table 1 and the
//! contention-overhead error against Table 4.

use cedar_core::methodology::contention_overhead;
use cedar_core::suite::AppResults;
use cedar_hw::Configuration;
use cedar_report::paper;

const MULTI: [Configuration; 4] = [
    Configuration::P4,
    Configuration::P8,
    Configuration::P16,
    Configuration::P32,
];

/// (speedup mean absolute percentage error, %; contention-overhead
/// mean absolute error, percentage points) over the 4/8/16/32p cells
/// of every published application present in `apps`.
pub fn errors(apps: &[AppResults]) -> (f64, f64) {
    let find = |name: &str| apps.iter().find(|a| a.app.eq_ignore_ascii_case(name));
    let mut speedup = Vec::new();
    for p in paper::TABLE1 {
        let Some(app) = find(p.app) else { continue };
        for (i, c) in MULTI.into_iter().enumerate() {
            let measured = app.run(c).speedup_over(app.baseline());
            speedup.push((measured - p.speedup[i]).abs() / p.speedup[i] * 100.0);
        }
    }
    let mut contention = Vec::new();
    for (name, ov) in paper::TABLE4_OV {
        let Some(app) = find(name) else { continue };
        for (i, c) in MULTI.into_iter().enumerate() {
            let measured = contention_overhead(app.baseline(), app.run(c)).overhead_pct;
            contention.push((measured - ov[i]).abs());
        }
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    (mean(&speedup), mean(&contention))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cedar_core::RunResult;
    use cedar_hw::gmem::GmemStats;
    use cedar_sim::stats::LatencyHistogram;
    use cedar_sim::Cycles;
    use cedar_trace::qmon::ClusterUtilization;
    use cedar_trace::TaskBreakdown;
    use cedar_xylem::OsAccounting;

    /// A run with only a completion time: no breakdown, so its
    /// contention estimate is 0.
    fn run(app: &'static str, configuration: Configuration, ct: u64) -> RunResult {
        RunResult {
            app,
            configuration,
            completion_time: Cycles(ct),
            breakdowns: vec![TaskBreakdown::new()],
            utilization: vec![ClusterUtilization::default()],
            os: OsAccounting::new(1),
            concurrency: vec![1.0],
            gmem: GmemStats {
                packets: 0,
                cluster_path_queued: Cycles::ZERO,
                fwd_queued: Cycles::ZERO,
                rev_queued: Cycles::ZERO,
                module_queued: Cycles::ZERO,
                module_requests: vec![],
                module_sync_requests: vec![],
                latency: LatencyHistogram::new(4),
                min_round_trip: Cycles(36),
            },
            background_stolen: Cycles::ZERO,
            bodies: 0,
            faults: (0, 0),
            events: 0,
            trace: None,
            stats: cedar_obs::RunStats::default(),
        }
    }

    /// FLO52 with completion times chosen so each speedup is `factor`
    /// times the published one.
    fn flo52(factor: f64) -> AppResults {
        let p = paper::TABLE1[0];
        let base = 1_000_000u64;
        let mut runs = vec![run("FLO52", Configuration::P1, base)];
        for (i, c) in MULTI.into_iter().enumerate() {
            let ct = (base as f64 / (p.speedup[i] * factor)).round() as u64;
            runs.push(run("FLO52", c, ct));
        }
        AppResults { app: "FLO52", runs }
    }

    #[test]
    fn exact_speedups_have_no_error() {
        let (mape, _) = errors(&[flo52(1.0)]);
        assert!(mape < 0.01, "{mape}");
    }

    #[test]
    fn speedups_ten_percent_high_read_as_ten_percent() {
        let (mape, _) = errors(&[flo52(1.1)]);
        assert!((mape - 10.0).abs() < 0.01, "{mape}");
    }

    #[test]
    fn contention_error_is_against_table4() {
        // With no breakdown the measured overhead is 0, so the error is
        // the published overhead itself: mean(17, 27, 24, 21) = 22.25.
        let (_, mae) = errors(&[flo52(1.0)]);
        assert!((mae - 22.25).abs() < 1e-9, "{mae}");
    }

    #[test]
    fn missing_applications_are_skipped() {
        assert_eq!(errors(&[]), (0.0, 0.0));
    }
}
