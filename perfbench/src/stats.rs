//! The benchmark's own arithmetic: medians, percentiles, the tail
//! percentile the report quotes, and the rate-ladder verdict.

/// Linear-interpolation percentile (`p` in 0..=100) of unsorted
/// samples; `None` when there are none.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    Some(percentile_sorted(&v, p))
}

fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of unsorted samples; 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The tail the report quotes: the highest of a fixed percentile
/// ladder that still has at least `beyond` samples strictly above its
/// rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile chosen (e.g. 99.0).
    pub pct: f64,
    /// Its value.
    pub value: f64,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// How many samples the tail was taken over.
    pub samples: usize,
}

/// The ladder [`tail`] picks from, highest first.
const TAIL_LADDER: [f64; 7] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0];

/// Highest percentile of [`TAIL_LADDER`] with at least `beyond` samples
/// above it. A sample count too small for even the lowest rung falls
/// back to the median, so the caller always gets a number; the
/// reported `beyond` then says how thin it is.
pub fn tail(samples: &[f64], beyond: usize) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // The epsilon keeps an exact product (99.5 × 5000) from rounding up.
    let above = |pct: f64| n - (pct * n as f64 / 100.0 - 1e-9).ceil() as usize;
    let pct = TAIL_LADDER
        .into_iter()
        .find(|&p| above(p) >= beyond)
        .unwrap_or(50.0);
    Some(Tail {
        pct,
        value: percentile_sorted(&v, pct),
        beyond: above(pct),
        samples: n,
    })
}

/// Whether a rung's queue kept growing: latencies (in due order) whose
/// last quarter sits above the first quarter by more than `slack` and
/// by more than half again. A stable rung's latency does not trend
/// with time; an overloaded one's grows with every late request.
pub fn backlog_grows(latencies_in_due_order: &[f64], slack: f64) -> bool {
    let n = latencies_in_due_order.len();
    if n < 8 {
        return false;
    }
    let first = median(&latencies_in_due_order[..n / 4]);
    let last = median(&latencies_in_due_order[n - n / 4..]);
    last - first > slack && last > 1.5 * first
}

/// One rung of a rate ladder, as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Completions per second over the rung's window.
    pub achieved: f64,
    /// Tail latency, milliseconds.
    pub tail_ms: f64,
    /// Whether the backlog grew during the rung.
    pub backlog: bool,
    /// Requests that failed (any non-200, error or mismatch).
    pub failed: usize,
}

impl Rung {
    /// Whether the rung meets the latency limit without a growing
    /// backlog or failures.
    pub fn holds(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && !self.backlog && self.failed == 0
    }
}

/// The highest rung that holds, as its achieved completion rate; 0
/// when none does.
pub fn max_rate(rungs: &[Rung], limit_ms: f64) -> f64 {
    rungs
        .iter()
        .filter(|r| r.holds(limit_ms))
        .map(|r| (r.rate, r.achieved))
        .fold(None, |best: Option<(f64, f64)>, r| match best {
            Some(b) if b.0 >= r.0 => Some(b),
            _ => Some(r),
        })
        .map_or(0.0, |(_, achieved)| achieved)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert!((percentile(&v, 90.0).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_is_the_highest_rung_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.pct, 99.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.samples, 1000);
        assert!((t.value - 990.01).abs() < 1e-9);

        // 200 samples: p99 leaves 2, p95 leaves 10.
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&v, 10).unwrap().pct, 95.0);

        // 5000 samples: p99.9 leaves only 5, p99.5 leaves 25.
        let v: Vec<f64> = (1..=5000).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!((t.pct, t.beyond), (99.5, 25));
    }

    #[test]
    fn tail_of_a_thin_sample_falls_back_to_the_median() {
        let v = [1.0, 2.0, 3.0];
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.pct, 50.0);
        assert_eq!(t.value, 2.0);
        assert_eq!(t.beyond, 1);
        assert_eq!(tail(&[], 10), None);
    }

    #[test]
    fn backlog_detection_sees_a_trend_not_noise() {
        let flat: Vec<f64> = (0..400).map(|i| 1.0 + (i % 7) as f64 * 0.1).collect();
        assert!(!backlog_grows(&flat, 2.5));
        let growing: Vec<f64> = (0..400).map(|i| 1.0 + i as f64 * 0.5).collect();
        assert!(backlog_grows(&growing, 2.5));
        // A rise smaller than the slack is not a backlog.
        let gentle: Vec<f64> = (0..400).map(|i| 1.0 + i as f64 * 0.001).collect();
        assert!(!backlog_grows(&gentle, 2.5));
        assert!(!backlog_grows(&[1.0, 100.0], 2.5), "too few samples");
    }

    #[test]
    fn max_rate_is_the_highest_rung_that_holds() {
        let rung = |rate: f64, tail_ms: f64, backlog: bool| Rung {
            rate,
            achieved: rate * 0.99,
            tail_ms,
            backlog,
            failed: 0,
        };
        let rungs = [
            rung(20.0, 0.5, false),
            rung(40.0, 44.0, false), // timer stall: misses the limit
            rung(80.0, 3.0, false),
            rung(160.0, 2.0, true), // backlog grows
            rung(320.0, 90.0, true),
        ];
        assert!((max_rate(&rungs, 5.0) - 79.2).abs() < 1e-9);
        let failing = Rung {
            failed: 1,
            ..rung(640.0, 1.0, false)
        };
        assert!(!failing.holds(5.0));
        assert_eq!(max_rate(&rungs[1..2], 5.0), 0.0);
    }
}
