//! Batched per-call timers that the timer itself cannot dominate.
//!
//! A single call into a layer (a queue hold, a module serve) takes tens
//! of nanoseconds, about what reading the clock costs. So the timer
//! first grows an inner batch until one timed sample takes at least
//! [`MIN_SAMPLE`], then reports the median over samples of the sample
//! time divided by the batch, together with the batch size.

use std::time::{Duration, Instant};

/// The shortest a timed sample may be.
pub const MIN_SAMPLE: Duration = Duration::from_micros(10);

/// A calibrated per-call cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerOp {
    /// Median nanoseconds per call.
    pub ns: f64,
    /// Calls per timed sample.
    pub batch: u64,
    /// Samples taken.
    pub samples: usize,
}

/// The smallest power-of-two batch of `op` calls that takes at least
/// `min`, given how long a batch of each size takes.
pub fn calibrate(min: Duration, mut batch_time: impl FnMut(u64) -> Duration) -> u64 {
    let mut batch = 1u64;
    while batch < 1 << 30 && batch_time(batch) < min {
        batch *= 2;
    }
    batch
}

/// Times `op` (called with a running call index) in calibrated
/// batches: `samples` samples, each of `batch` calls.
pub fn per_op(samples: usize, mut op: impl FnMut(u64)) -> PerOp {
    let mut calls = 0u64;
    let mut run = |n: u64| {
        let t = Instant::now();
        for _ in 0..n {
            op(calls);
            calls += 1;
        }
        t.elapsed()
    };
    let batch = calibrate(MIN_SAMPLE, &mut run);
    let mut per: Vec<f64> = (0..samples.max(1))
        .map(|_| run(batch).as_nanos() as f64 / batch as f64)
        .collect();
    per.sort_by(f64::total_cmp);
    PerOp {
        ns: per[per.len() / 2],
        batch,
        samples: per.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_doubles_until_a_sample_is_long_enough() {
        // A call costs 300 ns: 32 calls = 9.6 µs is short, 64 is not.
        let batch = calibrate(MIN_SAMPLE, |n| Duration::from_nanos(300 * n));
        assert_eq!(batch, 64);
        // A call longer than the minimum needs no batching.
        assert_eq!(calibrate(MIN_SAMPLE, |_| Duration::from_millis(1)), 1);
    }

    #[test]
    fn per_op_reports_cost_per_call_not_per_sample() {
        let spin = |_| {
            let t = Instant::now();
            while t.elapsed() < Duration::from_micros(2) {}
        };
        let r = per_op(5, spin);
        assert!(r.batch >= 4, "2 µs calls batch to ≥10 µs: {r:?}");
        assert!(r.ns >= 2_000.0 && r.ns < 20_000.0, "{r:?}");
        assert_eq!(r.samples, 5);
    }
}
