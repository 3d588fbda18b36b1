//! Lock-free metric primitives: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Every recording operation is a handful of atomic instructions — no
//! mutexes, no allocation — so instrumenting an admission path costs
//! nanoseconds and can never block it. Snapshots read the same atomics;
//! a histogram snapshot derives its total count from the bucket counts it
//! just read, so `count == Σ buckets` holds even while writers race it
//! (sum-consistency).

use std::sync::atomic::{AtomicU64, Ordering};

/// Default latency bucket upper bounds, in seconds: 1 µs to 10 s, one
/// decade per bucket (plus the implicit `+Inf` bucket).
pub const LATENCY_SECONDS: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0];

/// Bucket upper bounds for small-count distributions (group-commit batch
/// sizes): powers of two from 1 to 128 (plus the implicit `+Inf` bucket).
pub const BATCH_SIZE: &[f64] = &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0];

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a last-write-wins `f64`, stored as its bit pattern in an
/// `AtomicU64` so reads and writes stay lock-free.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// A fixed-bucket histogram of `f64` observations (cumulative-bucket
/// semantics at snapshot/render time, per-bucket atomics internally).
///
/// Boundaries are upper bounds, strictly increasing and finite; the final
/// `+Inf` bucket is implicit. Observing is two atomic adds plus one CAS
/// loop for the running sum — still lock-free.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per boundary plus the `+Inf` slot.
    buckets: Vec<AtomicU64>,
    /// Running sum of observations, as `f64` bits.
    sum_bits: AtomicU64,
}

/// A point-in-time read of a [`Histogram`].
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// The configured upper bounds (the `+Inf` bucket is implicit).
    pub bounds: Vec<f64>,
    /// Per-bucket (non-cumulative) observation counts; one entry per
    /// boundary plus the final `+Inf` entry.
    pub buckets: Vec<u64>,
    /// Sum of all observations.
    pub sum: f64,
    /// Total observations — derived from `buckets` at read time, so
    /// `count == buckets.iter().sum()` holds by construction.
    pub count: u64,
}

impl Histogram {
    /// A histogram over the given upper bounds.
    ///
    /// # Panics
    ///
    /// If the bounds are empty, non-finite, or not strictly increasing —
    /// bucket layouts are compiled-in configuration, not runtime input.
    pub fn new(bounds: &[f64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.iter().all(|b| b.is_finite()),
            "histogram bounds must be finite"
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }
    }

    /// A histogram with the default [`LATENCY_SECONDS`] buckets.
    pub fn latency() -> Histogram {
        Histogram::new(LATENCY_SECONDS)
    }

    /// Records one observation. NaN observations are dropped (they have no
    /// bucket and would poison the sum forever).
    pub fn observe(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let index = self.bounds.partition_point(|&bound| bound < value);
        self.buckets[index].fetch_add(1, Ordering::Relaxed);
        let mut current = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(current) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }

    /// A point-in-time read. The total count comes from the bucket counts
    /// read here, so the snapshot is sum-consistent under concurrent
    /// writers even though the sum field may lag by in-flight observations.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count = buckets.iter().sum();
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            count,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let counter = Counter::new();
        counter.inc();
        counter.add(4);
        assert_eq!(counter.get(), 5);
        let gauge = Gauge::new();
        assert_eq!(gauge.get(), 0.0);
        gauge.set(2.5);
        assert_eq!(gauge.get(), 2.5);
        gauge.set(-1.0);
        assert_eq!(gauge.get(), -1.0);
    }

    #[test]
    fn histogram_buckets_observations() {
        let h = Histogram::new(&[0.1, 1.0]);
        for v in [0.05, 0.1, 0.5, 2.0, 1000.0] {
            h.observe(v);
        }
        h.observe(f64::NAN); // dropped
        let snap = h.snapshot();
        // `<= bound` bucketing: 0.05 and 0.1 in the first, 0.5 in the
        // second, 2.0 and 1000.0 overflow to +Inf.
        assert_eq!(snap.buckets, vec![2, 1, 2]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 1002.65).abs() < 1e-9);
    }

    #[test]
    fn concurrent_observers_stay_sum_consistent() {
        let h = std::sync::Arc::new(Histogram::latency());
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = std::sync::Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        h.observe(1e-6 * (t * 1000 + i) as f64);
                    }
                });
            }
        });
        let snap = h.snapshot();
        assert_eq!(snap.count, 4000);
        assert_eq!(snap.buckets.iter().sum::<u64>(), snap.count);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_are_rejected() {
        let _ = Histogram::new(&[1.0, 0.5]);
    }
}
