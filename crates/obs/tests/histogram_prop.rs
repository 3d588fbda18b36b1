//! Property tests for the histogram primitive: for any bucket layout and
//! any observation sequence, every bucket count equals what a naive
//! reference bucketing of the same observations produces, and the snapshot
//! stays sum-consistent (`count == Σ buckets`, `sum == Σ observations`).

use privcluster_obs::Histogram;
use proptest::prelude::*;

/// The reference model: index of the first bound `>= value`, or the +Inf
/// slot when none is.
fn naive_bucket(bounds: &[f64], value: f64) -> usize {
    bounds
        .iter()
        .position(|&bound| value <= bound)
        .unwrap_or(bounds.len())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every bucket count equals the naive per-observation bucketing of the
    /// same inputs, and the derived totals are consistent.
    #[test]
    fn bucket_counts_match_a_naive_model(
        raw_bounds in prop::collection::vec(0.001f64..100.0, 1..8),
        observations in prop::collection::vec(-10.0f64..200.0, 0..200),
    ) {
        let mut bounds = raw_bounds.clone();
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let histogram = Histogram::new(&bounds);
        let mut expected = vec![0u64; bounds.len() + 1];
        for &value in &observations {
            histogram.observe(value);
            expected[naive_bucket(&bounds, value)] += 1;
        }
        let snap = histogram.snapshot();
        prop_assert_eq!(&snap.buckets, &expected);
        prop_assert_eq!(snap.count, observations.len() as u64);
        prop_assert_eq!(snap.count, snap.buckets.iter().sum::<u64>());
        let total: f64 = observations.iter().sum();
        prop_assert!((snap.sum - total).abs() <= 1e-9 * (1.0 + total.abs()));
    }
}
