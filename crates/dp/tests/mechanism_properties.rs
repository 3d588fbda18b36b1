//! Property-based tests of the DP mechanism substrate.

use privcluster_dp::composition::{advanced_composition, basic_composition};
use privcluster_dp::exponential::{
    exponential_mechanism, piecewise_exponential_mechanism, PiecewiseQuality, Segment,
};
use privcluster_dp::quasiconcave::{solve_quasiconcave, QcSolverConfig, SliceOracle};
use privcluster_dp::sampling::{gaussian, laplace};
use privcluster_dp::sparse_vector::AboveThreshold;
use privcluster_dp::stability_histogram::{choose_heavy_bin, StabilityHistogramConfig};
use privcluster_dp::PrivacyParams;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The exponential mechanism always returns a valid index, for any
    /// finite quality vector and any positive parameters.
    #[test]
    fn exponential_mechanism_returns_valid_indices(
        qualities in prop::collection::vec(-100.0f64..100.0, 1..50),
        epsilon in 0.01f64..10.0,
        sensitivity in 0.1f64..5.0,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = exponential_mechanism(&qualities, epsilon, sensitivity, &mut rng).unwrap();
        prop_assert!(idx < qualities.len());
    }

    /// The piecewise mechanism returns indices inside the declared domain and
    /// its quality lookup agrees with the segment definition.
    #[test]
    fn piecewise_mechanism_respects_its_domain(
        lens in prop::collection::vec(1u64..500, 1..20),
        qualities_raw in prop::collection::vec(-50.0f64..50.0, 20),
        seed in 0u64..1000,
    ) {
        let mut segments = Vec::new();
        let mut start = 0u64;
        for (i, &len) in lens.iter().enumerate() {
            segments.push(Segment { start, len, quality: qualities_raw[i % qualities_raw.len()] });
            start += len;
        }
        let pw = PiecewiseQuality::new(segments.clone()).unwrap();
        prop_assert_eq!(pw.domain_len(), start);
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = piecewise_exponential_mechanism(&pw, 1.0, 1.0, &mut rng).unwrap();
        prop_assert!(idx < start);
        // the quality at the sampled index matches its segment's quality
        let seg = segments.iter().find(|s| idx >= s.start && idx < s.start + s.len).unwrap();
        prop_assert_eq!(pw.quality_at(idx), Some(seg.quality));
    }

    /// Laplace and Gaussian samples are finite for any valid scale.
    #[test]
    fn samplers_produce_finite_values(scale in 0.001f64..1000.0, seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        prop_assert!(laplace(&mut rng, scale).is_finite());
        prop_assert!(gaussian(&mut rng, scale).is_finite());
    }

    /// Advanced composition never reports a smaller ε than a single use and
    /// never exceeds basic composition by construction of the theorem's
    /// formula for small per-mechanism ε.
    #[test]
    fn composition_orderings(
        eps in 0.001f64..0.05,
        k in 2usize..200,
        delta_prime in 1e-9f64..1e-3,
    ) {
        let per = PrivacyParams::pure(eps).unwrap();
        let adv = advanced_composition(per, k, delta_prime).unwrap();
        let basic = basic_composition(&vec![per; k]).unwrap();
        prop_assert!(adv.epsilon() >= eps);
        // For small ε and large k the advanced bound beats the linear one.
        if k >= 100 {
            prop_assert!(adv.epsilon() <= basic.epsilon() + 1e-9);
        }
    }

    /// The stability histogram never returns an empty or zero-count bin, and
    /// any returned noisy count clears the release threshold.
    #[test]
    fn stability_histogram_respects_threshold(
        counts in prop::collection::vec(0usize..2000, 1..40),
        epsilon in 0.1f64..5.0,
        seed in 0u64..500,
    ) {
        let map: HashMap<usize, usize> = counts.iter().cloned().enumerate().collect();
        let cfg = StabilityHistogramConfig::new(epsilon, 1e-6).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        // ⊥ (an Err) is always an acceptable outcome.
        if let Ok((key, noisy)) = choose_heavy_bin(&map, &cfg, &mut rng) {
            prop_assert!(map[&key] > 0);
            prop_assert!(noisy > cfg.release_threshold());
        }
    }

    /// AboveThreshold answers exactly one ⊤ and then refuses further queries.
    #[test]
    fn sparse_vector_halts_exactly_once(
        values in prop::collection::vec(-50.0f64..50.0, 1..60),
        threshold in -20.0f64..20.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut svt = AboveThreshold::new(1.0, threshold, &mut rng).unwrap();
        let mut tops = 0;
        for &v in &values {
            if svt.halted() {
                prop_assert!(svt.query(v, &mut rng).is_err());
                break;
            }
            if svt.query(v, &mut rng).unwrap() == privcluster_dp::sparse_vector::SvtAnswer::Above {
                tops += 1;
            }
        }
        prop_assert!(tops <= 1);
    }

    /// The quasi-concave solver returns an in-range index whose quality is
    /// never absurdly far from the maximum (within the error bound scaled by
    /// a generous constant), for triangular (quasi-concave) qualities.
    #[test]
    fn quasiconcave_solver_stays_near_the_peak(
        len in 10u64..400,
        peak_frac in 0.0f64..1.0,
        seed in 0u64..300,
    ) {
        let peak = ((len - 1) as f64 * peak_frac) as u64;
        let qualities: Vec<f64> = (0..len)
            .map(|i| 1000.0 - (i as f64 - peak as f64).abs())
            .collect();
        let oracle = SliceOracle::new(qualities.clone());
        let cfg = QcSolverConfig::new(2.0, 0.0, 0.5, 0.05).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let idx = solve_quasiconcave(&oracle, &cfg, &mut rng).unwrap();
        prop_assert!(idx < len);
        let bound = 20.0 * cfg.required_promise(len);
        prop_assert!(qualities[idx as usize] >= 1000.0 - bound);
    }
}

/// Deterministic regression: the piecewise mechanism and the materialized
/// mechanism sample from the same support for a fixed seed sweep.
#[test]
fn piecewise_and_plain_mechanisms_share_support() {
    let segment = |start, quality| Segment {
        start,
        len: 3,
        quality,
    };
    let pw =
        PiecewiseQuality::new(vec![segment(0, 0.0), segment(3, 10.0), segment(6, 0.0)]).unwrap();
    let materialized: Vec<f64> = (0..9).map(|i| pw.quality_at(i).unwrap()).collect();
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..200 {
        let a = piecewise_exponential_mechanism(&pw, 2.0, 1.0, &mut rng).unwrap();
        let b = exponential_mechanism(&materialized, 2.0, 1.0, &mut rng).unwrap() as u64;
        assert!(a < 9 && b < 9);
    }
}
