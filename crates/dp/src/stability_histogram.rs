//! Stability-based choice of a heavy set from a partition (Theorem 2.5).
//!
//! Given a partition `P` of the data universe and a dataset `S`, the task is
//! to privately name a set `p ∈ P` containing (approximately) the maximum
//! number of elements of `S`. The partition may be enormous (GoodCenter
//! partitions `R^k` into infinitely many boxes), but only bins that actually
//! contain data can ever be returned, which is what the *stability-based*
//! argument exploits: add `Lap(2/ε)` noise to the count of every non-empty
//! bin, return the bin with the largest noisy count provided that count
//! clears a threshold of order `(2/ε)·ln(1/δ)`, and output `⊥` otherwise.
//!
//! Guarantee (Theorem 2.5): if the maximum bin count `T` satisfies
//! `T ≥ (2/ε)·ln(4n/(βδ))` then with probability `1 − β` the returned bin
//! contains at least `T − (4/ε)·ln(2n/β)` elements of `S`.

use crate::error::DpError;
use crate::sampling::laplace;
use rand::Rng;
use std::collections::HashMap;

/// Parameters of a stability-histogram release.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StabilityHistogramConfig {
    /// ε of the release.
    pub epsilon: f64,
    /// δ of the release.
    pub delta: f64,
}

impl StabilityHistogramConfig {
    /// Validates the parameters.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, DpError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "epsilon must be positive, got {epsilon}"
            )));
        }
        if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "stability histogram requires delta in (0,1), got {delta}"
            )));
        }
        Ok(StabilityHistogramConfig { epsilon, delta })
    }

    /// The release threshold applied to the winning noisy count:
    /// `1 + (2/ε)·ln(2/δ)`.
    pub fn release_threshold(&self) -> f64 {
        1.0 + 2.0 / self.epsilon * (2.0 / self.delta).ln()
    }

    /// Theorem 2.5's requirement on the heaviest bin for a `1 − β` success
    /// guarantee: `T ≥ (2/ε)·ln(4n/(βδ))`.
    pub fn required_max_count(&self, n: usize, beta: f64) -> f64 {
        2.0 / self.epsilon * (4.0 * n.max(1) as f64 / (beta * self.delta)).ln()
    }

    /// Theorem 2.5's loss bound: the returned bin misses at most
    /// `(4/ε)·ln(2n/β)` of the heaviest bin's elements.
    pub fn loss_bound(&self, n: usize, beta: f64) -> f64 {
        4.0 / self.epsilon * (2.0 * n.max(1) as f64 / beta).ln()
    }
}

/// Chooses (approximately) the heaviest bin of a partition given the exact
/// per-bin counts of the *non-empty* bins. Returns the bin key and its noisy
/// count, or `Err(DpError::NoOutput)` when no bin clears the stability
/// threshold (the `⊥` outcome).
///
/// The caller must pass every non-empty bin (and may pass empty ones; they
/// are ignored). Bins draw their noise in ascending key order, so for a
/// fixed RNG stream the result does not depend on the map's hash seed; a
/// tie in noisy counts goes to the smaller key.
pub fn choose_heavy_bin<K, R>(
    counts: &HashMap<K, usize>,
    config: &StabilityHistogramConfig,
    rng: &mut R,
) -> Result<(K, f64), DpError>
where
    K: Clone + Ord,
    R: Rng + ?Sized,
{
    let threshold = config.release_threshold();
    let mut best: Option<(K, f64)> = None;
    for (key, count) in nonempty_bins_in_key_order(counts) {
        let noisy = count as f64 + laplace(rng, 2.0 / config.epsilon);
        if noisy > threshold && best.as_ref().map(|(_, b)| noisy > *b).unwrap_or(true) {
            best = Some((key.clone(), noisy));
        }
    }
    best.ok_or(DpError::NoOutput)
}

/// Releases the whole histogram: every non-empty bin whose noisy count clears
/// the stability threshold, with its noisy count. (This is the classical
/// stability-based histogram; `choose_heavy_bin` is its arg-max variant.)
/// Bins are visited, and released, in ascending key order.
pub fn release_stable_histogram<K, R>(
    counts: &HashMap<K, usize>,
    config: &StabilityHistogramConfig,
    rng: &mut R,
) -> Vec<(K, f64)>
where
    K: Clone + Ord,
    R: Rng + ?Sized,
{
    let threshold = config.release_threshold();
    let mut out = Vec::new();
    for (key, count) in nonempty_bins_in_key_order(counts) {
        let noisy = count as f64 + laplace(rng, 2.0 / config.epsilon);
        if noisy > threshold {
            out.push((key.clone(), noisy));
        }
    }
    out
}

/// The non-empty bins in ascending key order. A `HashMap` iterates in an
/// order drawn from its per-process hash seed; drawing one Laplace sample
/// per bin in that order would let the seed decide which bin gets which
/// noise, and so the released bin.
fn nonempty_bins_in_key_order<K: Ord>(counts: &HashMap<K, usize>) -> Vec<(&K, usize)> {
    let mut bins: Vec<(&K, usize)> = counts
        .iter()
        .filter(|(_, &count)| count > 0)
        .map(|(key, &count)| (key, count))
        .collect();
    bins.sort_unstable_by(|a, b| a.0.cmp(b.0));
    bins
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn counts(pairs: &[(&str, usize)]) -> HashMap<String, usize> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn config_validation_and_formulas() {
        assert!(StabilityHistogramConfig::new(0.0, 0.1).is_err());
        assert!(StabilityHistogramConfig::new(1.0, 0.0).is_err());
        assert!(StabilityHistogramConfig::new(1.0, 1.0).is_err());
        let c = StabilityHistogramConfig::new(1.0, 1e-6).unwrap();
        assert!(c.release_threshold() > 1.0);
        assert!(c.required_max_count(1000, 0.1) > c.loss_bound(1000, 0.1));
        // required count grows as δ shrinks
        let tighter = StabilityHistogramConfig::new(1.0, 1e-12).unwrap();
        assert!(tighter.required_max_count(1000, 0.1) > c.required_max_count(1000, 0.1));
    }

    #[test]
    fn heavy_bin_is_found_when_dominant() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = StabilityHistogramConfig::new(1.0, 1e-6).unwrap();
        let hist = counts(&[("heavy", 500), ("light", 3), ("medium", 40)]);
        let mut successes = 0;
        for _ in 0..200 {
            let (k, noisy) = choose_heavy_bin(&hist, &cfg, &mut rng).unwrap();
            if k == "heavy" {
                successes += 1;
            }
            assert!(noisy > cfg.release_threshold());
        }
        assert_eq!(successes, 200);
    }

    #[test]
    fn all_light_bins_yield_bottom() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = StabilityHistogramConfig::new(0.5, 1e-9).unwrap();
        // threshold ~ 1 + 4·ln(2e9) ≈ 87, counts of 2 are hopeless.
        let hist = counts(&[("a", 2), ("b", 1), ("c", 2)]);
        let mut bottoms = 0;
        for _ in 0..200 {
            if matches!(
                choose_heavy_bin(&hist, &cfg, &mut rng),
                Err(DpError::NoOutput)
            ) {
                bottoms += 1;
            }
        }
        assert!(bottoms >= 199, "bottoms = {bottoms}");
    }

    #[test]
    fn empty_and_zero_bins_are_ignored() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = StabilityHistogramConfig::new(1.0, 1e-6).unwrap();
        let empty: HashMap<String, usize> = HashMap::new();
        assert!(matches!(
            choose_heavy_bin(&empty, &cfg, &mut rng),
            Err(DpError::NoOutput)
        ));
        let zeros = counts(&[("a", 0), ("b", 0)]);
        assert!(matches!(
            choose_heavy_bin(&zeros, &cfg, &mut rng),
            Err(DpError::NoOutput)
        ));
    }

    #[test]
    fn theorem_2_5_utility_guarantee_empirically() {
        // Heaviest bin has T = required_max_count elements; the returned bin
        // should contain at least T - loss_bound elements w.p. >= 1 - β.
        let cfg = StabilityHistogramConfig::new(1.0, 1e-6).unwrap();
        let beta = 0.1;
        let n = 2000usize;
        let t = cfg.required_max_count(n, beta).ceil() as usize;
        let loss = cfg.loss_bound(n, beta);
        let hist = counts(&[
            ("winner", t),
            ("close", t.saturating_sub(loss as usize / 2)),
            ("far", t / 4),
            ("tiny", 3),
        ]);
        let mut rng = StdRng::seed_from_u64(4);
        let trials = 500;
        let mut failures = 0;
        for _ in 0..trials {
            match choose_heavy_bin(&hist, &cfg, &mut rng) {
                Ok((k, _)) => {
                    let actual = hist[&k] as f64;
                    if actual < t as f64 - loss {
                        failures += 1;
                    }
                }
                Err(_) => failures += 1,
            }
        }
        let rate = failures as f64 / trials as f64;
        assert!(rate <= beta, "failure rate {rate} exceeds β = {beta}");
    }

    #[test]
    fn release_histogram_only_outputs_heavy_bins() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = StabilityHistogramConfig::new(1.0, 1e-6).unwrap();
        let hist = counts(&[("heavy", 400), ("heavy2", 300), ("tiny", 1)]);
        let released = release_stable_histogram(&hist, &cfg, &mut rng);
        let keys: Vec<_> = released.iter().map(|(k, _)| k.clone()).collect();
        assert!(keys.contains(&"heavy".to_string()));
        assert!(keys.contains(&"heavy2".to_string()));
        assert!(!keys.contains(&"tiny".to_string()));
    }

    #[test]
    fn released_bins_do_not_depend_on_the_hash_seed() {
        use std::collections::hash_map::RandomState;
        // The same 64 bins, inserted in opposite orders into maps with two
        // independently seeded hashers, so their iteration orders differ.
        let bins: Vec<(Vec<i64>, usize)> = (0..64i64)
            .map(|i| (vec![i % 8, i / 8], 40 + (i as usize * 37) % 23))
            .collect();
        let mut first: HashMap<Vec<i64>, usize> = HashMap::with_hasher(RandomState::new());
        let mut second: HashMap<Vec<i64>, usize> = HashMap::with_hasher(RandomState::new());
        for (key, count) in &bins {
            first.insert(key.clone(), *count);
        }
        for (key, count) in bins.iter().rev() {
            second.insert(key.clone(), *count);
        }
        let cfg = StabilityHistogramConfig::new(0.5, 1e-6).unwrap();
        for seed in 0..32 {
            let a = choose_heavy_bin(&first, &cfg, &mut StdRng::seed_from_u64(seed));
            let b = choose_heavy_bin(&second, &cfg, &mut StdRng::seed_from_u64(seed));
            match (a, b) {
                (Ok((ka, na)), Ok((kb, nb))) => {
                    assert_eq!(ka, kb, "seed {seed}");
                    assert_eq!(na.to_bits(), nb.to_bits(), "seed {seed}");
                }
                (Err(_), Err(_)) => {}
                other => panic!("seed {seed}: outcomes differ: {other:?}"),
            }
            let bits = |released: Vec<(Vec<i64>, f64)>| -> Vec<(Vec<i64>, u64)> {
                released
                    .into_iter()
                    .map(|(k, v)| (k, v.to_bits()))
                    .collect()
            };
            assert_eq!(
                bits(release_stable_histogram(
                    &first,
                    &cfg,
                    &mut StdRng::seed_from_u64(seed)
                )),
                bits(release_stable_histogram(
                    &second,
                    &cfg,
                    &mut StdRng::seed_from_u64(seed)
                )),
                "seed {seed}"
            );
        }
    }
}
