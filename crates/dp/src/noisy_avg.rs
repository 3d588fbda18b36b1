//! `NoisyAVG` — private averages of vectors (Appendix A, Algorithm 5).
//!
//! Given a multiset `V` of vectors in `R^d` that all lie within a region of
//! known diameter `Δg` (Observation A.2 allows the region to sit anywhere,
//! not only around the origin), the procedure releases a noisy average:
//!
//! 1. `m̂ = |V| + Lap(2/ε) − (2/ε)·ln(2/δ)`; output `⊥` if `m̂ ≤ 0`;
//! 2. `σ = (8Δg/(ε·m̂))·√(2 ln(8/δ))`, return `avg(V) + N(0, σ²)^d`.
//!
//! The sensitivity analysis of Appendix A shows the average of a diameter-`Δg`
//! set moves by at most `4Δg/(m+1)` in L2 when one vector is replaced, which
//! is what calibrates `σ`. `GoodCenter` calls this on the points captured in
//! the final bounding sphere `C` (step 11); the private-aggregation baseline
//! calls it on the whole dataset.

use crate::error::DpError;
use crate::sampling::{gaussian, laplace};
use privcluster_geometry::Point;
use rand::Rng;

/// Configuration of a `NoisyAVG` release.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoisyAvgConfig {
    /// ε for the release (split internally between the count and the average).
    pub epsilon: f64,
    /// δ for the release.
    pub delta: f64,
    /// A bound on the diameter of the region the input vectors live in.
    pub diameter: f64,
}

impl NoisyAvgConfig {
    /// Validates the configuration.
    pub fn new(epsilon: f64, delta: f64, diameter: f64) -> Result<Self, DpError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "epsilon must be positive, got {epsilon}"
            )));
        }
        if !(delta.is_finite() && delta > 0.0 && delta < 1.0) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "NoisyAVG requires delta in (0,1), got {delta}"
            )));
        }
        if !(diameter.is_finite() && diameter >= 0.0) {
            return Err(DpError::InvalidParameter(format!(
                "diameter bound must be non-negative, got {diameter}"
            )));
        }
        Ok(NoisyAvgConfig {
            epsilon,
            delta,
            diameter,
        })
    }
}

/// The outcome of a `NoisyAVG` release, including diagnostics used by the
/// experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct NoisyAvgOutcome {
    /// The released noisy average.
    pub average: Point,
    /// The noisy count `m̂` used to calibrate the noise.
    pub noisy_count: f64,
    /// The per-coordinate noise standard deviation that was applied.
    pub sigma: f64,
}

/// Runs Algorithm 5 (`NoisyAVG`) on `points`, all of which are promised to
/// lie in a region of diameter at most `config.diameter` centred anywhere
/// (the `reference` point is subtracted before averaging and added back, per
/// Observation A.2, so the magnitude of the coordinates does not leak).
///
/// Returns `Err(DpError::NoOutput)` for the `⊥` outcome.
///
/// The `dim` argument makes the output dimension explicit so that the empty
/// multiset is handled without panicking (it yields `⊥` almost surely, and
/// with the remaining probability a noisy origin-centred vector, exactly as
/// in the paper).
pub fn noisy_average<R: Rng + ?Sized>(
    points: &[Point],
    dim: usize,
    reference: &Point,
    config: &NoisyAvgConfig,
    rng: &mut R,
) -> Result<NoisyAvgOutcome, DpError> {
    if reference.dim() != dim {
        return Err(DpError::Geometry(
            privcluster_geometry::GeometryError::DimensionMismatch {
                expected: dim,
                actual: reference.dim(),
            },
        ));
    }
    if let Some(bad) = points.iter().find(|p| p.dim() != dim) {
        return Err(DpError::Geometry(
            privcluster_geometry::GeometryError::DimensionMismatch {
                expected: dim,
                actual: bad.dim(),
            },
        ));
    }
    let eps = config.epsilon;
    let delta = config.delta;

    // Step 1: noisy, pessimistically shifted count.
    let m = points.len() as f64;
    let m_hat = m + laplace(rng, 2.0 / eps) - (2.0 / eps) * (2.0 / delta).ln();
    if m_hat <= 0.0 {
        return Err(DpError::NoOutput);
    }

    // Step 2: noisy average. Work in coordinates relative to `reference` so
    // the Δg bound applies (Observation A.2).
    let mut avg = Point::origin(dim);
    if !points.is_empty() {
        for p in points {
            avg.axpy(1.0 / m, &p.sub(reference));
        }
    }
    let sigma = 8.0 * config.diameter / (eps * m_hat) * (2.0 * (8.0 / delta).ln()).sqrt();
    let mut noisy = reference.clone();
    for i in 0..dim {
        noisy[i] += avg[i] + gaussian(rng, sigma);
    }
    Ok(NoisyAvgOutcome {
        average: noisy,
        noisy_count: m_hat,
        sigma,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cluster(center: &[f64], spread: f64, count: usize) -> Vec<Point> {
        (0..count)
            .map(|i| {
                Point::new(
                    center
                        .iter()
                        .enumerate()
                        .map(|(j, c)| c + spread * (((i + j) % 7) as f64 / 7.0 - 0.5))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn config_validation() {
        assert!(NoisyAvgConfig::new(0.0, 0.1, 1.0).is_err());
        assert!(NoisyAvgConfig::new(1.0, 0.0, 1.0).is_err());
        assert!(NoisyAvgConfig::new(1.0, 1.0, 1.0).is_err());
        assert!(NoisyAvgConfig::new(1.0, 0.1, -1.0).is_err());
        assert!(NoisyAvgConfig::new(1.0, 0.1, 1.0).is_ok());
    }

    #[test]
    fn large_sets_give_accurate_averages() {
        let mut rng = StdRng::seed_from_u64(1);
        let center = [5.0, -3.0, 0.5];
        let pts = cluster(&center, 0.5, 5_000);
        let cfg = NoisyAvgConfig::new(1.0, 1e-6, 1.0).unwrap();
        let reference = Point::new(center.to_vec());
        let out = noisy_average(&pts, 3, &reference, &cfg, &mut rng).unwrap();
        let exact = {
            let mut acc = Point::origin(3);
            for p in &pts {
                acc.axpy(1.0 / pts.len() as f64, p);
            }
            acc
        };
        assert!(
            out.average.distance(&exact) < 0.2,
            "noisy average too far: {:?} vs {:?}",
            out.average.coords(),
            exact.coords()
        );
        assert!(out.noisy_count > 4_000.0);
        assert!(out.sigma < 0.05);
    }

    #[test]
    fn small_sets_yield_bottom() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = NoisyAvgConfig::new(0.5, 1e-9, 1.0).unwrap();
        // (2/ε) ln(2/δ) ≈ 86, so a set of 3 points is rejected (⊥) essentially
        // always.
        let pts = cluster(&[0.0], 0.1, 3);
        let mut bottoms = 0;
        for _ in 0..100 {
            if matches!(
                noisy_average(&pts, 1, &Point::origin(1), &cfg, &mut rng),
                Err(DpError::NoOutput)
            ) {
                bottoms += 1;
            }
        }
        assert_eq!(bottoms, 100);
    }

    #[test]
    fn empty_input_is_handled() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = NoisyAvgConfig::new(1.0, 1e-6, 1.0).unwrap();
        let res = noisy_average(&[], 2, &Point::origin(2), &cfg, &mut rng);
        assert!(matches!(res, Err(DpError::NoOutput)));
    }

    #[test]
    fn dimension_mismatches_are_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = NoisyAvgConfig::new(1.0, 1e-6, 1.0).unwrap();
        let pts = vec![Point::origin(3)];
        assert!(noisy_average(&pts, 2, &Point::origin(2), &cfg, &mut rng).is_err());
        assert!(noisy_average(&pts, 3, &Point::origin(2), &cfg, &mut rng).is_err());
    }

    #[test]
    fn noise_scales_inversely_with_set_size() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = NoisyAvgConfig::new(1.0, 1e-6, 1.0).unwrap();
        let small = cluster(&[0.0, 0.0], 0.5, 200);
        let large = cluster(&[0.0, 0.0], 0.5, 20_000);
        let s = noisy_average(&small, 2, &Point::origin(2), &cfg, &mut rng).unwrap();
        let l = noisy_average(&large, 2, &Point::origin(2), &cfg, &mut rng).unwrap();
        assert!(l.sigma < s.sigma / 10.0);
    }

    #[test]
    fn sensitivity_bound_of_appendix_a_holds_on_examples() {
        // ‖avg(V) − avg(V ∪ {u})‖ ≤ 2Δg/(m+1) for vectors in a ball of
        // diameter Δg. Exercise the bound on a few concrete sets.
        let base: Vec<Point> = cluster(&[1.0, 1.0], 1.0, 50);
        let diameter = 1.0_f64;
        let mean = |v: &[Point]| {
            let mut acc = Point::origin(2);
            for p in v {
                acc.axpy(1.0 / v.len() as f64, p);
            }
            acc
        };
        let m0 = mean(&base);
        for extra in cluster(&[1.0, 1.0], 1.0, 5) {
            let mut ext = base.clone();
            ext.push(extra);
            let m1 = mean(&ext);
            let bound = 2.0 * diameter / (base.len() as f64 + 1.0);
            assert!(
                m0.distance(&m1) <= bound + 1e-12,
                "moved {} > bound {bound}",
                m0.distance(&m1)
            );
        }
    }
}
