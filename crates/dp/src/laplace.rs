//! The Laplace mechanism (Theorem 2.3).
//!
//! For a function `f : U* → R^d` of L1-sensitivity `k`, adding independent
//! `Lap(k/ε)` noise to every coordinate is `(ε, 0)`-differentially private.
//! GoodRadius uses it for the noisy cluster-of-radius-zero test (step 2), the
//! sparse-vector technique uses it internally, and all the counting queries
//! in the baselines go through it.

use crate::error::DpError;
use crate::sampling::laplace;
use rand::Rng;

/// The Laplace mechanism for releases of L1-sensitivity `sensitivity` under
/// ε-differential privacy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LaplaceMechanism {
    epsilon: f64,
    sensitivity: f64,
}

impl LaplaceMechanism {
    /// Creates a mechanism; `epsilon` and `sensitivity` must be positive.
    pub fn new(epsilon: f64, sensitivity: f64) -> Result<Self, DpError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "epsilon must be positive, got {epsilon}"
            )));
        }
        if !(sensitivity.is_finite() && sensitivity > 0.0) {
            return Err(DpError::InvalidParameter(format!(
                "sensitivity must be positive, got {sensitivity}"
            )));
        }
        Ok(LaplaceMechanism {
            epsilon,
            sensitivity,
        })
    }

    /// Convenience constructor for counting queries (sensitivity 1).
    pub fn for_count(epsilon: f64) -> Result<Self, DpError> {
        Self::new(epsilon, 1.0)
    }

    /// The ε of this mechanism.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// The noise scale `b = sensitivity / ε`.
    pub fn scale(&self) -> f64 {
        self.sensitivity / self.epsilon
    }

    /// Releases a single scalar.
    pub fn release<R: Rng + ?Sized>(&self, value: f64, rng: &mut R) -> f64 {
        value + laplace(rng, self.scale())
    }

    /// Releases an integer count as a noisy real.
    pub fn release_count<R: Rng + ?Sized>(&self, count: usize, rng: &mut R) -> f64 {
        self.release(count as f64, rng)
    }

    /// With probability at least `1 − β` the additive error of a single
    /// release is below this bound: `(sensitivity/ε)·ln(1/β)`.
    pub fn error_bound(&self, beta: f64) -> f64 {
        self.scale() * (1.0 / beta).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_validation() {
        assert!(LaplaceMechanism::new(0.0, 1.0).is_err());
        assert!(LaplaceMechanism::new(1.0, 0.0).is_err());
        assert!(LaplaceMechanism::new(f64::NAN, 1.0).is_err());
        let m = LaplaceMechanism::new(0.5, 2.0).unwrap();
        assert_eq!(m.scale(), 4.0);
        assert_eq!(m.epsilon(), 0.5);
        assert_eq!(LaplaceMechanism::for_count(1.0).unwrap().scale(), 1.0);
    }

    #[test]
    fn release_is_centered_on_true_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = LaplaceMechanism::for_count(1.0).unwrap();
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| m.release(10.0, &mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn error_bound_holds_empirically() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = LaplaceMechanism::for_count(0.5).unwrap();
        let beta = 0.05;
        let bound = m.error_bound(beta);
        let n = 50_000;
        let violations = (0..n)
            .filter(|_| (m.release(0.0, &mut rng)).abs() > bound)
            .count() as f64
            / n as f64;
        // P(|Lap(b)| > b ln(1/β)) = β exactly; allow sampling slack.
        assert!(
            (violations - beta).abs() < 0.01,
            "violations = {violations}"
        );
    }

    #[test]
    fn release_count_is_near_the_count() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = LaplaceMechanism::for_count(10.0).unwrap();
        let c = m.release_count(7, &mut rng);
        assert!((c - 7.0).abs() < 5.0);
    }

    /// Statistical privacy smoke test: empirically bound the likelihood ratio
    /// of observing the same discretized output under two neighbouring counts
    /// (true count 10 vs 11, sensitivity 1). For an ε-DP mechanism the ratio
    /// of bin probabilities must not exceed e^ε by much more than sampling
    /// noise allows.
    #[test]
    fn likelihood_ratio_smoke_test() {
        let eps = 1.0;
        let m = LaplaceMechanism::for_count(eps).unwrap();
        let n = 400_000usize;
        let bin = |x: f64| -> i64 { (x * 2.0).floor() as i64 };
        let mut hist_a = std::collections::HashMap::new();
        let mut hist_b = std::collections::HashMap::new();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..n {
            *hist_a
                .entry(bin(m.release(10.0, &mut rng)))
                .or_insert(0usize) += 1;
            *hist_b
                .entry(bin(m.release(11.0, &mut rng)))
                .or_insert(0usize) += 1;
        }
        let mut max_ratio: f64 = 0.0;
        for (k, &ca) in &hist_a {
            let cb = *hist_b.get(k).unwrap_or(&0);
            if ca > 500 && cb > 500 {
                let ratio = ca as f64 / cb as f64;
                max_ratio = max_ratio.max(ratio).max(1.0 / ratio);
            }
        }
        assert!(
            max_ratio < (eps + 0.25).exp(),
            "observed likelihood ratio {max_ratio} far exceeds e^ε"
        );
    }
}
