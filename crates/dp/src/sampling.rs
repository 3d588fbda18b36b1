//! Noise samplers.
//!
//! The allowed dependency set contains `rand` but not `rand_distr`, so the
//! Laplace, Gaussian and Gumbel samplers the mechanisms need are implemented
//! here directly (inverse-CDF for Laplace and Gumbel, Marsaglia polar for the
//! Gaussian — re-exported from the geometry crate's linear-algebra helper so
//! there is a single implementation in the workspace).

pub use privcluster_geometry::linalg::standard_normal;
use rand::Rng;

/// Samples `Lap(scale)`: density `f(y) = exp(−|y|/scale) / (2·scale)`.
///
/// # Panics
/// Panics if `scale` is not positive and finite.
pub fn laplace<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> f64 {
    assert!(
        scale.is_finite() && scale > 0.0,
        "Laplace scale must be positive and finite, got {scale}"
    );
    // Inverse CDF: u uniform in (-1/2, 1/2], Lap = -scale * sgn(u) * ln(1 - 2|u|).
    let u: f64 = rng.gen_range(-0.5..0.5);
    -scale * u.signum() * (1.0 - 2.0 * u.abs()).ln()
}

/// Samples `N(0, sigma²)`.
///
/// # Panics
/// Panics if `sigma` is negative or non-finite (zero is allowed and returns 0).
pub fn gaussian<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    assert!(
        sigma.is_finite() && sigma >= 0.0,
        "Gaussian sigma must be non-negative and finite, got {sigma}"
    );
    if sigma == 0.0 {
        return 0.0;
    }
    sigma * standard_normal(rng)
}

/// Samples a standard Gumbel variate (used for the Gumbel-max implementation
/// of the exponential mechanism, which avoids overflow when quality scores
/// are large).
pub fn gumbel<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // -ln(-ln(U)) for U uniform in (0,1). Guard against U = 0.
    let mut u: f64 = rng.gen();
    if u <= f64::MIN_POSITIVE {
        u = f64::MIN_POSITIVE;
    }
    -(-u.ln()).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn mean_and_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        (mean, var)
    }

    #[test]
    fn laplace_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let scale = 2.0;
        let xs = (0..200_000)
            .map(|_| laplace(&mut rng, scale))
            .collect::<Vec<_>>();
        let (mean, var) = mean_and_var(&xs);
        assert!(mean.abs() < 0.05, "mean = {mean}");
        // Var(Lap(b)) = 2 b².
        assert!((var - 2.0 * scale * scale).abs() < 0.3, "var = {var}");
    }

    #[test]
    fn laplace_tail_matches_distribution() {
        // P(|Lap(b)| > x) = exp(-x/b).
        let mut rng = StdRng::seed_from_u64(2);
        let b = 1.0;
        let n = 200_000;
        let threshold = 2.0;
        let exceed = (0..n)
            .filter(|_| laplace(&mut rng, b).abs() > threshold)
            .count() as f64
            / n as f64;
        let expected = (-threshold / b).exp();
        assert!((exceed - expected).abs() < 0.01, "{exceed} vs {expected}");
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let sigma = 3.0;
        let xs = (0..200_000)
            .map(|_| gaussian(&mut rng, sigma))
            .collect::<Vec<_>>();
        let (mean, var) = mean_and_var(&xs);
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - sigma * sigma).abs() < 0.3, "var = {var}");
        assert_eq!(gaussian(&mut rng, 0.0), 0.0);
    }

    #[test]
    fn gumbel_moments() {
        // Mean of standard Gumbel is the Euler–Mascheroni constant ~ 0.5772,
        // variance is π²/6 ~ 1.6449.
        let mut rng = StdRng::seed_from_u64(4);
        let xs: Vec<f64> = (0..200_000).map(|_| gumbel(&mut rng)).collect();
        let (mean, var) = mean_and_var(&xs);
        assert!((mean - 0.5772).abs() < 0.02, "mean = {mean}");
        assert!((var - 1.6449).abs() < 0.1, "var = {var}");
    }

    #[test]
    #[should_panic(expected = "Laplace scale")]
    fn laplace_rejects_bad_scale() {
        let mut rng = StdRng::seed_from_u64(5);
        let _ = laplace(&mut rng, 0.0);
    }

    #[test]
    #[should_panic(expected = "Gaussian sigma")]
    fn gaussian_rejects_bad_sigma() {
        let mut rng = StdRng::seed_from_u64(6);
        let _ = gaussian(&mut rng, -1.0);
    }
}
