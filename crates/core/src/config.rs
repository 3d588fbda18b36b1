//! Configuration of the 1-cluster pipeline.
//!
//! Two presets matter:
//!
//! * [`CenterPreset::Paper`] uses the constants exactly as written in
//!   Algorithm 2 (boxes of side `300r`, `k = 46·ln(2n/β)` JL dimensions,
//!   threshold slack `100/ε·ln(2n/β)`, …). These constants are what the
//!   proofs of Lemmas 4.11/4.12 need; they are deliberately loose, so the
//!   returned balls are large.
//! * [`CenterPreset::Practical`] keeps the *structure* of every step but
//!   scales the constants down to values that give tight balls on realistic
//!   inputs (the per-step failure probabilities are still controlled, only
//!   with smaller slack). Every experiment records which preset produced its
//!   numbers.

use crate::error::ClusterError;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::GridDomain;

/// How GoodRadius searches for the radius (step 4 of Algorithm 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RadiusSearchStrategy {
    /// The exponential mechanism over the full radius grid, evaluated through
    /// the piecewise-constant structure of `L` (the default; quality loss
    /// `O(log n)/ε`, pure DP). Stands in for the paper's RecConcave call —
    /// see [`privcluster_dp::quasiconcave`].
    PiecewiseExpMech,
    /// The paper's footnote-2 alternative: a noisy binary search for the
    /// crossing point of the monotone function `L`, paying one Laplace
    /// comparison per halving (`O(log(|X|√d))` of them).
    NoisyBinarySearch,
}

/// Configuration of GoodRadius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodRadiusConfig {
    /// Search strategy for step 4.
    pub strategy: RadiusSearchStrategy,
    /// Approximation parameter α handed to the quasi-concave solver
    /// (the paper fixes α = 1/2).
    pub alpha: f64,
}

impl Default for GoodRadiusConfig {
    fn default() -> Self {
        GoodRadiusConfig {
            strategy: RadiusSearchStrategy::PiecewiseExpMech,
            alpha: 0.5,
        }
    }
}

/// Constant preset for GoodCenter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CenterPreset {
    /// The constants of Algorithm 2 verbatim.
    Paper,
    /// Scaled-down constants with the same structure (default).
    Practical,
}

/// Configuration of GoodCenter. All geometric quantities are derived from
/// [`GoodCenterConfig::box_side`]; the paper's constants are recovered by the
/// [`CenterPreset::Paper`] preset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GoodCenterConfig {
    /// Which constant preset to use.
    pub preset: CenterPreset,
    /// A hard cap on the number of sparse-vector rounds (the paper allows
    /// `2n·ln(1/β)/β`, which can be enormous; the cap protects wall-clock
    /// time and failing because of it is reported as
    /// [`ClusterError::CenterNotFound`]).
    pub max_rounds_cap: usize,
}

impl GoodCenterConfig {
    /// The verbatim Algorithm-2 constants.
    pub fn paper() -> Self {
        GoodCenterConfig {
            preset: CenterPreset::Paper,
            max_rounds_cap: 100_000,
        }
    }

    /// The practical preset (default).
    pub fn practical() -> Self {
        GoodCenterConfig {
            preset: CenterPreset::Practical,
            max_rounds_cap: 20_000,
        }
    }

    /// The Johnson–Lindenstrauss target dimension `k`
    /// (paper: `⌈46·ln(2n/β)⌉`, capped at `d`).
    pub fn jl_dim(&self, n: usize, beta: f64, d: usize) -> usize {
        let raw = match self.preset {
            CenterPreset::Paper => 46.0 * (2.0 * n.max(2) as f64 / beta).ln(),
            CenterPreset::Practical => 8.0 * (2.0 * n.max(2) as f64 / beta).ln(),
        };
        (raw.ceil() as usize).clamp(1, d.max(1))
    }

    /// Side length of the randomly shifted boxes in the projected space
    /// (paper: `300r`; practical: `4rk`, which keeps the per-round success
    /// probability of capturing the projected cluster at a constant).
    pub fn box_side(&self, r: f64, k: usize) -> f64 {
        match self.preset {
            CenterPreset::Paper => 300.0 * r,
            CenterPreset::Practical => 4.0 * r * k.max(1) as f64,
        }
    }

    /// Sparse-vector threshold slack subtracted from `t`
    /// (paper: `(100/ε)·ln(2n/β)`).
    pub fn threshold_slack(&self, epsilon: f64, n: usize, beta: f64) -> f64 {
        let factor = match self.preset {
            CenterPreset::Paper => 100.0,
            CenterPreset::Practical => 16.0,
        };
        factor / epsilon * (2.0 * n.max(2) as f64 / beta).ln()
    }

    /// Maximum number of box-partition rounds fed to AboveThreshold
    /// (paper: `2n·ln(1/β)/β`), clipped by `max_rounds_cap`.
    pub fn max_rounds(&self, n: usize, beta: f64) -> usize {
        let raw = match self.preset {
            CenterPreset::Paper => 2.0 * n.max(2) as f64 * (1.0 / beta).ln() / beta,
            CenterPreset::Practical => 64.0 * (3.0 / beta).ln(),
        };
        (raw.ceil() as usize).clamp(1, self.max_rounds_cap)
    }

    /// Length `p` of the per-axis intervals in the rotated basis (step 9a).
    /// Derived from the box side: the captured set has projected diameter at
    /// most `box_side·√k`, hence original diameter at most `1.5·box_side·√k`
    /// (JL distortion), and its projection on a random direction is at most a
    /// `2√(ln(dn/β)/d)` fraction of that (Lemma 4.9). With the paper's
    /// `box_side = 300r` this is exactly the paper's
    /// `900·r·√(k·ln(dn/β)/d)`.
    pub fn axis_interval(&self, r: f64, k: usize, d: usize, n: usize, beta: f64) -> f64 {
        let diam = 1.5 * self.box_side(r, k) * (k.max(1) as f64).sqrt();
        let ln_term = ((d.max(1) * n.max(2)) as f64 / beta).ln().max(1.0);
        2.0 * diam * (ln_term / d.max(1) as f64).sqrt()
    }

    /// Radius of the capture ball `C` around the reconstructed box centre
    /// (step 10): the box has side `3p`, so its bounding sphere has radius
    /// `1.5·p·√d`; the paper doubles that to `3p√d = 2700·r·√(k·ln(dn/β))`.
    pub fn capture_radius(&self, r: f64, k: usize, d: usize, n: usize, beta: f64) -> f64 {
        3.0 * self.axis_interval(r, k, d, n, beta) * (d.max(1) as f64).sqrt()
    }

    /// The radius reported for the output ball: the captured set has original
    /// diameter at most `1.5·box_side·√k` and the noisy average is within
    /// `≈ r√k` of the true one, giving the paper's `451·r·√k` under the Paper
    /// preset.
    pub fn output_radius(&self, r: f64, k: usize) -> f64 {
        let kf = (k.max(1) as f64).sqrt();
        1.5 * self.box_side(r, k) * kf + 1.01 * r * kf
    }
}

impl Default for GoodCenterConfig {
    fn default() -> Self {
        GoodCenterConfig::practical()
    }
}

/// Full parameterization of a 1-cluster solve (Definition 1.2 instance plus
/// privacy and failure-probability budgets).
#[derive(Debug, Clone)]
pub struct OneClusterParams {
    /// The discretized domain `X^d` the points live in.
    pub domain: GridDomain,
    /// Target cluster size `t`.
    pub t: usize,
    /// Overall privacy budget `(ε, δ)` for the whole pipeline.
    pub privacy: PrivacyParams,
    /// Failure probability `β`.
    pub beta: f64,
    /// When `true`, refuse with [`ClusterError::ClusterTooSmall`] if `t`
    /// does not exceed GoodRadius's loss bound for these parameters (the
    /// guarantee of Theorem 3.2 is vacuous below it); when `false`
    /// (default) run anyway.
    pub strict: bool,
    /// GoodRadius configuration.
    pub radius_config: GoodRadiusConfig,
    /// GoodCenter configuration.
    pub center_config: GoodCenterConfig,
}

impl OneClusterParams {
    /// Creates a parameter set with default (practical) algorithm
    /// configuration.
    pub fn new(
        domain: GridDomain,
        t: usize,
        privacy: PrivacyParams,
        beta: f64,
    ) -> Result<Self, ClusterError> {
        if t == 0 {
            return Err(ClusterError::InvalidParameter(
                "target cluster size t must be at least 1".into(),
            ));
        }
        if !(beta.is_finite() && beta > 0.0 && beta < 1.0) {
            return Err(ClusterError::InvalidParameter(format!(
                "beta must lie in (0,1), got {beta}"
            )));
        }
        if privacy.delta() == 0.0 {
            return Err(ClusterError::InvalidParameter(
                "the 1-cluster pipeline requires δ > 0 (GoodCenter's stability steps and NoisyAVG are (ε, δ) mechanisms)".into(),
            ));
        }
        Ok(OneClusterParams {
            domain,
            t,
            privacy,
            beta,
            strict: false,
            radius_config: GoodRadiusConfig::default(),
            center_config: GoodCenterConfig::default(),
        })
    }

    /// Switches to the verbatim paper constants.
    pub fn with_paper_constants(mut self) -> Self {
        self.center_config = GoodCenterConfig::paper();
        self
    }

    /// Enables strict guarantee checking.
    pub fn strict(mut self) -> Self {
        self.strict = true;
        self
    }

    /// Validates `t` against a dataset size.
    pub fn validate_against(&self, n: usize) -> Result<(), ClusterError> {
        if self.t > n {
            return Err(ClusterError::InvalidParameter(format!(
                "t = {} exceeds the dataset size n = {n}",
                self.t
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn domain() -> GridDomain {
        GridDomain::unit_cube(4, 1 << 12).unwrap()
    }

    #[test]
    fn params_validation() {
        let privacy = PrivacyParams::new(1.0, 1e-6).unwrap();
        assert!(OneClusterParams::new(domain(), 0, privacy, 0.1).is_err());
        assert!(OneClusterParams::new(domain(), 10, privacy, 0.0).is_err());
        assert!(OneClusterParams::new(domain(), 10, privacy, 1.0).is_err());
        let pure = PrivacyParams::pure(1.0).unwrap();
        assert!(OneClusterParams::new(domain(), 10, pure, 0.1).is_err());
        let p = OneClusterParams::new(domain(), 10, privacy, 0.1).unwrap();
        assert!(p.validate_against(100).is_ok());
        assert!(p.validate_against(5).is_err());
        assert!(!p.strict);
        assert!(p.strict().strict);
    }

    #[test]
    fn paper_preset_recovers_paper_constants() {
        let cfg = GoodCenterConfig::paper();
        let r = 0.01;
        let n = 1000;
        let beta = 0.1;
        let d = 512;
        let k = cfg.jl_dim(n, beta, d);
        assert_eq!(k, (46.0 * (2.0 * 1000.0 / 0.1_f64).ln()).ceil() as usize);
        assert!((cfg.box_side(r, k) - 3.0).abs() < 1e-12); // 300 · 0.01
                                                           // axis interval = 900 r sqrt(k ln(dn/β)/d)
        let expected_p = 900.0 * r * (k as f64 * (512.0 * 1000.0 / 0.1_f64).ln() / 512.0).sqrt();
        assert!((cfg.axis_interval(r, k, d, n, beta) - expected_p).abs() / expected_p < 1e-9);
        // capture radius = 2700 r sqrt(k ln(dn/β))
        let expected_c = 2700.0 * r * (k as f64 * (512.0 * 1000.0 / 0.1_f64).ln()).sqrt();
        assert!((cfg.capture_radius(r, k, d, n, beta) - expected_c).abs() / expected_c < 1e-9);
        // output radius ≈ 451 r √k
        let out = cfg.output_radius(r, k);
        assert!((out / (r * (k as f64).sqrt()) - 451.01).abs() < 1.0);
        // threshold slack 100/ε ln(2n/β)
        assert!((cfg.threshold_slack(1.0, n, beta) - 100.0 * (20000.0_f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn practical_preset_is_much_tighter() {
        let paper = GoodCenterConfig::paper();
        let practical = GoodCenterConfig::practical();
        let (r, n, beta, d) = (0.01, 1000, 0.1, 8);
        let kp = paper.jl_dim(n, beta, d);
        let kq = practical.jl_dim(n, beta, d);
        assert!(kq <= kp);
        assert!(practical.output_radius(r, kq) < paper.output_radius(r, kp));
        assert!(practical.max_rounds(n, beta) <= paper.max_rounds(n, beta));
        assert!(practical.threshold_slack(1.0, n, beta) < paper.threshold_slack(1.0, n, beta));
    }

    #[test]
    fn jl_dim_is_capped_by_ambient_dimension() {
        let cfg = GoodCenterConfig::paper();
        assert_eq!(cfg.jl_dim(10_000, 0.05, 4), 4);
        assert!(cfg.jl_dim(10_000, 0.05, 10_000) > 100);
    }

    #[test]
    fn max_rounds_respects_cap() {
        let mut cfg = GoodCenterConfig::paper();
        cfg.max_rounds_cap = 500;
        assert_eq!(cfg.max_rounds(1_000_000, 0.01), 500);
    }

    #[test]
    fn default_configs() {
        assert_eq!(
            GoodRadiusConfig::default().strategy,
            RadiusSearchStrategy::PiecewiseExpMech
        );
        assert_eq!(GoodCenterConfig::default().preset, CenterPreset::Practical);
    }
}
