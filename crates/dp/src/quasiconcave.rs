//! Private solvers for quasi-concave promise problems (Definitions 4.1–4.2,
//! interface of Theorem 4.3).
//!
//! A quasi-concave promise problem consists of a totally ordered finite
//! solution set `F`, a sensitivity-1 quality function `Q(S, ·)` promised to be
//! quasi-concave with `max_f Q(S, f) ≥ p`, and asks for a solution `g` with
//! `Q(S, g) ≥ (1 − α)·p`. The paper uses algorithm `RecConcave` of Beimel,
//! Nissim and Stemmer for this, whose promise requirement is
//! `p ≥ 8^{log*|F|}·O(log*|F|/(αε))`.
//!
//! **Implemented engine.** This crate solves the same interface with the
//! exponential mechanism run over the full ordered domain, exploiting
//! piecewise-constant structure when the caller provides it (which GoodRadius
//! does — its quality function only changes at `O(n²)` radii). The promise
//! requirement of this engine is `p ≥ (2/(αε))·(ln|F| + ln(1/β))`, which for
//! every physically representable domain (`|F| ≤ 2⁶⁴`, so `ln|F| ≤ 45`) is
//! *smaller* than RecConcave's `8^{log*|F|} ≥ 4096`-factor requirement — the
//! asymptotic `2^{O(log*)}` behaviour of the paper is therefore *not*
//! reproduced, a substitution the README's "Substitutions and experiments"
//! lists and experiment E4 measures. The engine is `(ε, 0)`-DP (strictly
//! stronger than the `(ε, δ)` the interface allows), and quasi-concavity is
//! not required for privacy, only for the utility statement.

use crate::error::DpError;
use crate::exponential::{piecewise_exponential_mechanism, PiecewiseQuality, Segment};
use rand::Rng;

/// A quality function over the ordered solution set `{0, …, len − 1}`,
/// evaluated lazily.
pub trait QualityOracle {
    /// `|F|`.
    fn len(&self) -> u64;

    /// Whether the solution set is empty (solvers reject such oracles).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `Q(S, f_index)`; must have sensitivity 1 in `S` for the privacy
    /// guarantee of the solver to hold.
    fn quality(&self, index: u64) -> f64;

    /// Optional piecewise-constant structure: a sorted list of segment start
    /// indices (the first must be 0) such that the quality is constant on
    /// each `[starts[i], starts[i+1])`. When provided, the solver evaluates
    /// one representative per segment instead of every index.
    fn segment_starts(&self) -> Option<Vec<u64>> {
        None
    }
}

/// A materialized oracle over a small solution set.
#[derive(Debug, Clone)]
pub struct SliceOracle {
    qualities: Vec<f64>,
}

impl SliceOracle {
    /// Wraps a vector of qualities (index `i` ↦ `qualities[i]`).
    pub fn new(qualities: Vec<f64>) -> Self {
        SliceOracle { qualities }
    }
}

impl QualityOracle for SliceOracle {
    fn len(&self) -> u64 {
        self.qualities.len() as u64
    }
    fn quality(&self, index: u64) -> f64 {
        self.qualities[index as usize]
    }
}

/// Configuration of a quasi-concave solve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcSolverConfig {
    /// ε of the solve.
    pub epsilon: f64,
    /// δ of the solve. The exponential-mechanism engine does not consume it
    /// (it is pure-DP); it is part of the interface so callers can budget as
    /// if using Theorem 4.3.
    pub delta: f64,
    /// Approximation parameter α of Definition 4.2.
    pub alpha: f64,
    /// Failure probability β.
    pub beta: f64,
}

impl QcSolverConfig {
    /// Validates the configuration.
    pub fn new(epsilon: f64, delta: f64, alpha: f64, beta: f64) -> Result<Self, DpError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "epsilon must be positive, got {epsilon}"
            )));
        }
        if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "delta must lie in [0,1), got {delta}"
            )));
        }
        if !(alpha.is_finite() && alpha > 0.0 && alpha < 1.0) {
            return Err(DpError::InvalidParameter(format!(
                "alpha must lie in (0,1), got {alpha}"
            )));
        }
        if !(beta.is_finite() && beta > 0.0 && beta < 1.0) {
            return Err(DpError::InvalidParameter(format!(
                "beta must lie in (0,1), got {beta}"
            )));
        }
        Ok(QcSolverConfig {
            epsilon,
            delta,
            alpha,
            beta,
        })
    }

    /// The smallest promise `p` under which this engine guarantees an output
    /// of quality at least `(1 − α)·p` with probability `1 − β`:
    /// `p ≥ (2/(αε))·(ln|F| + ln(1/β))`.
    ///
    /// This plays the role of Theorem 4.3's promise requirement (the paper's
    /// `Γ` for GoodRadius); RecConcave's is `8^{log*|F|}·O(log*|F|/(αε))`
    /// (see the module docs).
    pub fn required_promise(&self, domain_len: u64) -> f64 {
        2.0 / (self.alpha * self.epsilon)
            * ((domain_len.max(2) as f64).ln() + (1.0 / self.beta).ln())
    }
}

/// Solves a quasi-concave promise problem: returns an index of the ordered
/// domain whose quality is, with probability `1 − β`, at least
/// `max_f Q(f) − α·required_promise` (hence at least `(1 − α)·p` whenever the
/// promise `p ≥ required_promise` holds).
///
/// Privacy: one invocation of the exponential mechanism with parameter
/// `config.epsilon` over a sensitivity-1 quality, i.e. `(ε, 0)`-DP.
pub fn solve_quasiconcave<O, R>(
    oracle: &O,
    config: &QcSolverConfig,
    rng: &mut R,
) -> Result<u64, DpError>
where
    O: QualityOracle + ?Sized,
    R: Rng + ?Sized,
{
    let len = oracle.len();
    if len == 0 {
        return Err(DpError::InvalidParameter(
            "solution set must be non-empty".into(),
        ));
    }
    let quality = build_piecewise(oracle)?;
    piecewise_exponential_mechanism(&quality, config.epsilon, 1.0, rng)
}

/// Materializes the (possibly segmented) quality of an oracle into a
/// [`PiecewiseQuality`].
fn build_piecewise<O: QualityOracle + ?Sized>(oracle: &O) -> Result<PiecewiseQuality, DpError> {
    let len = oracle.len();
    match oracle.segment_starts() {
        Some(starts) => {
            if starts.is_empty() || starts[0] != 0 {
                return Err(DpError::InvalidParameter(
                    "segment starts must begin at index 0".into(),
                ));
            }
            let mut segments = Vec::with_capacity(starts.len());
            for (i, &start) in starts.iter().enumerate() {
                let end = if i + 1 < starts.len() {
                    starts[i + 1]
                } else {
                    len
                };
                if end <= start || end > len {
                    return Err(DpError::InvalidParameter(format!(
                        "segment starts must be strictly increasing and within the domain (segment {i}: [{start}, {end}))"
                    )));
                }
                segments.push(Segment {
                    start,
                    len: end - start,
                    quality: oracle.quality(start),
                });
            }
            PiecewiseQuality::new(segments)
        }
        None => {
            const MAX_MATERIALIZED: u64 = 4_000_000;
            if len > MAX_MATERIALIZED {
                return Err(DpError::InvalidParameter(format!(
                    "domain of size {len} is too large to materialize; provide segment_starts()"
                )));
            }
            let segments = (0..len)
                .map(|i| Segment {
                    start: i,
                    len: 1,
                    quality: oracle.quality(i),
                })
                .collect();
            PiecewiseQuality::new(segments)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A triangular (hence quasi-concave) quality over a large domain with a
    /// known peak, exposed with segment structure.
    struct Triangle {
        len: u64,
        peak: u64,
        plateau: u64,
    }

    impl QualityOracle for Triangle {
        fn len(&self) -> u64 {
            self.len
        }
        fn quality(&self, index: u64) -> f64 {
            // Constant within plateaus of width `plateau`.
            let bucket = index / self.plateau;
            let peak_bucket = self.peak / self.plateau;
            let dist = bucket.abs_diff(peak_bucket) as f64;
            1000.0 - dist
        }
        fn segment_starts(&self) -> Option<Vec<u64>> {
            Some((0..self.len).step_by(self.plateau as usize).collect())
        }
    }

    #[test]
    fn config_validation_and_promise() {
        assert!(QcSolverConfig::new(0.0, 0.0, 0.5, 0.1).is_err());
        assert!(QcSolverConfig::new(1.0, 1.0, 0.5, 0.1).is_err());
        assert!(QcSolverConfig::new(1.0, 0.0, 0.0, 0.1).is_err());
        assert!(QcSolverConfig::new(1.0, 0.0, 1.0, 0.1).is_err());
        assert!(QcSolverConfig::new(1.0, 0.0, 0.5, 0.0).is_err());
        let c = QcSolverConfig::new(1.0, 1e-6, 0.5, 0.1).unwrap();
        // larger domain => larger promise requirement; but only logarithmically
        let p_small = c.required_promise(1 << 10);
        let p_huge = c.required_promise(1 << 60);
        assert!(p_huge > p_small);
        assert!(p_huge < 10.0 * p_small);
    }

    #[test]
    fn small_materialized_domain_returns_near_optimum() {
        let mut rng = StdRng::seed_from_u64(1);
        let qualities: Vec<f64> = (0..100)
            .map(|i| 50.0 - (i as f64 - 30.0).abs()) // peak at 30
            .collect();
        let oracle = SliceOracle::new(qualities.clone());
        let cfg = QcSolverConfig::new(2.0, 0.0, 0.5, 0.05).unwrap();
        let mut worst_gap = 0.0_f64;
        for _ in 0..50 {
            let idx = solve_quasiconcave(&oracle, &cfg, &mut rng).unwrap() as usize;
            worst_gap = worst_gap.max(50.0 - qualities[idx]);
        }
        // EM error bound: (2/ε)(ln 100 + ln 20) ≈ 7.6; allow a little slack.
        assert!(worst_gap <= 12.0, "worst quality gap = {worst_gap}");
    }

    #[test]
    fn segmented_huge_domain_is_solved_without_materializing() {
        let mut rng = StdRng::seed_from_u64(2);
        let oracle = Triangle {
            len: 100_000_000,
            peak: 73_000_000,
            plateau: 1_000_000,
        };
        let cfg = QcSolverConfig::new(1.0, 0.0, 0.5, 0.05).unwrap();
        let idx = solve_quasiconcave(&oracle, &cfg, &mut rng).unwrap();
        // Must land within a few plateaus of the peak.
        assert!(
            (idx as i64 - 73_000_000i64).abs() < 20_000_000,
            "idx = {idx}"
        );
    }

    #[test]
    fn unsegmented_huge_domain_is_rejected() {
        struct Huge;
        impl QualityOracle for Huge {
            fn len(&self) -> u64 {
                1 << 40
            }
            fn quality(&self, _index: u64) -> f64 {
                0.0
            }
        }
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = QcSolverConfig::new(1.0, 0.0, 0.5, 0.05).unwrap();
        assert!(solve_quasiconcave(&Huge, &cfg, &mut rng).is_err());
    }

    #[test]
    fn empty_domain_is_rejected() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = QcSolverConfig::new(1.0, 0.0, 0.5, 0.05).unwrap();
        let oracle = SliceOracle::new(vec![]);
        assert!(solve_quasiconcave(&oracle, &cfg, &mut rng).is_err());
    }

    #[test]
    fn bad_segment_structures_are_rejected() {
        struct BadStarts(Vec<u64>);
        impl QualityOracle for BadStarts {
            fn len(&self) -> u64 {
                10
            }
            fn quality(&self, _index: u64) -> f64 {
                0.0
            }
            fn segment_starts(&self) -> Option<Vec<u64>> {
                Some(self.0.clone())
            }
        }
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = QcSolverConfig::new(1.0, 0.0, 0.5, 0.05).unwrap();
        for starts in [vec![], vec![1], vec![0, 12], vec![0, 5, 5]] {
            assert!(
                solve_quasiconcave(&BadStarts(starts.clone()), &cfg, &mut rng).is_err(),
                "starts = {starts:?}"
            );
        }
    }

    #[test]
    fn promise_guarantee_holds_empirically() {
        // Quality with a single index at the promise level and everything
        // else far below: the solver must find (a neighbourhood of) it when
        // the promise requirement is met.
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = QcSolverConfig::new(1.0, 0.0, 0.5, 0.05).unwrap();
        let n = 1000u64;
        let promise = cfg.required_promise(n);
        let qualities: Vec<f64> = (0..n)
            .map(|i| {
                let d = (i as f64 - 500.0).abs();
                promise - d // quasi-concave, peak = promise at 500
            })
            .collect();
        let oracle = SliceOracle::new(qualities.clone());
        let mut failures = 0;
        let trials = 200;
        for _ in 0..trials {
            let idx = solve_quasiconcave(&oracle, &cfg, &mut rng).unwrap() as usize;
            if qualities[idx] < (1.0 - cfg.alpha) * promise {
                failures += 1;
            }
        }
        let rate = failures as f64 / trials as f64;
        assert!(rate <= cfg.beta, "failure rate {rate} exceeds β");
    }
}
