//! The exponential mechanism of McSherry and Talwar, including a
//! piecewise-constant variant for enormous ordered domains.
//!
//! Given a finite solution set `F` and a quality function `q(S, f)` of
//! sensitivity `Δ`, the exponential mechanism outputs `f` with probability
//! proportional to `exp(ε·q(S,f)/(2Δ))`, which is `(ε, 0)`-differentially
//! private, and with probability `1 − β` its output quality is within
//! `(2Δ/ε)(ln|F| + ln(1/β))` of the optimum.
//!
//! GoodRadius's radius search runs the mechanism over the radius grid
//! `{0, ℓ/2, 2·ℓ/2, …, ⌈L√d⌉}`, which can have billions of elements. Its
//! quality function, however, is a *step function* whose breakpoints are
//! (snapped) pairwise distances, so the grid decomposes into `O(n²)` segments
//! of equal quality. [`piecewise_exponential_mechanism`] samples from exactly
//! the same distribution as the plain mechanism over the full grid — segment
//! weights are `len(segment) · exp(ε·q/(2Δ))`, then a uniform element of the
//! chosen segment — at `O(#segments)` cost. This is how Remark 4.4's
//! `poly(n, d, log|X|)` running time is realized.
//!
//! Sampling uses the Gumbel-max trick in log-space, so very large qualities
//! or segment lengths cannot overflow.

use crate::error::DpError;
use crate::sampling::gumbel;
use rand::Rng;

/// Samples an index from `{0, …, qualities.len() − 1}` with probability
/// proportional to `exp(ε·q_i/(2·sensitivity))`.
pub fn exponential_mechanism<R: Rng + ?Sized>(
    qualities: &[f64],
    epsilon: f64,
    sensitivity: f64,
    rng: &mut R,
) -> Result<usize, DpError> {
    if qualities.is_empty() {
        return Err(DpError::InvalidParameter(
            "exponential mechanism needs at least one candidate".into(),
        ));
    }
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
    if qualities.iter().any(|q| !q.is_finite()) {
        return Err(DpError::InvalidParameter("qualities must be finite".into()));
    }
    // Gumbel-max: argmax_i (ε q_i / (2Δ) + G_i) is distributed exactly as the
    // exponential mechanism.
    let scale = epsilon / (2.0 * sensitivity);
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (i, q) in qualities.iter().enumerate() {
        let score = scale * q + gumbel(rng);
        if score > best_score {
            best_score = score;
            best = i;
        }
    }
    Ok(best)
}

/// One maximal run of consecutive domain elements sharing the same quality.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    /// First domain index of the segment.
    pub start: u64,
    /// Number of domain elements in the segment (must be ≥ 1).
    pub len: u64,
    /// The common quality of every element in the segment.
    pub quality: f64,
}

/// A piecewise-constant quality function over the ordered domain
/// `{0, …, domain_len − 1}`.
#[derive(Debug, Clone, PartialEq)]
pub struct PiecewiseQuality {
    segments: Vec<Segment>,
    domain_len: u64,
}

impl PiecewiseQuality {
    /// Builds a piecewise-constant quality; segments must be non-empty,
    /// contiguous, start at 0 and exactly tile the domain.
    pub fn new(segments: Vec<Segment>) -> Result<Self, DpError> {
        if segments.is_empty() {
            return Err(DpError::InvalidParameter(
                "piecewise quality needs at least one segment".into(),
            ));
        }
        let mut expected_start = 0u64;
        for s in &segments {
            if s.len == 0 {
                return Err(DpError::InvalidParameter(
                    "piecewise quality segments must be non-empty".into(),
                ));
            }
            if s.start != expected_start {
                return Err(DpError::InvalidParameter(format!(
                    "piecewise quality segments must tile the domain: expected start {expected_start}, got {}",
                    s.start
                )));
            }
            if !s.quality.is_finite() {
                return Err(DpError::InvalidParameter(
                    "segment qualities must be finite".into(),
                ));
            }
            expected_start = expected_start
                .checked_add(s.len)
                .ok_or_else(|| DpError::InvalidParameter("domain length overflow".into()))?;
        }
        Ok(PiecewiseQuality {
            segments,
            domain_len: expected_start,
        })
    }

    /// Number of domain elements.
    pub fn domain_len(&self) -> u64 {
        self.domain_len
    }

    /// The segments.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The quality of a domain index.
    // privlint::allow(unused-pub): the materialized reference the mechanism-equivalence tests compare the piecewise sampler against
    pub fn quality_at(&self, index: u64) -> Option<f64> {
        if index >= self.domain_len {
            return None;
        }
        // Binary search over segment starts.
        let pos = self
            .segments
            .partition_point(|s| s.start <= index)
            .saturating_sub(1);
        Some(self.segments[pos].quality)
    }
}

/// Runs the exponential mechanism over the full domain of a piecewise
/// quality, in time linear in the number of segments. The output distribution
/// is identical to running [`exponential_mechanism`] on the fully
/// materialized domain.
pub fn piecewise_exponential_mechanism<R: Rng + ?Sized>(
    quality: &PiecewiseQuality,
    epsilon: f64,
    sensitivity: f64,
    rng: &mut R,
) -> Result<u64, DpError> {
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
    let scale = epsilon / (2.0 * sensitivity);
    // Choose a segment with probability proportional to len·exp(scale·q)
    // using the Gumbel-max trick on log-weights ln(len) + scale·q.
    let mut best_idx = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (i, s) in quality.segments().iter().enumerate() {
        let log_weight = (s.len as f64).ln() + scale * s.quality;
        let score = log_weight + gumbel(rng);
        if score > best_score {
            best_score = score;
            best_idx = i;
        }
    }
    let seg = quality.segments()[best_idx];
    // Uniform element within the segment.
    let offset = rng.gen_range(0..seg.len);
    Ok(seg.start + offset)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parameter_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(exponential_mechanism(&[], 1.0, 1.0, &mut rng).is_err());
        assert!(exponential_mechanism(&[1.0], 0.0, 1.0, &mut rng).is_err());
        assert!(exponential_mechanism(&[1.0], 1.0, 0.0, &mut rng).is_err());
        assert!(exponential_mechanism(&[f64::NAN], 1.0, 1.0, &mut rng).is_err());
        assert!(exponential_mechanism(&[1.0, 2.0], 1.0, 1.0, &mut rng).is_ok());
    }

    #[test]
    fn prefers_high_quality_candidates() {
        let mut rng = StdRng::seed_from_u64(2);
        let qualities = vec![0.0, 0.0, 20.0, 0.0];
        let mut hits = 0;
        let trials = 2000;
        for _ in 0..trials {
            if exponential_mechanism(&qualities, 2.0, 1.0, &mut rng).unwrap() == 2 {
                hits += 1;
            }
        }
        assert!(hits as f64 / trials as f64 > 0.99);
    }

    #[test]
    fn output_distribution_matches_theory() {
        // Two candidates with quality gap g: P(best)/P(other) = exp(ε g / 2).
        let mut rng = StdRng::seed_from_u64(3);
        let eps = 1.0;
        let gap = 2.0;
        let qualities = vec![0.0, gap];
        let trials = 100_000;
        let mut second = 0usize;
        for _ in 0..trials {
            if exponential_mechanism(&qualities, eps, 1.0, &mut rng).unwrap() == 1 {
                second += 1;
            }
        }
        let p = second as f64 / trials as f64;
        let expected = (eps * gap / 2.0).exp() / (1.0 + (eps * gap / 2.0).exp());
        assert!(
            (p - expected).abs() < 0.01,
            "p = {p}, expected = {expected}"
        );
    }

    #[test]
    fn piecewise_construction_validation() {
        assert!(PiecewiseQuality::new(vec![]).is_err());
        assert!(PiecewiseQuality::new(vec![Segment {
            start: 1,
            len: 2,
            quality: 0.0
        }])
        .is_err());
        assert!(PiecewiseQuality::new(vec![Segment {
            start: 0,
            len: 0,
            quality: 0.0
        }])
        .is_err());
        assert!(PiecewiseQuality::new(vec![
            Segment {
                start: 0,
                len: 2,
                quality: 0.0
            },
            Segment {
                start: 3,
                len: 2,
                quality: 0.0
            }
        ])
        .is_err());
        let pw = PiecewiseQuality::new(vec![
            Segment {
                start: 0,
                len: 5,
                quality: 1.0,
            },
            Segment {
                start: 5,
                len: 10,
                quality: 3.0,
            },
        ])
        .unwrap();
        assert_eq!(pw.domain_len(), 15);
        assert_eq!(pw.quality_at(0), Some(1.0));
        assert_eq!(pw.quality_at(4), Some(1.0));
        assert_eq!(pw.quality_at(5), Some(3.0));
        assert_eq!(pw.quality_at(14), Some(3.0));
        assert_eq!(pw.quality_at(15), None);
    }

    /// The quality whose segment `i + 1` starts at `bounds[i]`.
    fn from_breakpoints(domain_len: u64, bounds: &[u64], qualities: &[f64]) -> PiecewiseQuality {
        let starts = std::iter::once(0).chain(bounds.iter().copied());
        let ends = bounds.iter().copied().chain(std::iter::once(domain_len));
        let segments = starts
            .zip(ends)
            .zip(qualities)
            .map(|((start, end), &quality)| Segment {
                start,
                len: end - start,
                quality,
            })
            .collect();
        PiecewiseQuality::new(segments).unwrap()
    }

    #[test]
    fn piecewise_matches_materialized_mechanism() {
        // Domain of 12 elements in 3 segments; compare empirical distributions
        // of the piecewise sampler against the plain mechanism over the
        // materialized domain.
        let mut rng = StdRng::seed_from_u64(5);
        let pw = from_breakpoints(12, &[4, 6], &[0.0, 4.0, 1.0]);
        let materialized: Vec<f64> = (0..12).map(|i| pw.quality_at(i).unwrap()).collect();
        let eps = 1.0;
        let trials = 60_000;
        let mut counts_piece = [0usize; 12];
        let mut counts_plain = [0usize; 12];
        for _ in 0..trials {
            counts_piece
                [piecewise_exponential_mechanism(&pw, eps, 1.0, &mut rng).unwrap() as usize] += 1;
            counts_plain[exponential_mechanism(&materialized, eps, 1.0, &mut rng).unwrap()] += 1;
        }
        for i in 0..12 {
            let p = counts_piece[i] as f64 / trials as f64;
            let q = counts_plain[i] as f64 / trials as f64;
            assert!((p - q).abs() < 0.012, "index {i}: {p} vs {q}");
        }
    }

    #[test]
    fn piecewise_handles_huge_domains_without_overflow() {
        let mut rng = StdRng::seed_from_u64(6);
        // A domain of ~4·10^9 elements with the heavy segment in the middle.
        let pw = from_breakpoints(
            4_000_000_000,
            &[1_999_999_000, 2_000_001_000],
            &[0.0, 500.0, 0.0],
        );
        for _ in 0..50 {
            let idx = piecewise_exponential_mechanism(&pw, 1.0, 1.0, &mut rng).unwrap();
            assert!((1_999_999_000..2_000_001_000).contains(&idx), "idx = {idx}");
        }
    }

    #[test]
    fn piecewise_parameter_validation() {
        let mut rng = StdRng::seed_from_u64(7);
        let pw = from_breakpoints(4, &[2], &[0.0, 1.0]);
        assert!(piecewise_exponential_mechanism(&pw, 0.0, 1.0, &mut rng).is_err());
        assert!(piecewise_exponential_mechanism(&pw, 1.0, -1.0, &mut rng).is_err());
    }
}
