//! Algorithm 1: `GoodRadius`.
//!
//! Privately approximates the radius of the smallest ball containing `t`
//! input points. The key object is the averaged score
//!
//! `L(r, S) = (1/t)·Σ (t largest capped ball counts B̄_r(x_i))`,
//!
//! which has sensitivity 2 (Lemma 4.5) and satisfies: `L(r) ≥ t − loss` means
//! some input-centred ball of radius `r` holds ≈ `t` points, while
//! `L(r/2) < t` forces `r ≤ 4·r_opt` (the doubling argument of §3.1). The
//! algorithm therefore
//!
//! 1. handles the degenerate radius-0 cluster with one Laplace test (step 2),
//! 2. builds the quality `Q(r) = ½·min(t − L(r/2), L(r) − t + 4Γ)` — which is
//!    quasi-concave, sensitivity-1, and reaches `Γ` at some grid radius
//!    whenever the instance is feasible — and
//! 3. hands `Q` over the radius grid `{0, ℓ/2, 2·ℓ/2, …, ⌈L√d⌉}` to a private
//!    quasi-concave solver (step 4).
//!
//! The solver is pluggable ([`RadiusSearchStrategy`]): the default is the
//! exponential mechanism over the grid exploiting the piecewise-constant
//! structure of `Q` (Remark 4.4's efficiency), the alternative is the
//! footnote-2 noisy binary search on the monotone `L`.
//!
//! Every `L` value the algorithm reads sits on the quarter grid
//! `radius_from_index(j) / 2`, so it reads them from a [`GridProfile`]:
//! `L` at those radii, kept as the quarter indices where it changes (its
//! steps), plus the grid indices where `Q` can change. `Q(r)` reads only
//! `L(r/2)` and `L(r)`, so those are derived from the steps alone, and the
//! steps end where `L` saturates at `t`. On the exact backend the profile
//! for a cap and grid costs one `O(n²·d + G)` pass for `G` grid radii that
//! counts only the pairs within that saturation radius, with no pair sort,
//! cached per dataset; each query then costs `O(log)` per segment, one
//! segment per step of `L` at most two, however fine the grid.

use crate::config::{GoodRadiusConfig, RadiusSearchStrategy};
use crate::diagnostics::Diagnostics;
use crate::error::ClusterError;
use privcluster_dp::quasiconcave::{solve_quasiconcave, QcSolverConfig, QualityOracle};
use privcluster_dp::sampling::laplace;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::grid_profile::MAX_EXACT_POINTS;
use privcluster_geometry::{
    BackendKind, Dataset, GeometryBackend, GeometryIndex, GridDomain, GridProfile,
};
use rand::Rng;

/// The result of a GoodRadius run.
#[derive(Debug, Clone)]
pub struct GoodRadiusOutcome {
    /// The released radius.
    pub radius: f64,
    /// Whether the degenerate radius-0 branch (step 2) fired.
    pub degenerate_zero: bool,
    /// The quality promise Γ the solver required (drives the loss bound).
    pub gamma: f64,
    /// With probability `1 − β`, some ball of radius `radius` contains at
    /// least `t − loss_bound` input points.
    pub loss_bound: f64,
    /// The privacy charges of the run.
    pub diagnostics: Diagnostics,
}

/// The sensitivity-1 quality `Q(r) = ½·min(t − L(r/2), L(r) − t + 4Γ)` over
/// the radius grid, exposing its piecewise-constant segments.
struct RadiusQuality<'a> {
    /// `L` on the quarter grid: `L(r_k)` at quarter index `2k`, `L(r_k/2)`
    /// at `k`.
    profile: &'a GridProfile,
    t: f64,
    /// The additive slack used in the second branch of the quality. Equals
    /// the paper's `4Γ` whenever `4Γ ≤ t/2`; otherwise it is clamped to
    /// `t/2`, which keeps the quality peaked around the true radius in the
    /// regime where the formal guarantee is vacuous anyway (the clamp is a
    /// data-independent constant, so privacy is unaffected).
    slack: f64,
    grid_len: u64,
}

impl QualityOracle for RadiusQuality<'_> {
    fn len(&self) -> u64 {
        self.grid_len
    }

    fn quality(&self, index: u64) -> f64 {
        let l_r = self.profile.value(index.saturating_mul(2));
        let l_half = self.profile.value(index);
        0.5 * (self.t - l_half).min(l_r - self.t + self.slack)
    }

    /// `0` and the grid indices where `L(r/2)` or `L(r)` changes, derived
    /// from the profile's steps, so `Q` is constant on each segment. The
    /// piecewise exponential mechanism draws one Gumbel per segment: any
    /// other valid list samples the same distribution, but gives each seed
    /// a different draw.
    fn segment_starts(&self) -> Option<Vec<u64>> {
        Some(self.profile.segment_starts().to_vec())
    }
}

/// Runs Algorithm 1 on `data` with target cluster size `t`, privacy budget
/// `privacy` (consumed entirely by this call), failure probability `beta`,
/// and the given search strategy.
///
/// [`good_radius_with_index`] on an exact [`GeometryIndex`] built for this
/// call, so the `O(n² d)` grid profile is built from scratch; callers
/// answering repeated queries against the same dataset should build a
/// [`GeometryBackend`] (an exact `GeometryIndex`, or a sub-quadratic
/// `ProjectedBackend` for large `n`) once and use
/// [`good_radius_with_index`] instead.
pub fn good_radius<R: Rng + ?Sized>(
    data: &Dataset,
    domain: &GridDomain,
    t: usize,
    privacy: PrivacyParams,
    beta: f64,
    config: &GoodRadiusConfig,
    rng: &mut R,
) -> Result<GoodRadiusOutcome, ClusterError> {
    let index = GeometryIndex::build(data);
    good_radius_with_index(data, domain, t, privacy, beta, config, &index, rng)
}

/// [`good_radius`] against a prebuilt, shareable [`GeometryBackend`] of
/// `data`: the grid profile of `L(·, S)` for this `t` and grid is reused if
/// already cached. Against the exact backend (`GeometryIndex`) results are
/// bit-identical to [`good_radius`]; against an approximating backend the
/// profile (hence the released radius) carries the backend's documented
/// additive slack. The backend must have been
/// built from exactly this dataset.
///
/// Validates parameters *before* building any `O(n²)` geometry, and
/// refuses an exact backend over more than [`MAX_EXACT_POINTS`] points,
/// whose profile build packs pairs into 32 bits.
#[allow(clippy::too_many_arguments)]
pub fn good_radius_with_index<R: Rng + ?Sized>(
    data: &Dataset,
    domain: &GridDomain,
    t: usize,
    privacy: PrivacyParams,
    beta: f64,
    config: &GoodRadiusConfig,
    index: &dyn GeometryBackend,
    rng: &mut R,
) -> Result<GoodRadiusOutcome, ClusterError> {
    if index.len() != data.len() {
        return Err(ClusterError::InvalidParameter(format!(
            "geometry backend covers {} points but the dataset has {}",
            index.len(),
            data.len()
        )));
    }
    // The kind and n are public, so refusing here costs no privacy.
    if index.kind() == BackendKind::Exact && data.len() > MAX_EXACT_POINTS {
        return Err(ClusterError::InvalidParameter(format!(
            "the exact backend takes at most {MAX_EXACT_POINTS} points, not {}",
            data.len()
        )));
    }
    if data.dim() != domain.dim() {
        return Err(ClusterError::InvalidParameter(format!(
            "data dimension {} does not match domain dimension {}",
            data.dim(),
            domain.dim()
        )));
    }
    if t == 0 || t > data.len() {
        return Err(ClusterError::InvalidParameter(format!(
            "t must satisfy 1 <= t <= n (t = {t}, n = {})",
            data.len()
        )));
    }
    if !(beta.is_finite() && beta > 0.0 && beta < 1.0) {
        return Err(ClusterError::InvalidParameter(format!(
            "beta must lie in (0,1), got {beta}"
        )));
    }
    if !(config.alpha > 0.0 && config.alpha < 1.0) {
        return Err(ClusterError::InvalidParameter(format!(
            "alpha must lie in (0,1), got {}",
            config.alpha
        )));
    }

    let eps = privacy.epsilon();
    let delta = privacy.delta();
    let mut diagnostics = Diagnostics::new();
    let grid_len = domain.radius_grid_len();

    // L on the radius grid, with the segments of the quality: built on the
    // first use of this cap and grid (the exact backend's counting pass,
    // O(n²·d + G)), a cache lookup on every later query.
    let profile = index.grid_profile(t, domain);

    // The quality promise the configured solver needs.
    let solver_cfg = QcSolverConfig::new(eps / 2.0, delta, config.alpha, beta / 2.0)?;
    let gamma = match config.strategy {
        RadiusSearchStrategy::PiecewiseExpMech => solver_cfg.required_promise(grid_len),
        RadiusSearchStrategy::NoisyBinarySearch => {
            // per-comparison error bound, aggregated below
            let steps = (grid_len.max(2) as f64).log2().ceil();
            (4.0 * steps / eps) * (2.0 * steps / (beta / 2.0)).ln() / 2.0
        }
    };

    // ---- Step 2: the degenerate radius-0 cluster. L has sensitivity 2, so
    // Lap(4/ε) noise makes this an (ε/2, 0)-DP test.
    let step2_scale = 4.0 / eps;
    let noisy_l0 = profile.value(0) + laplace(rng, step2_scale);
    let step2_slack = step2_scale * (2.0 / beta).ln();
    diagnostics.charge("step2_zero_radius_test", PrivacyParams::pure(eps / 2.0)?);
    let loss_bound = 4.0 * gamma + step2_slack;
    // The paper's threshold is t − 2Γ − slack. When t is within a small
    // factor of 2Γ that threshold is close to zero (or negative) and a single
    // Laplace tail would spuriously declare a radius-0 cluster; we therefore
    // never fire the shortcut unless the noisy score also clears t/2. The
    // floor is data-independent (privacy unaffected), and whenever the
    // theorem's precondition t ≳ 4Γ holds with a factor-2 margin the floor is
    // below the paper's threshold, so Lemma 4.6's argument is unchanged.
    let zero_threshold = (t as f64 - 2.0 * gamma - step2_slack).max(t as f64 / 2.0);
    // An approximating backend cannot distinguish radius 0 from radius ≤
    // its slack: its L(0) already counts whole buckets. Releasing radius 0
    // on its say-so would send GoodCenter down the exact-duplicate-point
    // branch, which then (correctly) finds nothing and fails the query. So
    // the shortcut only fires on an *exact-kind* backend; approximating
    // backends fall through to the grid search, which resolves radii at
    // the slack scale anyway. The routing condition is the backend KIND —
    // fixed by registration configuration and the public dataset size,
    // never by the data — NOT the realised `radius_slack()` (which is a
    // data-dependent quantity: branching on it would leak an un-noised bit
    // and void the DP guarantee). The Laplace test above still ran and was
    // charged either way.
    if noisy_l0 > zero_threshold && index.kind() == BackendKind::Exact {
        return Ok(GoodRadiusOutcome {
            radius: 0.0,
            degenerate_zero: true,
            gamma,
            loss_bound,
            diagnostics,
        });
    }

    // ---- Step 4: private search over the radius grid.
    let oracle = RadiusQuality {
        profile: &profile,
        t: t as f64,
        slack: (4.0 * gamma).min(t as f64 / 2.0),
        grid_len,
    };

    let radius = match config.strategy {
        RadiusSearchStrategy::PiecewiseExpMech => {
            let idx = solve_quasiconcave(&oracle, &solver_cfg, rng)?;
            diagnostics.charge(
                "step4_piecewise_exp_mech",
                PrivacyParams::new(eps / 2.0, delta)?,
            );
            domain.radius_from_index(idx)
        }
        RadiusSearchStrategy::NoisyBinarySearch => {
            let steps = (grid_len.max(2) as f64).log2().ceil() as usize;
            let per_step_scale = 4.0 * steps as f64 / eps; // sensitivity 2, budget ε/2 over `steps` comparisons
            let err = per_step_scale * (2.0 * steps as f64 / (beta / 2.0)).ln();
            let target = t as f64 - err;
            let mut lo = 0u64;
            let mut hi = grid_len - 1;
            for _ in 0..steps {
                if lo >= hi {
                    break;
                }
                let mid = lo + (hi - lo) / 2;
                // L(r_mid) is the profile's value at quarter index 2·mid.
                let noisy = profile.value(mid.saturating_mul(2)) + laplace(rng, per_step_scale);
                if noisy >= target {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            diagnostics.charge("step4_noisy_binary_search", PrivacyParams::pure(eps / 2.0)?);
            domain.radius_from_index(hi)
        }
    };

    Ok(GoodRadiusOutcome {
        radius,
        degenerate_zero: false,
        gamma,
        loss_bound,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use privcluster_datagen::planted_ball_cluster;
    use privcluster_dp::exponential::{
        exponential_mechanism, piecewise_exponential_mechanism, PiecewiseQuality, Segment,
    };
    use privcluster_geometry::{
        smallest_ball_two_approx, tol, BallCounter, Point, ProjectedBackend, ProjectedConfig,
    };
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn default_privacy() -> PrivacyParams {
        PrivacyParams::new(1.0, 1e-6).unwrap()
    }

    #[test]
    fn parameter_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let data = Dataset::from_rows(vec![vec![0.0, 0.0], vec![0.1, 0.1]]).unwrap();
        let cfg = GoodRadiusConfig::default();
        assert!(good_radius(&data, &domain, 0, default_privacy(), 0.1, &cfg, &mut rng).is_err());
        assert!(good_radius(&data, &domain, 3, default_privacy(), 0.1, &cfg, &mut rng).is_err());
        assert!(good_radius(&data, &domain, 1, default_privacy(), 0.0, &cfg, &mut rng).is_err());
        let wrong_dim = GridDomain::unit_cube(3, 1 << 10).unwrap();
        assert!(good_radius(&data, &wrong_dim, 1, default_privacy(), 0.1, &cfg, &mut rng).is_err());
        let bad_alpha = GoodRadiusConfig {
            alpha: 1.5,
            ..GoodRadiusConfig::default()
        };
        assert!(good_radius(
            &data,
            &domain,
            1,
            default_privacy(),
            0.1,
            &bad_alpha,
            &mut rng
        )
        .is_err());
    }

    #[test]
    fn quality_function_is_quasi_concave_on_planted_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let inst = planted_ball_cluster(&domain, 300, 150, 0.02, &mut rng);
        let t = 120usize;
        let counter = BallCounter::new(&inst.data, t);
        let profile = counter.grid_profile(&domain);
        let oracle = RadiusQuality {
            profile: &profile,
            t: t as f64,
            slack: 80.0,
            grid_len: domain.radius_grid_len(),
        };
        // Sample the quality on a coarse index grid and check quasi-concavity:
        // Q(mid) >= min(Q(left), Q(right)).
        let len = oracle.len();
        let probes: Vec<u64> = (0..60).map(|i| i * (len - 1) / 59).collect();
        for i in 0..probes.len() {
            for j in (i + 1)..probes.len() {
                for k in (j + 1)..probes.len() {
                    let (a, b, c) = (
                        oracle.quality(probes[i]),
                        oracle.quality(probes[j]),
                        oracle.quality(probes[k]),
                    );
                    assert!(
                        b >= a.min(c) - 1e-9,
                        "quasi-concavity violated at ({},{},{})",
                        probes[i],
                        probes[j],
                        probes[k]
                    );
                }
            }
        }
    }

    /// Datasets of the four shapes the grid-profile proptest covers — tie
    /// heavy, on the domain's grid, straddling quarter-radius thresholds,
    /// and off the grid with a dense clump — each with its domain.
    fn shaped_datasets(seed: u64) -> Vec<(Dataset, GridDomain)> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cases = Vec::new();
        // Tie heavy: a 1/4 grid, off-grid rows and exact copies, 1–3 dims.
        let dim = 1 + (seed % 3) as usize;
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for _ in 0..40 {
            let row = match rng.gen_range(0..3) {
                1 => (0..dim).map(|_| rng.gen::<f64>()).collect(),
                2 if !rows.is_empty() => rows[rng.gen_range(0..rows.len())].clone(),
                _ => (0..dim)
                    .map(|_| f64::from(rng.gen_range(0u32..5)) / 4.0)
                    .collect(),
            };
            rows.push(row);
        }
        let tie_heavy = Dataset::from_rows(rows).unwrap();
        cases.push((tie_heavy, GridDomain::unit_cube(dim, 5).unwrap()));
        // On the domain's grid, in its first 12 values per axis.
        let domain = GridDomain::unit_cube(2, 64).unwrap();
        let rows = (0..50)
            .map(|_| {
                (0..2)
                    .map(|_| rng.gen_range(0u32..12) as f64 * domain.grid_step())
                    .collect()
            })
            .collect();
        cases.push((Dataset::from_rows(rows).unwrap(), domain));
        // The origin and points a few tolerance widths off quarter radii.
        let domain = GridDomain::unit_cube(1, 33).unwrap();
        let mut rows = vec![vec![0.0]];
        for _ in 0..24 {
            let k = rng.gen_range(1u64..=12);
            let m = rng.gen_range(-40i64..=40);
            let quarter = domain.radius_from_index(k) / 2.0;
            rows.push(vec![quarter * (1.0 + m as f64 * 1e-13)]);
        }
        cases.push((Dataset::from_rows(rows).unwrap(), domain));
        // Off the grid, a third of the points in a small square.
        let rows = (0..90)
            .map(|i| {
                let spread = if i < 30 { 0.05 } else { 1.0 };
                vec![
                    0.4 + spread * (rng.gen::<f64>() - 0.4),
                    0.6 + spread * (rng.gen::<f64>() - 0.6),
                ]
            })
            .collect();
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        cases.push((Dataset::from_rows(rows).unwrap(), domain));
        cases
    }

    /// GoodRadius's quality on both backends' grid profiles of every
    /// shaped dataset, at a small, a middling and the largest cap.
    fn shaped_qualities(mut check: impl FnMut(&RadiusQuality<'_>)) {
        for seed in 0..6 {
            for (data, domain) in shaped_datasets(seed) {
                let n = data.len();
                let exact = GeometryIndex::build(&data);
                let projected = ProjectedBackend::build(
                    &data,
                    ProjectedConfig {
                        max_buckets: Some(8),
                        ..ProjectedConfig::default()
                    },
                );
                let backends: [&dyn GeometryBackend; 2] = [&exact, &projected];
                for backend in backends {
                    for t in [2, n / 3, n] {
                        let profile = backend.grid_profile(t, &domain);
                        check(&RadiusQuality {
                            profile: &profile,
                            t: t as f64,
                            slack: t as f64 / 2.0,
                            grid_len: domain.radius_grid_len(),
                        });
                    }
                }
            }
        }
    }

    /// The segment check: at every grid index, `Q` equals `Q` at the start
    /// of its segment, bit for bit.
    #[test]
    fn segments_describe_constant_pieces_of_the_quality() {
        shaped_qualities(|oracle| {
            let starts = oracle.segment_starts().unwrap();
            assert_eq!(starts[0], 0);
            assert!(starts.windows(2).all(|w| w[0] < w[1]));
            assert!(*starts.last().unwrap() < oracle.len());
            let mut segment = 0;
            for k in 0..oracle.len() {
                if starts.get(segment + 1) == Some(&k) {
                    segment += 1;
                }
                let start = starts[segment];
                assert_eq!(
                    oracle.quality(k).to_bits(),
                    oracle.quality(start).to_bits(),
                    "Q({k}) differs from Q at its segment start {start}"
                );
            }
        });
    }

    /// The piecewise mechanism GoodRadius runs, on its own `Q`, against the
    /// plain mechanism on `Q` materialised at every grid index: each index's
    /// output probability agrees up to float rounding. The piecewise side
    /// weights segment `s` by `len_s·exp(ε·Q_s/2)` and then draws uniformly
    /// inside it, exactly as `piecewise_exponential_mechanism` samples.
    #[test]
    fn piecewise_mechanism_on_the_quality_matches_the_materialized_one() {
        let eps = 1.0;
        let scale = eps / 2.0;
        let softmax = |logits: &[f64]| {
            let top = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let weights: Vec<f64> = logits.iter().map(|w| (w - top).exp()).collect();
            let total: f64 = weights.iter().sum();
            weights.into_iter().map(|w| w / total).collect::<Vec<f64>>()
        };
        shaped_qualities(|oracle| {
            let starts = oracle.segment_starts().unwrap();
            let len = oracle.len();
            let segments: Vec<Segment> = starts
                .iter()
                .enumerate()
                .map(|(i, &start)| Segment {
                    start,
                    len: starts.get(i + 1).copied().unwrap_or(len) - start,
                    quality: oracle.quality(start),
                })
                .collect();
            let piecewise = PiecewiseQuality::new(segments).unwrap();
            let logits: Vec<f64> = piecewise
                .segments()
                .iter()
                .map(|s| (s.len as f64).ln() + scale * s.quality)
                .collect();
            let per_segment = softmax(&logits);
            let materialized: Vec<f64> = (0..len).map(|k| scale * oracle.quality(k)).collect();
            let per_index = softmax(&materialized);
            for (s, &p) in piecewise.segments().iter().zip(&per_segment) {
                let p = p / s.len as f64;
                for k in s.start..s.start + s.len {
                    let q = per_index[k as usize];
                    assert!(
                        (p - q).abs() <= 1e-12 * p.max(q),
                        "index {k}: piecewise {p} vs materialised {q}"
                    );
                }
            }
        });
        // The sampled comparison of `piecewise_matches_materialized_mechanism`,
        // on one small grid: both samplers, 60,000 draws each.
        let (data, domain) = shaped_datasets(0).swap_remove(0);
        let profile = BallCounter::new(&data, 10).grid_profile(&domain);
        let oracle = RadiusQuality {
            profile: &profile,
            t: 10.0,
            slack: 5.0,
            grid_len: domain.radius_grid_len(),
        };
        let len = oracle.len() as usize;
        let starts = oracle.segment_starts().unwrap();
        assert!(
            starts.len() < len,
            "the grid has fewer segments than indices"
        );
        let segments = starts
            .iter()
            .enumerate()
            .map(|(i, &start)| Segment {
                start,
                len: starts.get(i + 1).copied().unwrap_or(len as u64) - start,
                quality: oracle.quality(start),
            })
            .collect();
        let piecewise = PiecewiseQuality::new(segments).unwrap();
        let materialized: Vec<f64> = (0..len as u64).map(|k| oracle.quality(k)).collect();
        let mut rng = StdRng::seed_from_u64(5);
        let trials = 60_000;
        let mut counts_piece = vec![0usize; len];
        let mut counts_plain = vec![0usize; len];
        for _ in 0..trials {
            counts_piece[piecewise_exponential_mechanism(&piecewise, eps, 1.0, &mut rng).unwrap()
                as usize] += 1;
            counts_plain[exponential_mechanism(&materialized, eps, 1.0, &mut rng).unwrap()] += 1;
        }
        for k in 0..len {
            let p = counts_piece[k] as f64 / trials as f64;
            let q = counts_plain[k] as f64 / trials as f64;
            assert!((p - q).abs() < 0.012, "index {k}: {p} vs {q}");
        }
    }

    /// Asserts `|Q(k, S) − Q(k, S')| ≤ 1` at every grid index `k`, on the
    /// exact backend's grid profiles of `s` and `neighbour` for cap `t`, at
    /// a small and at the largest slack the mechanism uses.
    fn assert_quality_moves_at_most_one(
        s: &Dataset,
        neighbour: &Dataset,
        t: usize,
        domain: &GridDomain,
    ) {
        let a = GeometryIndex::build(s).grid_profile(t, domain);
        let b = GeometryIndex::build(neighbour).grid_profile(t, domain);
        for slack in [1.0, t as f64 / 2.0] {
            let quality = |profile| RadiusQuality {
                profile,
                t: t as f64,
                slack,
                grid_len: domain.radius_grid_len(),
            };
            let (qa, qb) = (quality(&a), quality(&b));
            for k in 0..domain.radius_grid_len() {
                let delta = (qa.quality(k) - qb.quality(k)).abs();
                assert!(
                    delta <= 1.0 + 1e-9,
                    "|ΔQ({k})| = {delta} at t = {t}, slack {slack}"
                );
            }
        }
    }

    #[test]
    fn sensitivity_of_the_quality_is_at_most_one() {
        // Q(k) = ½·min(t − L(r_k/2), L(r_k) − t + slack): each branch moves
        // with L, by at most 2 between neighbours (Lemma 4.5), so Q moves by
        // at most 1, whatever data-independent slack the mechanism uses.
        let (s, s_neighbour) = privcluster_datagen::sensitivity_example(20, 2);
        assert_quality_moves_at_most_one(
            &s,
            &s_neighbour,
            20,
            &GridDomain::new(2, 9, 0.0, 2.0).unwrap(),
        );
        // A clump of n/3 points with the rest of the data away from it, so
        // at t = n/3 moving one clump point moves L by almost 2.
        let mut rng = StdRng::seed_from_u64(12);
        let rows = (0..60)
            .map(|i| {
                let (corner, side) = if i < 20 { (0.2, 0.01) } else { (0.6, 0.4) };
                vec![
                    corner + side * rng.gen::<f64>(),
                    corner + side * rng.gen::<f64>(),
                ]
            })
            .collect();
        let clump = Dataset::from_rows(rows).unwrap();
        let mut cases = vec![(clump, GridDomain::unit_cube(2, 1 << 10).unwrap())];
        cases.extend(shaped_datasets(0));
        cases.extend(shaped_datasets(1));
        for (s, domain) in cases {
            let n = s.len();
            let far = Point::new(vec![domain.max(); s.dim()]);
            for t in [2, n / 3, n] {
                // A cap at which L is flat from radius 0 shows nothing.
                if GeometryIndex::build(&s).grid_profile(t, &domain).value(0) >= t as f64 {
                    continue;
                }
                // Row 0, the middle row and the last row, each replaced by a
                // copy of another row and by the domain's far corner.
                for row in [0, n / 2, n - 1] {
                    let copy = s.point((row + 1) % n).clone();
                    for replacement in [copy, far.clone()] {
                        let neighbour = s.replace_row(row, replacement).unwrap();
                        assert_quality_moves_at_most_one(&s, &neighbour, t, &domain);
                    }
                }
            }
        }
    }

    #[test]
    fn sensitivity_of_l_is_at_most_two() {
        // Lemma 4.5 where GoodRadius reads `L`: the exact backend's grid
        // profiles of neighbours differ by at most 2 at every quarter index.
        let served = |s: &Dataset, s_neighbour: &Dataset, t: usize, domain: &GridDomain| {
            let profile = |s| GeometryBackend::grid_profile(&GeometryIndex::build(s), t, domain);
            let (a, b) = (profile(s), profile(s_neighbour));
            for q in 0..=2 * (domain.radius_grid_len() - 1) {
                let delta = (a.value(q) - b.value(q)).abs();
                assert!(delta <= 2.0 + 1e-9, "|ΔL(ρ_{q})| = {delta} at t = {t}");
            }
        };
        // The paper's own worst-case example, also through the breakpoint
        // profile.
        let (s, s_neighbour) = privcluster_datagen::sensitivity_example(20, 2);
        let t = 20usize;
        let a = BallCounter::new(&s, t).l_profile();
        let b = BallCounter::new(&s_neighbour, t).l_profile();
        for r in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
            assert!(
                (a.value_at(r) - b.value_at(r)).abs() <= 2.0 + 1e-9,
                "sensitivity violated at r={r}"
            );
        }
        served(
            &s,
            &s_neighbour,
            t,
            &GridDomain::new(2, 9, 0.0, 2.0).unwrap(),
        );
        // At the tolerance's edge: t/2 points at 0 and t/2 just past
        // `T₄ = ball_threshold(ρ_4)`, and a neighbour that moves one of the
        // latter just inside it. Grouping distances at the tolerance would
        // count all of them at `ρ_4` in the neighbour and move `L` by t/2.
        let domain = GridDomain::unit_cube(1, 5).unwrap();
        let edge = tol::ball_threshold(domain.radius_from_index(4) / 2.0);
        for t in [8usize, 20, 64] {
            let mut rows = vec![vec![0.0]; t / 2];
            rows.extend(std::iter::repeat_n(vec![edge + 1e-13], t / 2));
            let s = Dataset::from_rows(rows).unwrap();
            let s_neighbour = s.replace_row(t - 1, Point::new(vec![edge - 1e-14]));
            served(&s, &s_neighbour.unwrap(), t, &domain);
        }
    }

    #[test]
    fn finds_a_radius_comparable_to_the_planted_cluster() {
        let mut rng = StdRng::seed_from_u64(4);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let n = 600;
        let t = 300;
        let inst = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
        let cfg = GoodRadiusConfig::default();
        let out = good_radius(
            &inst.data,
            &domain,
            t,
            default_privacy(),
            0.1,
            &cfg,
            &mut rng,
        )
        .unwrap();
        assert!(!out.degenerate_zero);
        // There must actually exist a ball of the returned radius holding
        // ≈ t − loss points (we verify non-privately).
        let counter = BallCounter::new(&inst.data, t);
        let achieved = counter.max_capped_count(out.radius) as f64;
        assert!(
            achieved >= t as f64 - out.loss_bound - 1.0,
            "radius {} only captures {achieved} (needs ≥ {})",
            out.radius,
            t as f64 - out.loss_bound
        );
        // And the radius must be within a constant factor of the 2-approx
        // (hence within ~8x of r_opt; the paper proves 4x w.h.p.).
        let two_approx = smallest_ball_two_approx(&inst.data, t).unwrap().radius();
        assert!(
            out.radius <= 4.0 * two_approx + domain.grid_step(),
            "radius {} vs 2-approx {two_approx}",
            out.radius
        );
    }

    #[test]
    fn with_index_is_bit_identical_to_rebuild() {
        let mut rng = StdRng::seed_from_u64(8);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let t = 200;
        let inst = planted_ball_cluster(&domain, 400, t, 0.02, &mut rng);
        let cfg = GoodRadiusConfig::default();
        let privacy = default_privacy();
        let baseline = {
            let mut rng = StdRng::seed_from_u64(99);
            good_radius(&inst.data, &domain, t, privacy, 0.1, &cfg, &mut rng).unwrap()
        };
        let index = GeometryIndex::build(&inst.data);
        // Ask twice: the second call must reuse the cached profile and
        // still match bit-for-bit.
        for _ in 0..2 {
            let mut rng = StdRng::seed_from_u64(99);
            let out = good_radius_with_index(
                &inst.data, &domain, t, privacy, 0.1, &cfg, &index, &mut rng,
            )
            .unwrap();
            assert_eq!(
                out.radius.to_bits(),
                baseline.radius.to_bits(),
                "the shared index diverged from a per-query rebuild"
            );
            assert_eq!(out.degenerate_zero, baseline.degenerate_zero);
        }
        assert_eq!(index.cached_profiles(), 1);
    }

    #[test]
    fn with_index_rejects_a_mismatched_index() {
        let mut rng = StdRng::seed_from_u64(10);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let data = Dataset::from_rows(vec![vec![0.1, 0.1]; 20]).unwrap();
        let other = Dataset::from_rows(vec![vec![0.2, 0.2]; 7]).unwrap();
        let index = GeometryIndex::build(&other);
        assert!(good_radius_with_index(
            &data,
            &domain,
            5,
            default_privacy(),
            0.1,
            &GoodRadiusConfig::default(),
            &index,
            &mut rng,
        )
        .is_err());
    }

    #[test]
    fn noisy_binary_search_strategy_also_works() {
        let mut rng = StdRng::seed_from_u64(5);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let t = 300;
        let inst = planted_ball_cluster(&domain, 600, t, 0.02, &mut rng);
        let cfg = GoodRadiusConfig {
            strategy: RadiusSearchStrategy::NoisyBinarySearch,
            alpha: 0.5,
        };
        let out = good_radius(
            &inst.data,
            &domain,
            t,
            default_privacy(),
            0.1,
            &cfg,
            &mut rng,
        )
        .unwrap();
        let counter = BallCounter::new(&inst.data, t);
        let achieved = counter.max_capped_count(out.radius) as f64;
        assert!(achieved >= t as f64 - out.loss_bound - 1.0);
        let two_approx = smallest_ball_two_approx(&inst.data, t).unwrap().radius();
        assert!(out.radius <= 4.0 * two_approx + domain.grid_step());
    }

    #[test]
    fn degenerate_cluster_of_identical_points_returns_radius_zero() {
        let mut rng = StdRng::seed_from_u64(6);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        // 400 identical points plus 100 scattered ones; t = 300.
        let mut rows = vec![vec![0.25, 0.25]; 400];
        for i in 0..100 {
            rows.push(vec![0.7 + (i as f64) * 1e-3, 0.1 + (i as f64) * 1e-3]);
        }
        let data = Dataset::from_rows(rows).unwrap();
        let out = good_radius(
            &data,
            &domain,
            300,
            default_privacy(),
            0.1,
            &GoodRadiusConfig::default(),
            &mut rng,
        )
        .unwrap();
        assert!(out.degenerate_zero);
        assert_eq!(out.radius, 0.0);
    }

    #[test]
    fn privacy_ledger_stays_within_the_declared_budget() {
        let mut rng = StdRng::seed_from_u64(7);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let inst = planted_ball_cluster(&domain, 200, 100, 0.03, &mut rng);
        let privacy = PrivacyParams::new(0.7, 1e-7).unwrap();
        let out = good_radius(
            &inst.data,
            &domain,
            100,
            privacy,
            0.1,
            &GoodRadiusConfig::default(),
            &mut rng,
        )
        .unwrap();
        out.diagnostics.ledger().verify_within(privacy).unwrap();
    }
}
