//! Algorithm 2: `GoodCenter`.
//!
//! Given a radius `r` produced by GoodRadius, privately locate a center `ŷ`
//! such that a ball of radius `O(r·√k)` around it (with `k = O(log n)` the
//! Johnson–Lindenstrauss dimension) captures ≈ `t` input points. The stages
//! follow Algorithm 2 step by step:
//!
//! 1. project the points to `R^k` with a JL transform (step 1);
//! 2. repeatedly draw randomly shifted box partitions of `R^k` of side
//!    `Θ(r)` and feed the "fullest box" count to `AboveThreshold` until a
//!    partition with a heavy box is found (steps 2–6);
//! 3. privately name that heavy box with the stability histogram (step 7) and
//!    let `D` be the input points projected into it;
//! 4. draw a random orthonormal basis of `R^d`, choose per-axis heavy
//!    intervals of `D`'s projections with the stability histogram, and extend
//!    them to capture all of `D` (steps 8–9);
//! 5. intersect with the deterministic capture ball `C` (step 10) and release
//!    the noisy average of `D ∩ C` with `NoisyAVG` (step 11).
//!
//! When the JL transform is the identity (the ambient dimension is already
//! `O(log n)`, which is the common case in low-dimensional workloads) and the
//! practical preset is active, the heavy box `B` already lives in the
//! original space; the implementation then uses `B`'s bounding ball directly
//! as the capture region `C`, skipping stages 4–5's rotation. That shortcut
//! changes none of the privacy accounting (the box is already a private
//! object and `C` is a deterministic function of it) and gives much tighter
//! output balls; the Paper preset always runs the full rotation machinery.

use crate::config::{CenterPreset, GoodCenterConfig};
use crate::diagnostics::Diagnostics;
use crate::error::ClusterError;
use privcluster_dp::composition::advanced_composition;
use privcluster_dp::noisy_avg::{noisy_average, NoisyAvgConfig};
use privcluster_dp::sparse_vector::{AboveThreshold, SvtAnswer};
use privcluster_dp::stability_histogram::{choose_heavy_bin, StabilityHistogramConfig};
use privcluster_dp::{DpError, PrivacyParams};
use privcluster_geometry::{
    Ball, BoxPartition, Dataset, JlTransform, OrthonormalBasis, Point, ShiftedIntervalPartition,
};
use rand::Rng;
use std::collections::HashMap;

/// The result of a GoodCenter run.
#[derive(Debug, Clone)]
pub struct GoodCenterOutcome {
    /// The released ball (center `ŷ` plus a radius that provably captures the
    /// points of the heavy box, up to the failure probability).
    pub ball: Ball,
    /// The a-priori radius the configuration promises (`O(r√k)`,
    /// `451·r·√k` under the paper constants). The released ball's radius is
    /// never larger than a small multiple of this.
    pub nominal_radius: f64,
    /// The JL dimension `k` that was used.
    pub jl_dim: usize,
    /// How many sparse-vector rounds ran before a heavy box was found.
    pub svt_rounds: usize,
    /// Execution trace.
    pub diagnostics: Diagnostics,
}

/// Hashable key for a grid point (used by the degenerate radius-0 branch).
fn point_key(p: &Point) -> Vec<u64> {
    p.coords().iter().map(|c| c.to_bits()).collect()
}

/// Runs Algorithm 2 on `data`, looking for ≈ `t` points inside some ball of
/// radius `radius` (as certified by GoodRadius). Consumes the whole `privacy`
/// budget.
pub fn good_center<R: Rng + ?Sized>(
    data: &Dataset,
    radius: f64,
    t: usize,
    privacy: PrivacyParams,
    beta: f64,
    config: &GoodCenterConfig,
    rng: &mut R,
) -> Result<GoodCenterOutcome, ClusterError> {
    let n = data.len();
    let d = data.dim();
    if n == 0 {
        return Err(ClusterError::InvalidParameter("dataset is empty".into()));
    }
    if t == 0 || t > n {
        return Err(ClusterError::InvalidParameter(format!(
            "t must satisfy 1 <= t <= n (t = {t}, n = {n})"
        )));
    }
    if !(radius.is_finite() && radius >= 0.0) {
        return Err(ClusterError::InvalidParameter(format!(
            "radius must be non-negative and finite, got {radius}"
        )));
    }
    if !(beta.is_finite() && beta > 0.0 && beta < 1.0) {
        return Err(ClusterError::InvalidParameter(format!(
            "beta must lie in (0,1), got {beta}"
        )));
    }
    if privacy.delta() == 0.0 {
        return Err(ClusterError::InvalidParameter(
            "GoodCenter requires δ > 0".into(),
        ));
    }

    let mut diagnostics = Diagnostics::new();
    let eps = privacy.epsilon();
    let delta = privacy.delta();
    let quarter = PrivacyParams::new(eps / 4.0, delta / 4.0)?;

    // ---- Degenerate radius: the cluster is a single grid point. A stability
    // histogram over exact point values finds it with the whole budget.
    if radius == 0.0 {
        let mut counts: HashMap<Vec<u64>, usize> = HashMap::new();
        for p in data.iter() {
            *counts.entry(point_key(p)).or_insert(0) += 1;
        }
        let hist_cfg = StabilityHistogramConfig::new(eps, delta)?;
        diagnostics.charge("degenerate_point_histogram", privacy);
        let (key, _) = choose_heavy_bin(&counts, &hist_cfg, rng).map_err(|e| match e {
            DpError::NoOutput => ClusterError::CenterNotFound(
                "no single grid point is stably heavy for the radius-0 cluster".into(),
            ),
            other => ClusterError::Dp(other),
        })?;
        let center = Point::new(key.iter().map(|&bits| f64::from_bits(bits)).collect());
        diagnostics.event("degenerate radius-0 center released");
        return Ok(GoodCenterOutcome {
            ball: Ball::new(center, 0.0)?,
            nominal_radius: 0.0,
            jl_dim: d,
            svt_rounds: 0,
            diagnostics,
        });
    }

    // ---- Step 1: Johnson–Lindenstrauss projection.
    let k = config.jl_dim(n, beta, d);
    let (jl, identity_projection) = if k < d {
        (JlTransform::sample(d, k, rng)?, false)
    } else {
        (JlTransform::identity(d), true)
    };
    let projected = jl.project_dataset(data)?;
    diagnostics.metric("jl_dim", k as f64);

    // ---- Steps 2–6: scan random box partitions with AboveThreshold.
    let threshold = t as f64 - config.threshold_slack(eps, n, beta);
    let mut svt = AboveThreshold::new(eps / 4.0, threshold, rng)?;
    diagnostics.charge("above_threshold_scan", PrivacyParams::pure(eps / 4.0)?);
    let box_side = config.box_side(radius, k);
    let max_rounds = config.max_rounds(n, beta);
    let mut chosen_partition: Option<BoxPartition> = None;
    let mut rounds = 0usize;
    for _ in 0..max_rounds {
        rounds += 1;
        let partition = BoxPartition::random_cubes(k, box_side, rng)?;
        let q = partition.max_cell_count(&projected) as f64;
        if svt.query(q, rng)? == SvtAnswer::Above {
            chosen_partition = Some(partition);
            break;
        }
    }
    diagnostics.metric("svt_rounds", rounds as f64);
    let partition = chosen_partition.ok_or_else(|| {
        ClusterError::CenterNotFound(format!(
            "no heavy box found in {rounds} sparse-vector rounds (threshold {threshold:.1})"
        ))
    })?;

    // ---- Step 7: privately name the heavy box.
    let hist_cfg = StabilityHistogramConfig::new(eps / 4.0, delta / 4.0)?;
    diagnostics.charge("heavy_box_choice", quarter);
    let histogram = partition.histogram(&projected);
    let (cell, _) = choose_heavy_bin(&histogram, &hist_cfg, rng).map_err(|e| match e {
        DpError::NoOutput => {
            ClusterError::CenterNotFound("the winning partition has no stably heavy box".into())
        }
        other => ClusterError::Dp(other),
    })?;
    let heavy_box = partition.cell_box(&cell)?;
    let member_indices: Vec<usize> = projected
        .iter()
        .enumerate()
        .filter(|(_, p)| heavy_box.contains(p))
        .map(|(i, _)| i)
        .collect();
    let captured = data.select(&member_indices);
    diagnostics.metric("box_member_count", captured.len() as f64);

    // ---- Steps 8–10: determine the deterministic capture region C.
    let (capture_center, capture_radius, diameter_bound) = if identity_projection
        && config.preset == CenterPreset::Practical
    {
        // Shortcut: the heavy box already lives in the original space.
        let ball = heavy_box.bounding_ball();
        let r_c = ball.radius();
        diagnostics.event("identity projection: using the heavy box as the capture region");
        (ball.center().clone(), r_c, 2.0 * r_c)
    } else {
        // Full rotation machinery.
        let basis = OrthonormalBasis::random(d, rng)?;
        let p_len = config.axis_interval(radius, k, d, n, beta);
        // Per-axis privacy parameters (paper: ε/(10√(d·ln(8/δ))), δ/(8d)),
        // composed over the d axes with advanced composition.
        let eps_axis = eps / (10.0 * ((d as f64) * (8.0 / delta).ln()).sqrt());
        let delta_axis = delta / (8.0 * d as f64);
        let axis_cfg = StabilityHistogramConfig::new(eps_axis, delta_axis)?;
        let composed =
            advanced_composition(PrivacyParams::new(eps_axis, delta_axis)?, d, delta / 8.0)?;
        diagnostics.charge("axis_interval_choices", composed);
        diagnostics.metric("axis_interval_length", p_len);

        let mut center_coords = Vec::with_capacity(d);
        for axis in 0..d {
            let part = ShiftedIntervalPartition::new(p_len, 0.0)?;
            let mut counts: HashMap<i64, usize> = HashMap::new();
            for p in captured.iter() {
                *counts
                    .entry(part.cell_index(basis.project(p, axis)))
                    .or_insert(0) += 1;
            }
            let (cell_idx, _) = choose_heavy_bin(&counts, &axis_cfg, rng).map_err(|e| match e {
                DpError::NoOutput => ClusterError::CenterNotFound(format!(
                    "axis {axis}: no stably heavy interval (|D| too small for the per-axis budget)"
                )),
                other => ClusterError::Dp(other),
            })?;
            let (lo, hi) = part.cell_bounds(cell_idx);
            // Extend by p on each side (step 9c); the centre of Î_i.
            center_coords.push(((lo - p_len) + (hi + p_len)) / 2.0);
        }
        let c = basis.from_coordinates(&center_coords)?;
        let r_c = config.capture_radius(radius, k, d, n, beta);
        (c, r_c, 2.0 * r_c)
    };
    diagnostics.metric("capture_radius", capture_radius);

    let capture_ball = Ball::new(capture_center.clone(), capture_radius)?;
    let final_points: Vec<Point> = captured
        .iter()
        .filter(|p| capture_ball.contains(p))
        .cloned()
        .collect();
    diagnostics.metric("capture_member_count", final_points.len() as f64);

    // ---- Step 11: noisy average of D' = D ∩ C.
    let avg_cfg = NoisyAvgConfig::new(eps / 4.0, delta / 4.0, diameter_bound)?;
    diagnostics.charge("noisy_average", quarter);
    let outcome =
        noisy_average(&final_points, d, &capture_center, &avg_cfg, rng).map_err(|e| match e {
            DpError::NoOutput => ClusterError::CenterNotFound(
                "NoisyAVG declined (too few points in the capture region)".into(),
            ),
            other => ClusterError::Dp(other),
        })?;
    diagnostics.metric("noisy_avg_sigma", outcome.sigma);

    // The released radius: every point of D lies within `diameter_bound` of
    // the true average (it lies in a region of that diameter containing the
    // average), and the noise displaces the centre by at most
    // `σ·(√d + 3)` except with negligible probability.
    let noise_margin = outcome.sigma * ((d as f64).sqrt() + 3.0);
    let released_radius = diameter_bound + noise_margin;
    let nominal_radius = config.output_radius(radius, k);
    diagnostics.metric("released_radius", released_radius);
    diagnostics.metric("nominal_radius", nominal_radius);

    Ok(GoodCenterOutcome {
        ball: Ball::new(outcome.average, released_radius)?,
        nominal_radius,
        jl_dim: k,
        svt_rounds: rounds,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GoodCenterConfig;
    use privcluster_datagen::planted_ball_cluster;
    use privcluster_geometry::GridDomain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn privacy() -> PrivacyParams {
        PrivacyParams::new(2.0, 1e-5).unwrap()
    }

    #[test]
    fn parameter_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Dataset::from_rows(vec![vec![0.0, 0.0], vec![0.1, 0.1]]).unwrap();
        let cfg = GoodCenterConfig::practical();
        assert!(good_center(&data, 0.1, 0, privacy(), 0.1, &cfg, &mut rng).is_err());
        assert!(good_center(&data, 0.1, 5, privacy(), 0.1, &cfg, &mut rng).is_err());
        assert!(good_center(&data, -1.0, 1, privacy(), 0.1, &cfg, &mut rng).is_err());
        assert!(good_center(&data, 0.1, 1, privacy(), 0.0, &cfg, &mut rng).is_err());
        let pure = PrivacyParams::pure(1.0).unwrap();
        assert!(good_center(&data, 0.1, 1, pure, 0.1, &cfg, &mut rng).is_err());
    }

    #[test]
    fn locates_a_planted_cluster_with_practical_constants() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
        let n = 2_000;
        let t = 1_000;
        let inst = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
        // Radius as GoodRadius would produce it: within 4x of optimal.
        let r = 0.08;
        let cfg = GoodCenterConfig::practical();
        let out = good_center(&inst.data, r, t, privacy(), 0.1, &cfg, &mut rng).unwrap();
        // The released ball must capture most of the planted cluster.
        let captured = inst.captured(&out.ball);
        assert!(
            captured as f64 >= 0.8 * t as f64,
            "only {captured}/{t} planted points captured by the released ball (radius {})",
            out.ball.radius()
        );
        // And its radius should stay well below the domain diameter.
        assert!(out.ball.radius() < domain.diameter());
        assert!(out.svt_rounds >= 1);
        assert_eq!(out.jl_dim, 2);
        assert!(
            out.diagnostics
                .metrics()
                .get("box_member_count")
                .copied()
                .unwrap()
                >= 0.8 * t as f64
        );
    }

    #[test]
    fn rotation_path_runs_when_forced_through_paper_preset() {
        // With the Paper preset the rotation machinery always runs. Use a
        // large cluster and a generous δ so the per-axis histograms succeed.
        let mut rng = StdRng::seed_from_u64(3);
        let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
        let n = 4_000;
        let t = 3_600;
        let inst = planted_ball_cluster(&domain, n, t, 0.01, &mut rng);
        let cfg = GoodCenterConfig::paper();
        let generous = PrivacyParams::new(8.0, 1e-3).unwrap();
        let out = good_center(&inst.data, 0.04, t, generous, 0.2, &cfg, &mut rng).unwrap();
        // The paper constants give a huge but finite ball that still contains
        // the cluster.
        let captured = inst.captured(&out.ball);
        assert!(
            captured as f64 >= 0.9 * t as f64,
            "only {captured}/{t} captured"
        );
        assert!(out.ball.radius().is_finite());
        assert!(out.nominal_radius > 0.0);
    }

    #[test]
    fn degenerate_radius_zero_returns_the_heavy_grid_point() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut rows = vec![vec![0.25, 0.75]; 500];
        rows.extend((0..50).map(|i| vec![0.9, 0.001 * i as f64]));
        let data = Dataset::from_rows(rows).unwrap();
        let cfg = GoodCenterConfig::practical();
        let out = good_center(&data, 0.0, 400, privacy(), 0.1, &cfg, &mut rng).unwrap();
        assert_eq!(out.ball.radius(), 0.0);
        assert_eq!(out.ball.center().coords(), &[0.25, 0.75]);
        assert_eq!(out.svt_rounds, 0);
    }

    #[test]
    fn too_small_clusters_are_reported_not_fabricated() {
        // With a tiny cluster and strict privacy the pipeline should fail
        // loudly (CenterNotFound) rather than return an arbitrary ball.
        let mut rng = StdRng::seed_from_u64(5);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let inst = planted_ball_cluster(&domain, 60, 12, 0.02, &mut rng);
        let strict_privacy = PrivacyParams::new(0.2, 1e-9).unwrap();
        let cfg = GoodCenterConfig::practical();
        let result = good_center(&inst.data, 0.08, 12, strict_privacy, 0.05, &cfg, &mut rng);
        assert!(matches!(result, Err(ClusterError::CenterNotFound(_))));
    }

    #[test]
    fn privacy_ledger_stays_within_budget() {
        let mut rng = StdRng::seed_from_u64(6);
        let domain = GridDomain::unit_cube(3, 1 << 12).unwrap();
        let n = 2_500;
        let t = 1_500;
        let inst = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
        let budget = privacy();
        let cfg = GoodCenterConfig::practical();
        let out = good_center(&inst.data, 0.08, t, budget, 0.1, &cfg, &mut rng).unwrap();
        out.diagnostics.ledger().verify_within(budget).unwrap();
    }
}
