//! The full 1-cluster pipeline (Theorem 3.2): GoodRadius followed by
//! GoodCenter, with the privacy and failure budgets split between them.

use crate::config::OneClusterParams;
use crate::diagnostics::Diagnostics;
use crate::error::ClusterError;
use crate::good_center::good_center;
use crate::good_radius::good_radius_with_index;
use privcluster_dp::quasiconcave::QcSolverConfig;
use privcluster_geometry::{Ball, Dataset, GeometryBackend, GeometryIndex};
use rand::Rng;

/// The result of a full 1-cluster solve.
#[derive(Debug, Clone)]
pub struct OneClusterOutcome {
    /// The released ball (center and radius).
    pub ball: Ball,
    /// The intermediate radius released by GoodRadius (≤ 4·r_opt w.h.p.).
    pub radius_estimate: f64,
    /// The additive cluster-size loss bound `Δ` of the run: with probability
    /// `1 − β` the released ball contains at least `t − Δ` input points.
    pub loss_bound: f64,
    /// The privacy charges of both stages.
    pub diagnostics: Diagnostics,
}

/// Solves the 1-cluster problem `(X^d, n, t)` on `data` under the given
/// parameters (Definition 1.2 / Theorem 3.2).
///
/// The privacy budget is split evenly between GoodRadius and GoodCenter, the
/// failure probability likewise; by basic composition (Theorem 2.1) the whole
/// call is `(ε, δ)`-differentially private. Runs
/// [`one_cluster_with_index`] on an exact [`GeometryIndex`] built for this
/// call.
pub fn one_cluster<R: Rng + ?Sized>(
    data: &Dataset,
    params: &OneClusterParams,
    rng: &mut R,
) -> Result<OneClusterOutcome, ClusterError> {
    one_cluster_with_index(data, params, &GeometryIndex::build(data), rng)
}

/// [`one_cluster`] against a prebuilt, shareable [`GeometryBackend`] of
/// `data`: the GoodRadius stage reuses the backend and the grid profiles
/// it has cached instead of building its own (GoodCenter never needed
/// it). Against the exact backend, results are bit-identical to
/// [`one_cluster`] for the same RNG stream; against an approximating
/// backend the radius stage carries the backend's documented slack.
pub fn one_cluster_with_index<R: Rng + ?Sized>(
    data: &Dataset,
    params: &OneClusterParams,
    index: &dyn GeometryBackend,
    rng: &mut R,
) -> Result<OneClusterOutcome, ClusterError> {
    params.validate_against(data.len())?;
    if data.dim() != params.domain.dim() {
        return Err(ClusterError::InvalidParameter(format!(
            "data dimension {} does not match domain dimension {}",
            data.dim(),
            params.domain.dim()
        )));
    }
    if params.strict {
        let required_t = strict_t_bound(params)?;
        if params.t as f64 <= required_t {
            return Err(ClusterError::ClusterTooSmall {
                requested_t: params.t,
                required_t,
            });
        }
    }

    let mut diagnostics = Diagnostics::new();
    let half = params.privacy.scale(0.5)?;
    let half_beta = params.beta / 2.0;

    // Stage 1: radius.
    let radius_out = good_radius_with_index(
        data,
        &params.domain,
        params.t,
        half,
        half_beta,
        &params.radius_config,
        index,
        rng,
    )?;
    let radius_estimate = radius_out.radius;
    let radius_loss = radius_out.loss_bound;
    diagnostics.absorb("good_radius", radius_out.diagnostics);

    // Stage 2: center.
    let center_out = good_center(
        data,
        radius_estimate,
        params.t,
        half,
        half_beta,
        &params.center_config,
        rng,
    )?;
    diagnostics.absorb("good_center", center_out.diagnostics);

    // The centre stage loses at most the sparse-vector slack plus the
    // stability-histogram loss on top of GoodRadius's loss (Lemma 4.12's
    // t − O((1/ε)·log(n/β)) term); we report the combined bound.
    let eps_center = half.epsilon();
    let center_loss = params
        .center_config
        .threshold_slack(eps_center, data.len(), half_beta)
        + 8.0 / eps_center * (2.0 * data.len() as f64 / half_beta).ln();
    let loss_bound = radius_loss + center_loss;

    Ok(OneClusterOutcome {
        ball: center_out.ball,
        radius_estimate,
        loss_bound,
        diagnostics,
    })
}

/// The cluster size strict mode requires: GoodRadius's loss bound
/// `4·Γ + (4/ε_r)·ln(2/β)` (Lemma 4.6, with `Γ` the promise the shipped
/// quasi-concave solver needs over the radius grid in place of
/// RecConcave's). GoodRadius gets `ε_r = ε/2` and spends half of it on the
/// solver, mirroring Algorithm 1's split. Refuses an `alpha` outside
/// `(0, 1)`, as GoodRadius does.
fn strict_t_bound(params: &OneClusterParams) -> Result<f64, ClusterError> {
    let radius_eps = params.privacy.epsilon() / 2.0;
    let solver = QcSolverConfig::new(
        radius_eps / 2.0,
        params.privacy.delta() / 2.0,
        params.radius_config.alpha,
        params.beta / 4.0,
    )?;
    let gamma = solver.required_promise(params.domain.radius_grid_len());
    Ok(4.0 * gamma + 4.0 / radius_eps * (2.0 / params.beta).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OneClusterParams;
    use privcluster_datagen::planted_ball_cluster;
    use privcluster_dp::PrivacyParams;
    use privcluster_geometry::GridDomain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn standard_params(domain: GridDomain, t: usize) -> OneClusterParams {
        OneClusterParams::new(domain, t, PrivacyParams::new(2.0, 1e-5).unwrap(), 0.1).unwrap()
    }

    #[test]
    fn rejects_mismatched_inputs() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(3, 1 << 10).unwrap();
        let params = standard_params(domain, 10);
        let wrong_dim = Dataset::from_rows(vec![vec![0.0, 0.0]; 20]).unwrap();
        assert!(one_cluster(&wrong_dim, &params, &mut rng).is_err());
        let tiny = Dataset::from_rows(vec![vec![0.0, 0.0, 0.0]; 5]).unwrap();
        assert!(one_cluster(&tiny, &params, &mut rng).is_err());
    }

    #[test]
    fn an_alpha_outside_the_unit_interval_is_an_error_not_a_panic() {
        let mut rng = StdRng::seed_from_u64(8);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let inst = planted_ball_cluster(&domain, 200, 100, 0.02, &mut rng);
        for alpha in [1.5, 0.0] {
            for strict in [false, true] {
                let mut params = standard_params(domain.clone(), 100);
                params.radius_config.alpha = alpha;
                params.strict = strict;
                let one = one_cluster(&inst.data, &params, &mut rng).unwrap_err();
                let k = crate::kcluster::k_cluster(&inst.data, 2, &params, &mut rng).unwrap_err();
                for err in [one, k] {
                    assert!(
                        err.to_string().contains("alpha must lie in (0,1)"),
                        "alpha {alpha}, strict {strict}: {err}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_strict_bound_admits_large_clusters_and_grows_as_epsilon_falls() {
        let bound = |eps: f64| {
            let params = OneClusterParams::new(
                GridDomain::unit_cube(4, 1 << 16).unwrap(),
                500,
                PrivacyParams::new(eps, 1e-6).unwrap(),
                0.1,
            )
            .unwrap();
            strict_t_bound(&params).unwrap()
        };
        let loose = bound(1.0);
        assert!((5.0..5_000.0).contains(&loose), "bound {loose} at ε = 1");
        assert!(bound(0.1) > loose);
    }

    #[test]
    fn strict_mode_rejects_undersized_clusters() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let inst = planted_ball_cluster(&domain, 200, 20, 0.02, &mut rng);
        let params = standard_params(GridDomain::unit_cube(2, 1 << 12).unwrap(), 20).strict();
        let result = one_cluster(&inst.data, &params, &mut rng);
        assert!(matches!(result, Err(ClusterError::ClusterTooSmall { .. })));
    }

    #[test]
    fn end_to_end_finds_the_planted_cluster() {
        let mut rng = StdRng::seed_from_u64(3);
        let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
        let n = 2_500;
        let t = 1_200;
        let inst = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
        let params = standard_params(GridDomain::unit_cube(2, 1 << 14).unwrap(), t);
        let out = one_cluster(&inst.data, &params, &mut rng).unwrap();
        // The released ball captures most of the planted cluster.
        let captured = inst.captured(&out.ball);
        assert!(
            captured as f64 >= 0.8 * t as f64,
            "only {captured}/{t} planted points captured (radius {})",
            out.ball.radius()
        );
        // The intermediate radius is a sane approximation (within 4x of the
        // planted radius plus grid effects, as the paper proves).
        assert!(out.radius_estimate <= 4.0 * inst.planted_ball.radius() + 0.01);
        assert!(out.radius_estimate > 0.0);
        assert!(out.loss_bound > 0.0);
    }

    #[test]
    fn with_index_is_bit_identical_to_rebuild() {
        let mut rng = StdRng::seed_from_u64(6);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let t = 400;
        let inst = planted_ball_cluster(&domain, 800, t, 0.02, &mut rng);
        let params = standard_params(GridDomain::unit_cube(2, 1 << 12).unwrap(), t);
        let baseline = {
            let mut rng = StdRng::seed_from_u64(77);
            one_cluster(&inst.data, &params, &mut rng).unwrap()
        };
        let index = GeometryIndex::build(&inst.data);
        let mut rng = StdRng::seed_from_u64(77);
        let out = one_cluster_with_index(&inst.data, &params, &index, &mut rng).unwrap();
        assert_eq!(
            out.ball.radius().to_bits(),
            baseline.ball.radius().to_bits(),
            "the shared index diverged from a per-query rebuild"
        );
        let bits = |p: &privcluster_geometry::Point| {
            p.coords().iter().map(|c| c.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(bits(out.ball.center()), bits(baseline.ball.center()));
        assert_eq!(
            out.radius_estimate.to_bits(),
            baseline.radius_estimate.to_bits()
        );
    }

    #[test]
    fn total_privacy_charges_stay_within_the_declared_budget() {
        let mut rng = StdRng::seed_from_u64(4);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let n = 2_000;
        let t = 1_000;
        let inst = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
        let params = standard_params(GridDomain::unit_cube(2, 1 << 12).unwrap(), t);
        let out = one_cluster(&inst.data, &params, &mut rng).unwrap();
        out.diagnostics
            .ledger()
            .verify_within(params.privacy)
            .unwrap();
    }

    #[test]
    fn works_in_moderate_dimension() {
        let mut rng = StdRng::seed_from_u64(5);
        let d = 8;
        let domain = GridDomain::unit_cube(d, 1 << 12).unwrap();
        let n = 3_000;
        let t = 2_000;
        let inst = planted_ball_cluster(&domain, n, t, 0.05, &mut rng);
        let params = OneClusterParams::new(
            GridDomain::unit_cube(d, 1 << 12).unwrap(),
            t,
            PrivacyParams::new(4.0, 1e-4).unwrap(),
            0.1,
        )
        .unwrap();
        let out = one_cluster(&inst.data, &params, &mut rng).unwrap();
        let captured = inst.captured(&out.ball);
        assert!(
            captured as f64 >= 0.7 * t as f64,
            "only {captured}/{t} captured in d={d} (radius {})",
            out.ball.radius()
        );
    }
}
