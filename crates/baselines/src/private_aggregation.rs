//! The private-aggregation baseline (Table 1, row 1; \[NRS07\]-style).
//!
//! The behaviourally equivalent restriction of Nissim–Raskhodnikova–Smith's
//! aggregation to `R^d`: release a noisy mean of *all* points with noise
//! scaled to the whole domain's diameter, then privately search for the
//! smallest grid radius whose ball around that center holds ≈ `t` points.
//! Characteristics that Table 1 contrasts, all visible here:
//!
//! * when a majority cluster exists the center lands inside it but the noise
//!   is `Θ(√d/ε)` of the domain scale, so the radius error grows with `√d`;
//! * when no majority cluster exists (`t ≤ 0.51·n` fails) the mean sits
//!   between the clusters and the returned ball is uninformative.

use crate::solver::{OneClusterSolver, SolverOutput};
use privcluster_core::ClusterError;
use privcluster_dp::noisy_avg::{noisy_average, NoisyAvgConfig};
use privcluster_dp::sampling::laplace;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{Ball, Dataset, GridDomain, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The private-aggregation baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrivateAggregationSolver;

impl PrivateAggregationSolver {
    fn solve_impl<R: Rng + ?Sized>(
        data: &Dataset,
        domain: &GridDomain,
        t: usize,
        privacy: PrivacyParams,
        beta: f64,
        rng: &mut R,
    ) -> Result<Ball, ClusterError> {
        if t == 0 || t > data.len() {
            return Err(ClusterError::InvalidParameter(format!(
                "t must satisfy 1 <= t <= n (t = {t}, n = {})",
                data.len()
            )));
        }
        let half = privacy.scale(0.5)?;

        // Stage 1: noisy mean of everything, noise scaled to the domain.
        let center_ref = Point::splat(domain.dim(), (domain.min() + domain.max()) / 2.0);
        let cfg = NoisyAvgConfig::new(half.epsilon(), half.delta().max(1e-12), domain.diameter())?;
        let all: Vec<Point> = data.iter().cloned().collect();
        let mean = noisy_average(&all, domain.dim(), &center_ref, &cfg, rng)?;
        let center = mean.average.clamp_coords(domain.min(), domain.max());

        // Stage 2: noisy binary search over the radius grid for the smallest
        // radius whose ball around `center` holds ≈ t points (counting query,
        // sensitivity 1).
        let grid_len = domain.radius_grid_len();
        let steps = (grid_len.max(2) as f64).log2().ceil() as usize;
        let per_step_scale = 2.0 * steps as f64 / half.epsilon();
        let err = per_step_scale * (2.0 * steps as f64 / beta).ln();
        let target = t as f64 - err;
        let mut lo = 0u64;
        let mut hi = grid_len - 1;
        for _ in 0..steps {
            if lo >= hi {
                break;
            }
            let mid = lo + (hi - lo) / 2;
            let ball = Ball::new(center.clone(), domain.radius_from_index(mid))?;
            let noisy = data.count_in_ball(&ball) as f64 + laplace(rng, per_step_scale);
            if noisy >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Ok(Ball::new(center, domain.radius_from_index(hi))?)
    }
}

impl OneClusterSolver for PrivateAggregationSolver {
    fn name(&self) -> &'static str {
        "private-aggregation [NRS07]"
    }

    fn is_private(&self) -> bool {
        true
    }

    fn solve(
        &self,
        data: &Dataset,
        domain: &GridDomain,
        t: usize,
        privacy: PrivacyParams,
        beta: f64,
        seed: u64,
    ) -> Result<SolverOutput, ClusterError> {
        // privlint::allow(unsalted-rng): baseline solver entry point — single
        // root stream per call, no sibling stream shares this seed.
        let mut rng = StdRng::seed_from_u64(seed);
        let ball = Self::solve_impl(data, domain, t, privacy, beta, &mut rng)?;
        Ok(SolverOutput { ball })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::evaluate;
    use privcluster_datagen::{gaussian_mixture, planted_ball_cluster};

    fn privacy() -> PrivacyParams {
        PrivacyParams::new(2.0, 1e-5).unwrap()
    }

    #[test]
    fn majority_cluster_is_found_but_radius_is_loose() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let n = 3_000;
        let t = 2_400; // 80% majority
        let inst = planted_ball_cluster(&domain, n, t, 0.02, &mut rng);
        let solver = PrivateAggregationSolver;
        assert!(solver.is_private());
        let out = solver
            .solve(&inst.data, &domain, t, privacy(), 0.1, 3)
            .unwrap();
        let eval = evaluate(&inst.data, t, inst.planted_ball.radius(), &out.ball);
        // It captures the cluster...
        assert!(eval.captured as f64 >= 0.8 * t as f64);
        // ...but the radius is much larger than optimal (the √d/ε effect plus
        // the background points pulling the mean): at least 2x.
        assert!(eval.radius_ratio > 2.0, "ratio = {}", eval.radius_ratio);
    }

    #[test]
    fn minority_clusters_defeat_the_baseline() {
        // Two well-separated clusters of equal size: the mean lands between
        // them, so a ball capturing t = one cluster's worth of points must be
        // enormous compared to the clusters themselves.
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let m = gaussian_mixture(&domain, 2, 1_000, 0.004, 0, &mut rng);
        let t = 900;
        let solver = PrivateAggregationSolver;
        let out = solver
            .solve(&m.data, &domain, t, privacy(), 0.1, 5)
            .unwrap();
        let cluster_radius = m.components[0].radius();
        assert!(
            out.ball.radius() > 5.0 * cluster_radius,
            "baseline ball radius {} should be much larger than a component radius {cluster_radius}",
            out.ball.radius()
        );
    }

    #[test]
    fn rejects_bad_t() {
        let mut rng = StdRng::seed_from_u64(3);
        let domain = GridDomain::unit_cube(2, 1 << 8).unwrap();
        let inst = planted_ball_cluster(&domain, 50, 25, 0.05, &mut rng);
        let solver = PrivateAggregationSolver;
        assert!(solver
            .solve(&inst.data, &domain, 0, privacy(), 0.1, 1)
            .is_err());
        assert!(solver
            .solve(&inst.data, &domain, 100, privacy(), 0.1, 1)
            .is_err());
    }
}
