//! The exponential-mechanism baseline (Table 1, row 2; \[MT07\]).
//!
//! Choose, among *all* grid points of `X^d`, a center approximately
//! maximizing the number of input points within a candidate radius, where the
//! radius itself comes from a private binary search. The cluster-size loss is
//! only `O(d·log|X|/ε)` and the radius is (essentially) optimal — but the
//! candidate set has `|X|^d` elements, so the running time is `poly(|X|^d)`,
//! which is exactly the drawback Table 1 records. The implementation refuses
//! domains with more than [`ExponentialGridSolver::DEFAULT_MAX_CANDIDATES`]
//! grid points (configurable) instead of silently grinding forever.

use crate::solver::{OneClusterSolver, SolverOutput};
use privcluster_core::ClusterError;
use privcluster_dp::exponential::exponential_mechanism;
use privcluster_dp::sampling::laplace;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{Ball, Dataset, GridDomain, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The exponential-mechanism-over-the-grid baseline.
#[derive(Debug, Clone, Copy)]
pub struct ExponentialGridSolver {
    /// Upper bound on `|X|^d` this solver is willing to enumerate.
    pub max_candidates: u64,
}

impl ExponentialGridSolver {
    /// Default enumeration budget (about two million candidate centers).
    pub const DEFAULT_MAX_CANDIDATES: u64 = 2_000_000;
}

impl Default for ExponentialGridSolver {
    fn default() -> Self {
        ExponentialGridSolver {
            max_candidates: Self::DEFAULT_MAX_CANDIDATES,
        }
    }
}

/// Enumerates every grid point of the domain (row-major over axes).
fn enumerate_grid(domain: &GridDomain) -> Vec<Point> {
    let per_axis = domain.size() as usize;
    let d = domain.dim();
    let step = domain.grid_step();
    let total = per_axis.pow(d as u32);
    let mut out = Vec::with_capacity(total);
    for mut index in 0..total {
        let mut coords = Vec::with_capacity(d);
        for _ in 0..d {
            let i = index % per_axis;
            index /= per_axis;
            coords.push(domain.min() + i as f64 * step);
        }
        out.push(Point::new(coords));
    }
    out
}

impl ExponentialGridSolver {
    fn solve_impl<R: Rng + ?Sized>(
        &self,
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
        let candidates_count = (domain.size() as f64).powi(domain.dim() as i32);
        if candidates_count > self.max_candidates as f64 {
            return Err(ClusterError::InvalidParameter(format!(
                "the exponential-mechanism baseline would enumerate {candidates_count:.0} grid \
                 centers, above its limit of {} — this is the poly(|X|^d) cost Table 1 records",
                self.max_candidates
            )));
        }
        let centers = enumerate_grid(domain);
        let eps = privacy.epsilon();
        let half_eps = eps / 2.0;

        // Stage 1: private binary search over the radius grid on the monotone
        // function M(r) = max_center count(center, r) (sensitivity 1).
        let grid_len = domain.radius_grid_len();
        let steps = (grid_len.max(2) as f64).log2().ceil() as usize;
        let per_step_scale = 2.0 * steps as f64 / half_eps;
        let err = per_step_scale * (2.0 * steps as f64 / beta).ln();
        let target = t as f64 - err;
        let mut lo = 0u64;
        let mut hi = grid_len - 1;
        for _ in 0..steps {
            if lo >= hi {
                break;
            }
            let mid = lo + (hi - lo) / 2;
            let r = domain.radius_from_index(mid);
            let best = centers
                .iter()
                .map(|c| data.iter().filter(|p| c.distance(p) <= r + 1e-12).count())
                .max()
                .unwrap_or(0) as f64;
            let noisy = best + laplace(rng, per_step_scale);
            if noisy >= target {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let radius = domain.radius_from_index(hi);

        // Stage 2: exponential mechanism over all centers with quality
        // "number of points within `radius`" (sensitivity 1).
        let qualities: Vec<f64> = centers
            .iter()
            .map(|c| {
                data.iter()
                    .filter(|p| c.distance(p) <= radius + 1e-12)
                    .count() as f64
            })
            .collect();
        let chosen = exponential_mechanism(&qualities, half_eps, 1.0, rng)?;
        Ok(Ball::new(centers[chosen].clone(), radius)?)
    }
}

impl OneClusterSolver for ExponentialGridSolver {
    fn name(&self) -> &'static str {
        "exponential-mechanism grid [MT07]"
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
        // privlint::allow(entropy-source): wall-clock runtime reported in the
        // Table-1 diagnostics column only; never feeds randomness, results,
        // or the wire.
        let start = std::time::Instant::now();
        let ball = self.solve_impl(data, domain, t, privacy, beta, &mut rng)?;
        Ok(SolverOutput {
            ball,
            runtime: start.elapsed(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::evaluate;
    use privcluster_datagen::planted_ball_cluster;

    #[test]
    fn finds_minority_clusters_with_small_radius_on_coarse_grids() {
        let mut rng = StdRng::seed_from_u64(1);
        // Coarse grid so the enumeration stays small: 33 x 33 centers.
        let domain = GridDomain::unit_cube(2, 33).unwrap();
        let n = 1_200;
        let t = 300; // a 25% minority cluster
        let inst = planted_ball_cluster(&domain, n, t, 0.04, &mut rng);
        let solver = ExponentialGridSolver::default();
        assert!(solver.is_private());
        let out = solver
            .solve(
                &inst.data,
                &domain,
                t,
                PrivacyParams::new(2.0, 1e-6).unwrap(),
                0.1,
                11,
            )
            .unwrap();
        let eval = evaluate(&inst.data, t, inst.planted_ball.radius(), &out.ball);
        assert!(
            eval.captured as f64 >= 0.7 * t as f64,
            "captured {}",
            eval.captured
        );
        // Radius stays within a small factor of the planted radius (the grid
        // coarseness and the noisy search add slack, but nothing like √d).
        assert!(eval.radius_ratio < 4.0, "ratio {}", eval.radius_ratio);
    }

    #[test]
    fn refuses_domains_that_are_too_fine() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(3, 1 << 12).unwrap();
        let inst = planted_ball_cluster(&domain, 100, 50, 0.05, &mut rng);
        let solver = ExponentialGridSolver::default();
        let err = solver.solve(
            &inst.data,
            &domain,
            50,
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            0.1,
            1,
        );
        assert!(matches!(err, Err(ClusterError::InvalidParameter(_))));
    }

    #[test]
    fn grid_enumeration_is_complete() {
        let domain = GridDomain::unit_cube(2, 5).unwrap();
        let grid = enumerate_grid(&domain);
        assert_eq!(grid.len(), 25);
        assert!(grid.iter().all(|p| domain.contains(p)));
    }
}
