//! The common interface every Table-1 method implements.

use privcluster_core::{one_cluster, ClusterError, OneClusterParams};
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{Ball, Dataset, GridDomain};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The output of any 1-cluster method, private or not.
#[derive(Debug, Clone)]
pub struct SolverOutput {
    /// The returned ball.
    pub ball: Ball,
}

/// A method that, given a dataset over a grid domain and a target size `t`,
/// returns a ball intended to contain ≈ `t` points.
pub trait OneClusterSolver {
    /// Human-readable name used in tables.
    fn name(&self) -> &'static str;

    /// Whether the method satisfies differential privacy.
    fn is_private(&self) -> bool;

    /// Solves the instance. `seed` makes randomized methods reproducible.
    fn solve(
        &self,
        data: &Dataset,
        domain: &GridDomain,
        t: usize,
        privacy: PrivacyParams,
        beta: f64,
        seed: u64,
    ) -> Result<SolverOutput, ClusterError>;
}

/// This paper's algorithm wrapped in the common interface ("This work" row of
/// Table 1).
#[derive(Debug, Clone, Default)]
pub struct PrivClusterSolver {
    /// Use the verbatim paper constants instead of the practical preset.
    pub paper_constants: bool,
}

impl OneClusterSolver for PrivClusterSolver {
    fn name(&self) -> &'static str {
        if self.paper_constants {
            "this-work (paper constants)"
        } else {
            "this-work"
        }
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
        // privlint::allow(unsalted-rng): baseline solver entry point — the
        // caller's seed becomes the solver's single root stream; no sibling
        // stream is ever derived from the same seed.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params = OneClusterParams::new(domain.clone(), t, privacy, beta)?;
        if self.paper_constants {
            params = params.with_paper_constants();
        }
        let out = one_cluster(data, &params, &mut rng)?;
        Ok(SolverOutput { ball: out.ball })
    }
}

/// Shared evaluation of a solver output against an instance: how many points
/// the ball holds and the ratio of its radius to a reference radius.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Number of dataset points inside the returned ball.
    pub captured: usize,
    /// Additive cluster-size loss `max(0, t − captured)`.
    pub additive_loss: i64,
    /// `ball.radius / reference_radius` (∞ when the reference is 0).
    pub radius_ratio: f64,
}

/// Evaluates a returned ball against the dataset, target size and a reference
/// (typically optimal or 2-approximate) radius.
pub fn evaluate(data: &Dataset, t: usize, reference_radius: f64, ball: &Ball) -> Evaluation {
    let captured = data.count_in_ball(ball);
    Evaluation {
        captured,
        additive_loss: t as i64 - captured as i64,
        radius_ratio: if reference_radius > 0.0 {
            ball.radius() / reference_radius
        } else if ball.radius() == 0.0 {
            1.0
        } else {
            f64::INFINITY
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privcluster_datagen::planted_ball_cluster;
    use privcluster_geometry::Point;

    #[test]
    fn evaluation_counts_and_ratios() {
        let data =
            Dataset::from_rows(vec![vec![0.0, 0.0], vec![0.1, 0.0], vec![5.0, 5.0]]).unwrap();
        let ball = Ball::new(Point::new(vec![0.0, 0.0]), 0.2).unwrap();
        let e = evaluate(&data, 3, 0.1, &ball);
        assert_eq!(e.captured, 2);
        assert_eq!(e.additive_loss, 1);
        assert!((e.radius_ratio - 2.0).abs() < 1e-12);
        let degenerate = Ball::new(Point::new(vec![0.0, 0.0]), 0.0).unwrap();
        assert_eq!(evaluate(&data, 1, 0.0, &degenerate).radius_ratio, 1.0);
        assert!(evaluate(&data, 1, 0.0, &ball).radius_ratio.is_infinite());
    }

    #[test]
    fn this_work_solver_runs_through_the_trait_object() {
        let mut rng = StdRng::seed_from_u64(7);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let inst = planted_ball_cluster(&domain, 2_000, 1_000, 0.02, &mut rng);
        let solver: Box<dyn OneClusterSolver> = Box::new(PrivClusterSolver::default());
        assert!(solver.is_private());
        assert_eq!(solver.name(), "this-work");
        let out = solver
            .solve(
                &inst.data,
                &domain,
                1_000,
                PrivacyParams::new(2.0, 1e-5).unwrap(),
                0.1,
                42,
            )
            .unwrap();
        let eval = evaluate(&inst.data, 1_000, inst.planted_ball.radius(), &out.ball);
        assert!(eval.captured >= 800, "captured only {}", eval.captured);
    }
}
