//! The non-private reference solver, wrapped in the common interface so the
//! experiment harness can report it alongside the private methods.

use crate::solver::{OneClusterSolver, SolverOutput};
use privcluster_core::ClusterError;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{smallest_ball_two_approx, Dataset, GridDomain};

/// The folklore non-private 2-approximation (§3, fact 3).
#[derive(Debug, Clone, Copy, Default)]
pub struct NonPrivateTwoApprox;

impl OneClusterSolver for NonPrivateTwoApprox {
    fn name(&self) -> &'static str {
        "non-private 2-approximation"
    }

    fn is_private(&self) -> bool {
        false
    }

    fn solve(
        &self,
        data: &Dataset,
        _domain: &GridDomain,
        t: usize,
        _privacy: PrivacyParams,
        _beta: f64,
        _seed: u64,
    ) -> Result<SolverOutput, ClusterError> {
        let ball = smallest_ball_two_approx(data, t)?;
        Ok(SolverOutput { ball })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::evaluate;
    use privcluster_datagen::planted_ball_cluster;
    use privcluster_geometry::exhaustive_smallest_ball;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn two_approx_dominates_exact_by_at_most_a_factor_of_two() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let inst = planted_ball_cluster(&domain, 120, 40, 0.03, &mut rng);
        let privacy = PrivacyParams::new(1.0, 1e-6).unwrap();
        let two = NonPrivateTwoApprox
            .solve(&inst.data, &domain, 40, privacy, 0.1, 0)
            .unwrap();
        let exact = exhaustive_smallest_ball(&inst.data, 40).unwrap();
        assert!(!NonPrivateTwoApprox.is_private());
        assert!(two.ball.radius() <= 2.0 * exact.radius() + 1e-9);
        assert!(exact.radius() <= two.ball.radius() + 1e-9);
        let e = evaluate(&inst.data, 40, exact.radius(), &two.ball);
        assert!(e.captured >= 40);
    }
}
