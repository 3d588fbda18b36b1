//! Shared helpers for the `privcluster` experiment binaries and Criterion
//! benchmarks.
//!
//! Each experiment binary regenerates one table or figure of the paper (the
//! README's "Substitutions and experiments" lists them with their ids);
//! this module holds the common plumbing: standard parameter settings,
//! trial loops, and the output directory for JSON records.

#![warn(missing_docs)]

use privcluster_baselines::solver::{evaluate, Evaluation, OneClusterSolver};
use privcluster_datagen::PlantedCluster;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::GridDomain;
use std::path::PathBuf;
use std::time::Duration;

/// Where experiment JSON records are written.
pub fn experiments_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join("..")
        .join("target")
        .join("experiments")
}

/// The conventional privacy setting used across experiments unless a sweep
/// says otherwise: ε = 2, δ = 1e-5.
pub fn standard_privacy() -> PrivacyParams {
    PrivacyParams::new(2.0, 1e-5).expect("valid")
}

/// One trial of one solver on one planted instance.
#[derive(Debug, Clone)]
pub struct TrialResult {
    /// The solver's name.
    pub solver: &'static str,
    /// Whether the solver is differentially private.
    pub private: bool,
    /// Evaluation against the planted ground truth (None when the solver
    /// returned an error, e.g. refusing the instance).
    pub evaluation: Option<Evaluation>,
    /// Wall-clock time of the solve.
    pub runtime: Duration,
    /// Error message when the solver failed.
    pub error: Option<String>,
}

/// Runs `solver` for `trials` independent seeds on the same instance and
/// returns per-trial results, each with the wall-clock time of its solve.
#[allow(clippy::too_many_arguments)] // one knob per experiment-table column
pub fn run_trials(
    solver: &dyn OneClusterSolver,
    instance: &PlantedCluster,
    domain: &GridDomain,
    t: usize,
    privacy: PrivacyParams,
    beta: f64,
    trials: usize,
    base_seed: u64,
) -> Vec<TrialResult> {
    (0..trials)
        .map(|i| {
            let start = std::time::Instant::now();
            let result = solver.solve(
                &instance.data,
                domain,
                t,
                privacy,
                beta,
                base_seed + i as u64,
            );
            let runtime = start.elapsed();
            let (evaluation, error) = match result {
                Ok(out) => {
                    let radius = instance.planted_ball.radius();
                    (Some(evaluate(&instance.data, t, radius, &out.ball)), None)
                }
                Err(e) => (None, Some(e.to_string())),
            };
            TrialResult {
                solver: solver.name(),
                private: solver.is_private(),
                evaluation,
                runtime,
                error,
            }
        })
        .collect()
}

/// Convenience accessors over a batch of trial results.
pub trait TrialStats {
    /// Mean of a per-trial quantity over the successful trials.
    fn mean_of(&self, f: impl Fn(&Evaluation) -> f64) -> Option<f64>;
    /// Fraction of trials that produced an output at all.
    fn success_rate(&self) -> f64;
    /// Collect a per-trial quantity over successful trials.
    fn collect_metric(&self, f: impl Fn(&Evaluation) -> f64) -> Vec<f64>;
}

impl TrialStats for [TrialResult] {
    fn mean_of(&self, f: impl Fn(&Evaluation) -> f64) -> Option<f64> {
        let vals = self.collect_metric(f);
        if vals.is_empty() {
            None
        } else {
            Some(vals.iter().sum::<f64>() / vals.len() as f64)
        }
    }

    fn success_rate(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.iter().filter(|t| t.evaluation.is_some()).count() as f64 / self.len() as f64
    }

    fn collect_metric(&self, f: impl Fn(&Evaluation) -> f64) -> Vec<f64> {
        self.iter()
            .filter_map(|t| t.evaluation.as_ref().map(&f))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privcluster_baselines::PrivClusterSolver;
    use privcluster_datagen::planted_ball_cluster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn trial_runner_reports_successes_and_stats() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
        let inst = planted_ball_cluster(&domain, 1_500, 800, 0.02, &mut rng);
        let solver = PrivClusterSolver::default();
        let results = run_trials(&solver, &inst, &domain, 800, standard_privacy(), 0.1, 2, 7);
        assert_eq!(results.len(), 2);
        assert!(results.success_rate() > 0.0);
        let mean_captured = results.mean_of(|e| e.captured as f64).unwrap();
        assert!(mean_captured >= 600.0);
        assert_eq!(results.collect_metric(|e| e.radius_ratio).len(), 2);
        assert!(results.iter().all(|r| r.runtime.as_nanos() > 0));
    }

    #[test]
    fn experiments_dir_is_under_target() {
        assert!(experiments_dir().to_string_lossy().contains("target"));
    }
}
