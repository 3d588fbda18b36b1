//! Observation 3.5: a k-clustering heuristic by iterating the 1-cluster
//! solver.
//!
//! Setting `t ≈ n/k` and running the 1-cluster algorithm `k` times — each
//! time on the points not yet covered by a previously found ball — yields a
//! collection of at most `k` balls covering most of the data. Each iteration
//! receives a `1/k` share of the privacy budget, so by basic composition the
//! whole procedure is `(ε, δ)`-differentially private (the removal of covered
//! points between rounds is a function of already-released balls, hence free
//! post-processing).

use crate::config::OneClusterParams;
use crate::diagnostics::Diagnostics;
use crate::error::ClusterError;
use crate::one_cluster::one_cluster_with_index;
use privcluster_geometry::{tol, Ball, Dataset, GeometryBackend, GeometryIndex};
use rand::Rng;

/// The result of the iterated heuristic.
#[derive(Debug, Clone)]
pub struct KClusterOutcome {
    /// The released balls, in the order they were found (at most `k`).
    pub balls: Vec<Ball>,
    /// Whether every requested iteration produced a ball (an iteration can
    /// fail once too few uncovered points remain).
    pub completed: bool,
    /// The privacy charges of every round.
    pub diagnostics: Diagnostics,
}

impl KClusterOutcome {
    /// Number of `data`'s points covered by at least one released ball.
    ///
    /// One pass over the data: per point, the ball scan stops at the first
    /// hit, and each per-ball distance accumulation bails out as soon as the
    /// partial squared distance exceeds that ball's squared radius — so far
    /// points are rejected after a few coordinates instead of a full `O(d)`
    /// distance per ball.
    pub fn covered_count(&self, data: &Dataset) -> usize {
        // Precompute squared radii with the same boundary tolerance as
        // `Ball::contains` (the shared `tol` definition) so the two agree
        // point-for-point.
        let thresholds: Vec<(&Ball, f64)> = self
            .balls
            .iter()
            .map(|b| (b, tol::ball_threshold_sq(b.radius() * b.radius())))
            .collect();
        data.iter()
            .filter(|p| {
                thresholds.iter().any(|(ball, r2)| {
                    let center = ball.center().coords();
                    let mut acc = 0.0;
                    for (a, b) in center.iter().zip(p.coords()) {
                        let diff = a - b;
                        acc += diff * diff;
                        if acc > *r2 {
                            return false;
                        }
                    }
                    true
                })
            })
            .count()
    }

    /// Fraction of `data`'s points covered by at least one released ball.
    pub fn coverage(&self, data: &Dataset) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        self.covered_count(data) as f64 / data.len() as f64
    }
}

/// Runs the Observation-3.5 heuristic: `k` iterations of the 1-cluster solver
/// with per-iteration target size `params.t` (callers typically set
/// `t ≈ n/k`) and per-iteration budget `params.privacy / k`. Runs
/// [`k_cluster_with_index`] on an exact [`GeometryIndex`] built for this
/// call.
pub fn k_cluster<R: Rng + ?Sized>(
    data: &Dataset,
    k: usize,
    params: &OneClusterParams,
    rng: &mut R,
) -> Result<KClusterOutcome, ClusterError> {
    k_cluster_with_index(data, k, params, &GeometryIndex::build(data), rng)
}

/// [`k_cluster`] against a prebuilt, shareable [`GeometryBackend`] of
/// `data`.
///
/// Only the first round can reuse the backend itself: every later round
/// runs on the *uncovered remainder*, a different dataset for which it is
/// invalid. Those rounds build a fresh backend **of the same kind** via
/// [`GeometryBackend::rebuild_for`], so a sub-quadratic projected backend
/// stays sub-quadratic in every round instead of only the first (an exact
/// backend rebuilds the exact index).
pub fn k_cluster_with_index<R: Rng + ?Sized>(
    data: &Dataset,
    k: usize,
    params: &OneClusterParams,
    index: &dyn GeometryBackend,
    rng: &mut R,
) -> Result<KClusterOutcome, ClusterError> {
    if k == 0 {
        return Err(ClusterError::InvalidParameter(
            "k must be at least 1".into(),
        ));
    }
    params.validate_against(data.len())?;

    let mut per_round = params.clone();
    per_round.privacy = params.privacy.scale(1.0 / k as f64)?;

    let mut diagnostics = Diagnostics::new();
    let mut balls: Vec<Ball> = Vec::new();
    let mut remaining = data.clone();
    let mut completed = true;

    for round in 0..k {
        if remaining.len() < per_round.t {
            completed = false;
            break;
        }
        // The shared backend describes the full dataset, which is exactly
        // the round-0 input; later rounds see a filtered remainder and get
        // a fresh same-kind backend so large-n runs never fall back to the
        // quadratic path mid-query.
        let round_result = if round == 0 {
            one_cluster_with_index(&remaining, &per_round, index, rng)
        } else {
            let rebuilt = index.rebuild_for(&remaining);
            one_cluster_with_index(&remaining, &per_round, rebuilt.as_ref(), rng)
        };
        match round_result {
            Ok(out) => {
                diagnostics.absorb(&format!("round{round}"), out.diagnostics);
                // Post-processing: drop the points the new ball covers.
                let ball = out.ball;
                let (uncovered, _) = remaining.filter_with_indices(|p| !ball.contains(p));
                remaining = if uncovered.is_empty() {
                    Dataset::empty(data.dim())
                } else {
                    uncovered
                };
                balls.push(ball);
            }
            Err(ClusterError::CenterNotFound(_)) => {
                completed = false;
                break;
            }
            Err(other) => return Err(other),
        }
    }

    Ok(KClusterOutcome {
        balls,
        completed,
        diagnostics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OneClusterParams;
    use privcluster_datagen::gaussian_mixture;
    use privcluster_dp::PrivacyParams;
    use privcluster_geometry::GridDomain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn covered_count_agrees_with_naive_ball_scan() {
        let mut rng = StdRng::seed_from_u64(9);
        let domain = GridDomain::unit_cube(3, 1 << 10).unwrap();
        let m = gaussian_mixture(&domain, 2, 300, 0.01, 100, &mut rng);
        let outcome = KClusterOutcome {
            balls: vec![
                Ball::new(m.data.point(0).clone(), 0.05).unwrap(),
                Ball::new(m.data.point(300).clone(), 0.02).unwrap(),
                Ball::degenerate(m.data.point(10).clone()),
            ],
            completed: true,
            diagnostics: Diagnostics::new(),
        };
        let naive = m
            .data
            .iter()
            .filter(|p| outcome.balls.iter().any(|b| b.contains(p)))
            .count();
        assert_eq!(outcome.covered_count(&m.data), naive);
        assert!((outcome.coverage(&m.data) - naive as f64 / m.data.len() as f64).abs() < 1e-15);
        let empty = KClusterOutcome {
            balls: Vec::new(),
            completed: false,
            diagnostics: Diagnostics::new(),
        };
        assert_eq!(empty.covered_count(&m.data), 0);
        assert_eq!(empty.coverage(&Dataset::empty(3)), 0.0);
    }

    #[test]
    fn rejects_zero_k() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let data = Dataset::from_rows(vec![vec![0.5, 0.5]; 50]).unwrap();
        let params =
            OneClusterParams::new(domain, 10, PrivacyParams::new(1.0, 1e-5).unwrap(), 0.1).unwrap();
        assert!(k_cluster(&data, 0, &params, &mut rng).is_err());
    }

    #[test]
    fn covers_a_well_separated_mixture() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
        let k = 3;
        let per_cluster = 1_200;
        let m = gaussian_mixture(&domain, k, per_cluster, 0.004, 0, &mut rng);
        let params = OneClusterParams::new(
            GridDomain::unit_cube(2, 1 << 14).unwrap(),
            900, // a bit below the per-cluster size to tolerate the loss Δ
            PrivacyParams::new(6.0, 1e-4).unwrap(),
            0.1,
        )
        .unwrap();
        let out = k_cluster(&m.data, k, &params, &mut rng).unwrap();
        assert!(!out.balls.is_empty());
        let coverage = out.coverage(&m.data);
        assert!(
            coverage >= 0.6,
            "k-cluster heuristic covered only {coverage:.2} of the mixture"
        );
        out.diagnostics
            .ledger()
            .verify_within(params.privacy)
            .unwrap();
    }

    #[test]
    fn stops_gracefully_when_data_runs_out() {
        let mut rng = StdRng::seed_from_u64(3);
        let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
        let m = gaussian_mixture(&domain, 1, 1_500, 0.004, 0, &mut rng);
        // Ask for far more rounds than there are clusters: after the single
        // cluster is removed, later rounds must stop rather than fail hard.
        let params = OneClusterParams::new(
            GridDomain::unit_cube(2, 1 << 14).unwrap(),
            1_000,
            PrivacyParams::new(8.0, 1e-4).unwrap(),
            0.1,
        )
        .unwrap();
        let out = k_cluster(&m.data, 4, &params, &mut rng).unwrap();
        assert!(!out.balls.is_empty());
        assert!(!out.completed);
        assert!(out.coverage(&m.data) >= 0.6);
    }
}
