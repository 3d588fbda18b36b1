//! The query-release-for-thresholds baseline (Table 1, row 3; d = 1 only).
//!
//! A private release of all threshold (CDF) queries over the 1-dimensional
//! grid `X`, followed by a non-private scan for the shortest interval whose
//! released count is ≈ `t`. We implement the classical hierarchical
//! (binary-tree) mechanism with per-query error `O(log^{1.5}|X|·/ε)` rather
//! than the `2^{O(log*|X|)}` construction of [BNS13, BNSV15] the paper
//! cites: the qualitative Table-1 behaviour (dimension 1 only, radius
//! factor `w = 1`, loss independent of `n` and only mildly dependent on
//! `|X|`) is identical.

use crate::solver::{OneClusterSolver, SolverOutput};
use privcluster_core::ClusterError;
use privcluster_dp::sampling::laplace;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{Ball, Dataset, GridDomain, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The hierarchical threshold-release baseline (dimension 1).
#[derive(Debug, Clone, Copy)]
pub struct ThresholdReleaseSolver {
    /// Upper bound on `|X|` this solver is willing to materialize.
    pub max_domain: u64,
}

impl Default for ThresholdReleaseSolver {
    fn default() -> Self {
        ThresholdReleaseSolver {
            max_domain: 1 << 22,
        }
    }
}

/// A binary-tree (hierarchical) histogram over `size` leaves with Laplace
/// noise calibrated so the whole tree release is ε-DP.
struct NoisyTree {
    size: usize,
    levels: usize,
    /// `nodes[level][i]` = noisy count of the block of `2^(levels-level)`
    /// leaves starting at `i·2^(levels-level)`. Level 0 is the root.
    nodes: Vec<Vec<f64>>,
}

impl NoisyTree {
    fn build<R: Rng + ?Sized>(leaf_counts: &[usize], epsilon: f64, rng: &mut R) -> Self {
        let size = leaf_counts.len().next_power_of_two();
        let levels = (size as f64).log2() as usize;
        // Each data point contributes to one node per level (levels + 1 of
        // them including the leaf level), so per-level budget ε/(levels+1).
        let per_level_scale = (levels as f64 + 1.0) / epsilon;
        let mut nodes = Vec::with_capacity(levels + 1);
        for level in 0..=levels {
            let block = size >> level;
            let count = size / block;
            let mut row = Vec::with_capacity(count);
            for b in 0..count {
                let lo = b * block;
                let hi = ((b + 1) * block).min(leaf_counts.len());
                let exact: usize = if lo < leaf_counts.len() {
                    leaf_counts[lo..hi].iter().sum()
                } else {
                    0
                };
                row.push(exact as f64 + laplace(rng, per_level_scale));
            }
            nodes.push(row);
        }
        NoisyTree {
            size,
            levels,
            nodes,
        }
    }

    /// Noisy count of leaves `[0, end)` (a prefix / threshold query), using
    /// at most one node per level.
    fn prefix(&self, end: usize) -> f64 {
        let mut remaining = end.min(self.size);
        let mut covered = 0usize;
        let mut total = 0.0;
        // Greedily cover [covered, end) with the largest aligned blocks.
        for level in 0..=self.levels {
            let block = self.size >> level;
            while remaining >= block && covered.is_multiple_of(block) {
                total += self.nodes[level][covered / block];
                covered += block;
                remaining -= block;
            }
        }
        total
    }

    /// The standard error bound of a prefix query: each query sums at most
    /// `levels + 1` independent `Lap((levels+1)/ε)` noises, so with
    /// probability `1 − β` the error stays below
    /// `((levels+1)/ε)·√(levels+1)·ln(2(levels+1)/β)`.
    fn error_bound(&self, epsilon: f64, beta: f64) -> f64 {
        let l = self.levels as f64 + 1.0;
        l / epsilon * l.sqrt() * (2.0 * l / beta).ln()
    }
}

impl OneClusterSolver for ThresholdReleaseSolver {
    fn name(&self) -> &'static str {
        "threshold query release (d=1)"
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
        if domain.dim() != 1 || data.dim() != 1 {
            return Err(ClusterError::InvalidParameter(
                "the threshold-release baseline only applies in dimension 1".into(),
            ));
        }
        if t == 0 || t > data.len() {
            return Err(ClusterError::InvalidParameter(format!(
                "t must satisfy 1 <= t <= n (t = {t}, n = {})",
                data.len()
            )));
        }
        if domain.size() > self.max_domain {
            return Err(ClusterError::InvalidParameter(format!(
                "|X| = {} exceeds the baseline's limit of {}",
                domain.size(),
                self.max_domain
            )));
        }
        // privlint::allow(unsalted-rng): baseline solver entry point — single
        // root stream per call, no sibling stream shares this seed.
        let mut rng = StdRng::seed_from_u64(seed);

        // Histogram over the grid leaves.
        let size = domain.size() as usize;
        let step = domain.grid_step();
        let mut leaves = vec![0usize; size];
        for p in data.iter() {
            let idx = (((p[0] - domain.min()) / step).round() as usize).min(size - 1);
            leaves[idx] += 1;
        }
        let tree = NoisyTree::build(&leaves, privacy.epsilon(), &mut rng);
        let slack = tree.error_bound(privacy.epsilon(), beta);

        // Shortest window [i, j] whose released count clears t − slack (so its
        // true count is at least t − 2·slack with high probability).
        let prefixes: Vec<f64> = (0..=size).map(|e| tree.prefix(e)).collect();
        let target = (t as f64 - slack).max(1.0);
        let mut best: Option<(usize, usize)> = None;
        let mut i = 0usize;
        for j in 1..=size {
            while i < j && prefixes[j] - prefixes[i] >= target {
                if best.map(|(bi, bj)| j - i < bj - bi).unwrap_or(true) {
                    best = Some((i, j));
                }
                i += 1;
            }
        }
        let (lo_idx, hi_idx) = best.ok_or_else(|| {
            ClusterError::CenterNotFound(
                "no interval in the released CDF reaches the target count".into(),
            )
        })?;
        let lo = domain.min() + lo_idx as f64 * step;
        let hi = domain.min() + (hi_idx.saturating_sub(1)) as f64 * step;
        let ball = Ball::new(Point::new(vec![(lo + hi) / 2.0]), (hi - lo) / 2.0)?;
        Ok(SolverOutput { ball })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::evaluate;
    use privcluster_datagen::planted_ball_cluster;
    use privcluster_geometry::smallest_interval_1d;

    #[test]
    fn tree_prefix_queries_are_close_to_exact() {
        let mut rng = StdRng::seed_from_u64(1);
        let leaves: Vec<usize> = (0..256).map(|i| (i % 7) * 3).collect();
        let tree = NoisyTree::build(&leaves, 1.0, &mut rng);
        let bound = tree.error_bound(1.0, 0.05);
        let mut violations = 0;
        for end in [0usize, 1, 10, 100, 200, 256] {
            let exact: usize = leaves[..end].iter().sum();
            if (tree.prefix(end) - exact as f64).abs() > bound {
                violations += 1;
            }
        }
        assert!(violations <= 1, "too many prefix violations");
    }

    #[test]
    fn finds_tight_intervals_in_one_dimension() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(1, 1 << 12).unwrap();
        let n = 4_000;
        let t = 800; // a 20% minority cluster
        let inst = planted_ball_cluster(&domain, n, t, 0.01, &mut rng);
        let solver = ThresholdReleaseSolver::default();
        assert!(solver.is_private());
        let out = solver
            .solve(
                &inst.data,
                &domain,
                t,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                0.1,
                9,
            )
            .unwrap();
        let opt = smallest_interval_1d(&inst.data, t).unwrap();
        let eval = evaluate(&inst.data, t, opt.radius(), &out.ball);
        // Loss stays bounded away from t (the hierarchical release pays a
        // polylog(|X|)/ε count error), and the interval stays within a small
        // factor of the optimal one (the w = 1 column of Table 1, up to the
        // released-count slack).
        assert!(
            eval.captured as f64 >= 0.3 * t as f64,
            "captured {}",
            eval.captured
        );
        assert!(eval.radius_ratio < 6.0, "ratio {}", eval.radius_ratio);
    }

    #[test]
    fn rejects_higher_dimensions_and_bad_parameters() {
        let mut rng = StdRng::seed_from_u64(3);
        let domain2 = GridDomain::unit_cube(2, 64).unwrap();
        let inst = planted_ball_cluster(&domain2, 100, 50, 0.05, &mut rng);
        let solver = ThresholdReleaseSolver::default();
        assert!(solver
            .solve(
                &inst.data,
                &domain2,
                50,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                0.1,
                1
            )
            .is_err());

        let domain1 = GridDomain::unit_cube(1, 64).unwrap();
        let data1 = Dataset::from_rows(vec![vec![0.5]; 20]).unwrap();
        assert!(solver
            .solve(
                &data1,
                &domain1,
                0,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                0.1,
                1
            )
            .is_err());
        let huge = ThresholdReleaseSolver { max_domain: 16 };
        assert!(huge
            .solve(
                &data1,
                &GridDomain::unit_cube(1, 64).unwrap(),
                10,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                0.1,
                1
            )
            .is_err());
    }
}
