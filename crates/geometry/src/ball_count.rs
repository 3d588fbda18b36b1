//! Ball-counting queries and the paper's averaged score `L(r, S)`.
//!
//! Section 3.1 of the paper defines, for a dataset `S = (x_1, …, x_n)` and a
//! cap `t`:
//!
//! * `B_r(p)`   — the number of input points within distance `r` of `p`;
//! * `B̄_r(p)`  — the same count capped at `t`;
//! * `L(r, S) = (1/t) · max over t distinct indices i_1,…,i_t of
//!    (B̄_r(x_{i_1}) + … + B̄_r(x_{i_t}))` — i.e. the average of the `t`
//!   largest capped counts over balls centred at input points.
//!
//! `L` is the low-sensitivity surrogate for "is there a ball of radius `r`
//! around an input point containing `t` points"; GoodRadius's quality
//! function is built from it. The *combinatorial* evaluation of `L` lives
//! here (it has no privacy content); the sensitivity argument (Lemma 4.5) is
//! exercised by tests in `privcluster-core`.
//!
//! [`BallCounter`] is the reference the served profiles are tested
//! against; no query runs it. Its counts read per-point sorted distance
//! rows, `8·n²` bytes filled on the first count. Two evaluations of `L` at
//! many radii read no rows and share one `O(1)`-per-event sweep that
//! keeps the sum of the `t` largest capped counts:
//!
//! * [`BallCounter::grid_profile`] — what GoodRadius reads — is
//!   [`BallCounter::l_value`] on the quarter radius grid, keying into it
//!   only the pairs within the radius where `L` saturates (see
//!   [`grid_profile`]).
//! * [`BallCounter::l_profile`] evaluates `L` at every breakpoint, sweeping
//!   the distance-sorted pairs (`O(n² log n)`, dominated by that sort, with
//!   an `8·n²`-byte transient buffer). No query reads it.

use crate::dataset::Dataset;
use crate::distance::DistanceMatrix;
use crate::domain::GridDomain;
use crate::grid_profile::{self, GridProfile};
use crate::tol;
use std::sync::OnceLock;

/// The reference evaluator of `B_r`, `B̄_r` and `L(r, S)` at any radius,
/// which the served profiles are tested against.
#[derive(Debug)]
pub struct BallCounter {
    dm: DistanceMatrix,
    cap: usize,
    /// Row-major `n × n` distances, filled on the first count; row `i`
    /// holds the distances from point `i` to all `n` points (itself
    /// included, at 0), sorted ascending.
    rows: OnceLock<Vec<f64>>,
}

impl BallCounter {
    /// Builds the counter for a dataset with cap `t` (`t ≥ 1`).
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn new(data: &Dataset, cap: usize) -> Self {
        assert!(cap >= 1, "cap t must be at least 1");
        BallCounter {
            dm: DistanceMatrix::build(data),
            cap,
            rows: OnceLock::new(),
        }
    }

    /// The cap `t`.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Number of points `n`.
    pub fn len(&self) -> usize {
        self.dm.len()
    }

    /// `true` when the underlying dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.dm.is_empty()
    }

    /// The sorted distances from point `i` to every point. The first call
    /// fills every row: `O(n² log n)` time and `8·n²` bytes.
    fn sorted_row(&self, i: usize) -> &[f64] {
        let n = self.len();
        let rows = self.rows.get_or_init(|| {
            let pts = self.dm.points();
            let mut rows = vec![0.0f64; n * n];
            for (p, row) in pts.iter().zip(rows.chunks_mut(n.max(1))) {
                for (slot, q) in row.iter_mut().zip(pts) {
                    *slot = p.distance(q);
                }
                row.sort_by(f64::total_cmp);
            }
            rows
        });
        &rows[i * n..(i + 1) * n]
    }

    /// `B_r(x_i)`: how many points (including `x_i` itself) lie within
    /// distance `r` of input point `i`. Uses a closed ball, i.e. counts
    /// distances `≤ r` at the unified tolerance [`tol::within_radius`].
    pub fn count(&self, i: usize, r: f64) -> usize {
        if r < 0.0 {
            return 0;
        }
        self.sorted_row(i)
            .partition_point(|&d| tol::within_radius(d, r))
    }

    /// `B̄_r(x_i)`: the count capped at `t`.
    pub fn capped_count(&self, i: usize, r: f64) -> usize {
        self.count(i, r).min(self.cap)
    }

    /// The largest (capped) count over balls of radius `r` centred at input
    /// points: `max_i B̄_r(x_i)`. This is the naive, high-sensitivity `L` the
    /// paper starts from before averaging.
    // privlint::allow(unused-pub): the naive high-sensitivity `L` that the GoodRadius and sensitivity-example tests compare against
    pub fn max_capped_count(&self, r: f64) -> usize {
        (0..self.len())
            .map(|i| self.capped_count(i, r))
            .max()
            .unwrap_or(0)
    }

    /// The paper's `L(r, S)`: the average of the `t` largest capped counts.
    ///
    /// When `n < t` the average is taken padding with zeros (equivalently,
    /// only `n` balls exist and the remaining `t − n` "virtual" counts are 0),
    /// which keeps `L` well defined and still 2-sensitive.
    // privlint::allow(unused-pub): the ball count `L` that every backend's grid-profile tests compare against, bit for bit
    pub fn l_value(&self, r: f64) -> f64 {
        if r < 0.0 {
            return 0.0;
        }
        let mut counts: Vec<usize> = (0..self.len()).map(|i| self.capped_count(i, r)).collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = counts.iter().take(self.cap).sum();
        top as f64 / self.cap as f64
    }

    /// Distinct radii at which `L(·, S)` (or any `B̄_r(x_i)`) can change
    /// value, sorted ascending. Together with piecewise-constantness this is
    /// what makes the exponential mechanism over the full radius grid run in
    /// `poly(n)` time (Remark 4.4).
    pub fn breakpoints(&self) -> Vec<f64> {
        self.dm.sorted_all_distances()
    }

    /// `L(·, S)` on `domain`'s quarter radius grid, what GoodRadius reads:
    /// [`BallCounter::l_value`]`(ρ_j)` bit for bit at quarter index `j`, in
    /// one `O(n²·d)` pass (see [`grid_profile`]). Panics past
    /// [`grid_profile::MAX_EXACT_POINTS`] points.
    pub fn grid_profile(&self, domain: &GridDomain) -> GridProfile {
        grid_profile::count_pairs(self.dm.points(), None, self.cap, domain).0
    }

    /// Precomputes `L(r, S)` at every breakpoint in a single sweep.
    ///
    /// `L` only changes at pairwise distances. The sweep walks the
    /// distance-sorted pair list — each unordered pair once, since pair
    /// `{i, j}` puts `j` in the ball around `i` and `i` in the ball around
    /// `j` at the same radius — while keeping the sum of the `t` largest
    /// capped counts in `O(1)` per increment. The `O(n² log n)` sort
    /// dominates, and its buffer of `n(n+1)/2` pairs takes about `8·n²`
    /// bytes; afterwards any number of `L` evaluations are `O(log n)`
    /// lookups. A group of distances at the unified tolerance counts from
    /// its smallest member on, so within the tolerance of a radius this
    /// can differ from [`BallCounter::l_value`]. It reads no rows.
    pub fn l_profile(&self) -> LProfile {
        breakpoint_profile(&self.dm, self.cap)
    }
}

/// [`BallCounter::l_profile`] over `dm`'s points for cap `cap`, which the
/// exact backend's `GeometryBackend::l_profile` runs too.
///
/// # Panics
/// Panics if `cap == 0`.
pub(crate) fn breakpoint_profile(dm: &DistanceMatrix, cap: usize) -> LProfile {
    assert!(cap >= 1, "cap t must be at least 1");
    let pairs = dm.sorted_pairs();
    let mut top = TopCounts::new(dm.len(), cap);
    let mut breakpoints = Vec::new();
    let mut values = Vec::new();
    let mut idx = 0usize;
    while idx < pairs.len() {
        let d = pairs[idx].0;
        // Process every pair at (numerically) this distance — "same"
        // exactly as `sorted_all_distances`'s dedup defines it, so the
        // profile's groups and the breakpoint list can never disagree.
        // The group's end state depends only on which counts it raised,
        // so the order of equal distances within it cannot matter.
        while idx < pairs.len() && tol::same_distance(pairs[idx].0, d) {
            let (_, i, j) = pairs[idx];
            top.increment(i as usize);
            if j != i {
                top.increment(j as usize);
            }
            idx += 1;
        }
        breakpoints.push(d);
        values.push(top.value());
    }
    LProfile {
        breakpoints,
        values,
    }
}

/// The sum of the `t` largest of `n` counts capped at `t`, where every
/// update raises one count by one (the exact sweep's ball-membership
/// events), maintained in `O(1)` per update.
///
/// Let `θ` be the `t`-th largest count, reading missing counts as zero.
/// The top `t` are then every count above `θ` plus enough counts equal to
/// `θ`. Raising a count below `θ` changes nothing; raising one at or above
/// `θ` adds one to the sum. `θ` itself only moves when a count leaves `θ`
/// and the counts above `θ` fill all `t` slots: the new `t`-th largest is
/// then the smallest of them, which is `θ + 1` because the raised count
/// sits there. A histogram of the counts says how many of them stay above
/// the new `θ`; since `θ` never falls, only its entries above `θ` are
/// ever read, and raises below `θ` skip it.
#[derive(Debug)]
pub(crate) struct TopCounts {
    cap: usize,
    counts: Vec<usize>,
    /// `hist[v]` for `v > theta`: how many counts equal `v` (entries at or
    /// below `theta` go stale). No count exceeds `n` (a point has `n`
    /// membership events), so `v ≤ min(t, n)`.
    hist: Vec<usize>,
    /// The `t`-th largest count (zero while fewer than `t` are positive).
    theta: usize,
    /// How many counts exceed `theta`; always fewer than `t`.
    above: usize,
    /// Sum of the `t` largest counts.
    sum: u64,
}

impl TopCounts {
    pub(crate) fn new(n: usize, cap: usize) -> Self {
        let mut hist = vec![0; cap.min(n) + 1];
        hist[0] = n;
        TopCounts {
            cap,
            counts: vec![0; n],
            hist,
            theta: 0,
            above: 0,
            sum: 0,
        }
    }

    /// `L`: the sum of the `t` largest counts over `t`.
    pub(crate) fn value(&self) -> f64 {
        self.sum as f64 / self.cap as f64
    }

    /// The sum of the `t` largest counts.
    pub(crate) fn sum(&self) -> u64 {
        self.sum
    }

    /// How many counts there are, `n`.
    pub(crate) fn len(&self) -> usize {
        self.counts.len()
    }

    /// Raises count `i` by one unless it already sits at the cap.
    pub(crate) fn increment(&mut self, i: usize) {
        let v = self.counts[i];
        // Most raises start below `θ` or at the cap and change nothing
        // else; one branch (not two) sends the rest on.
        let raised = v < self.cap;
        self.counts[i] = v + usize::from(raised);
        if !(raised & (v >= self.theta)) {
            return;
        }
        self.hist[v] -= 1;
        self.hist[v + 1] += 1;
        self.sum += 1;
        if v == self.theta {
            self.above += 1;
            if self.above == self.cap {
                self.theta += 1;
                self.above -= self.hist[self.theta];
            }
        }
    }
}

/// The step function `r ↦ L(r, S)` precomputed at all of its breakpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct LProfile {
    breakpoints: Vec<f64>,
    values: Vec<f64>,
}

impl LProfile {
    /// Assembles a profile from parallel breakpoint/value vectors (used by
    /// the projected backend's weighted sweep, which produces the same
    /// shape from bucketed data).
    pub(crate) fn from_parts(breakpoints: Vec<f64>, values: Vec<f64>) -> Self {
        debug_assert_eq!(breakpoints.len(), values.len());
        LProfile {
            breakpoints,
            values,
        }
    }

    /// Evaluates `L(r, S)`.
    ///
    /// Exactly equal to `BallCounter::l_value(r)` except when `r` lies
    /// within the unified tolerance of a merged breakpoint group, where the
    /// profile returns the group's post-breakpoint value (see the residual-
    /// ambiguity note in [`crate::tol`]).
    // privlint::allow(unused-pub): reads the breakpoint reference profile that the GoodRadius sensitivity tests and the geometry property tests compare against
    pub fn value_at(&self, r: f64) -> f64 {
        if r < 0.0 || self.breakpoints.is_empty() {
            return 0.0;
        }
        let idx = self
            .breakpoints
            .partition_point(|&b| tol::within_radius(b, r));
        if idx == 0 {
            0.0
        } else {
            self.values[idx - 1]
        }
    }

    /// The sorted distances at which `L` can change value.
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// The `L` values at the corresponding breakpoints.
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

/// The capped counts of weighted sites and the sum of the `t` largest,
/// each site's count taken as many times as its weight: the weighted
/// sweeps' [`TopCounts`] (the grid profile over weighted sites, and the
/// projected backend's reference breakpoint profile). A raise adds any
/// number of points to a count at once, which `TopCounts`' one-step
/// updates cannot express; it costs `O(log t)`, and the sum is a
/// `TopSumTree` query, `O(log² t)`.
#[derive(Debug)]
pub(crate) struct WeightedCounts<'a> {
    weights: &'a [usize],
    cap: usize,
    counts: Vec<usize>,
    tree: TopSumTree,
    points: usize,
}

impl<'a> WeightedCounts<'a> {
    /// Every count zero, for sites of weights `weights` and cap `cap`.
    pub(crate) fn new(weights: &'a [usize], cap: usize) -> Self {
        let points = weights.iter().sum::<usize>();
        WeightedCounts {
            weights,
            cap,
            counts: vec![0; weights.len()],
            // No count exceeds the total weight.
            tree: TopSumTree::new(cap.min(points)),
            points,
        }
    }

    /// Site `i`'s weight.
    pub(crate) fn weight(&self, i: usize) -> usize {
        self.weights[i]
    }

    /// How many points the sites stand for: the total weight.
    pub(crate) fn points(&self) -> usize {
        self.points
    }

    /// Adds `by` points to site `i`'s count, up to the cap.
    pub(crate) fn raise(&mut self, i: usize, by: usize) {
        let old = self.counts[i];
        if old >= self.cap {
            return;
        }
        let new = (old + by).min(self.cap);
        let copies = self.weights[i] as i64;
        if old > 0 {
            self.tree.update(old, -copies);
        }
        self.tree.update(new, copies);
        self.counts[i] = new;
    }

    /// The sum of the `t` largest counts.
    pub(crate) fn top_sum(&self) -> u64 {
        self.tree.top_sum(self.cap)
    }
}

/// A Fenwick-tree-backed multiset over integer values `1..=cap` supporting
/// "sum of the largest `t` elements" queries: [`WeightedCounts`]' store,
/// which moves a whole site at once via [`TopSumTree::update`]'s
/// multiplicity argument.
#[derive(Debug, Clone)]
struct TopSumTree {
    cap: usize,
    count_tree: Vec<usize>,
    sum_tree: Vec<u64>,
    total_count: usize,
    total_sum: u64,
}

impl TopSumTree {
    fn new(cap: usize) -> Self {
        TopSumTree {
            cap,
            count_tree: vec![0; cap + 1],
            sum_tree: vec![0; cap + 1],
            total_count: 0,
            total_sum: 0,
        }
    }

    fn update(&mut self, value: usize, count_delta: i64) {
        debug_assert!(value >= 1 && value <= self.cap);
        let mut i = value;
        while i <= self.cap {
            self.count_tree[i] = (self.count_tree[i] as i64 + count_delta) as usize;
            self.sum_tree[i] = (self.sum_tree[i] as i64 + count_delta * value as i64) as u64;
            i += i & i.wrapping_neg();
        }
        self.total_count = (self.total_count as i64 + count_delta) as usize;
        self.total_sum = (self.total_sum as i64 + count_delta * value as i64) as u64;
    }

    /// Number of elements with value ≤ v and their sum.
    fn prefix(&self, v: usize) -> (usize, u64) {
        let mut i = v.min(self.cap);
        let (mut c, mut s) = (0usize, 0u64);
        while i > 0 {
            c += self.count_tree[i];
            s += self.sum_tree[i];
            i -= i & i.wrapping_neg();
        }
        (c, s)
    }

    /// Sum of the `t` largest elements currently stored (elements missing to
    /// reach `t` count as zero).
    fn top_sum(&self, t: usize) -> u64 {
        if self.total_count <= t {
            return self.total_sum;
        }
        // Find the largest threshold θ such that #elements ≥ θ is at least t.
        let mut lo = 1usize;
        let mut hi = self.cap;
        let mut theta = 1usize;
        while lo <= hi {
            let mid = (lo + hi) / 2;
            let at_least_mid = self.total_count - self.prefix(mid - 1).0;
            if at_least_mid >= t {
                theta = mid;
                lo = mid + 1;
            } else {
                hi = mid - 1;
            }
        }
        let (below_cnt, below_sum) = self.prefix(theta);
        let above_cnt = self.total_count - below_cnt; // value > θ
        let above_sum = self.total_sum - below_sum;
        above_sum + (t - above_cnt) as u64 * theta as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use proptest::prelude::{prop, Strategy};

    fn clustered() -> Dataset {
        // 5 points near the origin, 3 points near (10, 10).
        Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![0.1, 0.0],
            vec![0.0, 0.1],
            vec![0.1, 0.1],
            vec![0.05, 0.05],
            vec![10.0, 10.0],
            vec![10.1, 10.0],
            vec![10.0, 10.1],
        ])
        .unwrap()
    }

    #[test]
    fn counts_and_caps() {
        let bc = BallCounter::new(&clustered(), 4);
        assert_eq!(bc.cap(), 4);
        assert_eq!(bc.len(), 8);
        assert!(!bc.is_empty());
        assert_eq!(bc.count(0, 0.2), 5);
        assert_eq!(bc.count(0, 0.0), 1); // itself
        assert_eq!(bc.count(0, -1.0), 0);
        assert_eq!(bc.capped_count(0, 0.2), 4);
        assert_eq!(bc.count(5, 0.2), 3);
        assert_eq!(bc.capped_count(5, 0.2), 3);
        assert_eq!(bc.max_capped_count(0.2), 4);
        assert_eq!(bc.max_capped_count(0.0), 1);
    }

    #[test]
    fn l_value_is_average_of_top_t_counts() {
        let bc = BallCounter::new(&clustered(), 4);
        // At r = 0.2 each of the 5 cluster points sees 5 (capped to 4), the 3
        // far points see 3 each. Top 4 capped counts: 4,4,4,4 => L = 4.
        assert!((bc.l_value(0.2) - 4.0).abs() < 1e-12);
        // At r = 0 every ball contains exactly 1 point => L = 1.
        assert!((bc.l_value(0.0) - 1.0).abs() < 1e-12);
        // Negative radii contain nothing.
        assert_eq!(bc.l_value(-0.5), 0.0);
        // L is non-decreasing in r.
        let radii = [0.0, 0.05, 0.1, 0.15, 0.2, 1.0, 20.0];
        for w in radii.windows(2) {
            assert!(bc.l_value(w[0]) <= bc.l_value(w[1]) + 1e-12);
        }
        // At huge radius everything is capped: L = t.
        assert!((bc.l_value(100.0) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn l_value_handles_cap_larger_than_n() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        let bc = BallCounter::new(&data, 5);
        // Only 2 balls exist, counts capped at 5: at r=1 both see 2 points.
        // Top-5 sum = 2 + 2 (+ three virtual zeros) = 4; average = 4/5.
        assert!((bc.l_value(1.0) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn paper_sensitivity_example_before_averaging() {
        // §3.1: S = {e1} ∪ {t/2 copies of 0} ∪ {t/2 copies of 2·e1}. The naive
        // max-count L has a ball (around e1) of radius 1 containing all points;
        // moving e1 to 2e1 drops the best radius-1 ball to ~t/2 points. The
        // averaged L(1, ·) changes by at most 2 (Lemma 4.5), which the
        // privcluster-core tests verify; here we check the raw counts behave
        // as the example describes.
        let t = 6usize;
        let mut rows = vec![vec![1.0]];
        rows.extend(std::iter::repeat_n(vec![0.0], t / 2));
        rows.extend(std::iter::repeat_n(vec![2.0], t / 2));
        let data = Dataset::from_rows(rows).unwrap();
        let bc = BallCounter::new(&data, t);
        assert_eq!(bc.count(0, 1.0), t + 1); // ball around e1 sees everything
        assert_eq!(bc.max_capped_count(1.0), t);

        // Neighbour: replace e1 by another copy of 2e1.
        let data2 = data
            .replace_row(0, crate::point::Point::new(vec![2.0]))
            .unwrap();
        let bc2 = BallCounter::new(&data2, t);
        // Now the best radius-1 ball around an input point contains t/2 + 1.
        assert_eq!(bc2.max_capped_count(1.0), t / 2 + 1);
    }

    #[test]
    fn l_profile_matches_direct_evaluation() {
        let data = clustered();
        for cap in [1usize, 3, 4, 8, 12] {
            let bc = BallCounter::new(&data, cap);
            let profile = bc.l_profile();
            // Values are non-decreasing and breakpoints sorted.
            assert!(profile
                .breakpoints()
                .windows(2)
                .all(|w| w[0] <= w[1] + 1e-15));
            assert!(profile.values().windows(2).all(|w| w[0] <= w[1] + 1e-12));
            // Evaluate at breakpoints, midpoints, below zero and beyond the max.
            let mut probes = vec![-1.0, 0.0, 1e-9, 1e9];
            for w in profile.breakpoints().windows(2) {
                probes.push(w[0]);
                probes.push((w[0] + w[1]) / 2.0);
            }
            for &r in &probes {
                assert!(
                    (profile.value_at(r) - bc.l_value(r)).abs() < 1e-9,
                    "cap={cap}, r={r}: profile {} vs direct {}",
                    profile.value_at(r),
                    bc.l_value(r)
                );
            }
        }
    }

    #[test]
    fn breakpoints_cover_l_changes() {
        let bc = BallCounter::new(&clustered(), 4);
        let bps = bc.breakpoints();
        // Between consecutive breakpoints L must be constant; verify on a few
        // midpoints.
        for w in bps.windows(2) {
            let mid = (w[0] + w[1]) / 2.0;
            let just_after_lo = w[0] + (w[1] - w[0]) * 0.25;
            assert!((bc.l_value(mid) - bc.l_value(just_after_lo)).abs() < 1e-12);
        }
    }

    /// The sweep `l_profile` replaced, kept as its bit-for-bit reference:
    /// every row entry is an event (each pair twice, plus the diagonal),
    /// all `n²` of them comparison-sorted, with a Fenwick `top_sum` after
    /// each group.
    fn reference_l_profile(bc: &BallCounter) -> LProfile {
        let (n, cap) = (bc.len(), bc.cap);
        let mut events: Vec<(f64, usize)> = Vec::with_capacity(n * n);
        for i in 0..n {
            for &d in bc.sorted_row(i) {
                events.push((d, i));
            }
        }
        events.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut counts = vec![0usize; n];
        let mut tree = TopSumTree::new(cap);
        let (mut breakpoints, mut values) = (Vec::new(), Vec::new());
        let mut idx = 0usize;
        while idx < events.len() {
            let d = events[idx].0;
            while idx < events.len() && tol::same_distance(events[idx].0, d) {
                let i = events[idx].1;
                if counts[i] < cap {
                    if counts[i] > 0 {
                        tree.update(counts[i], -1);
                    }
                    counts[i] += 1;
                    tree.update(counts[i], 1);
                }
                idx += 1;
            }
            breakpoints.push(d);
            values.push(tree.top_sum(cap) as f64 / cap as f64);
        }
        LProfile {
            breakpoints,
            values,
        }
    }

    /// The breakpoint list the pair list replaced: all `n²` row entries,
    /// sorted and deduplicated.
    fn reference_breakpoints(bc: &BallCounter) -> Vec<f64> {
        let mut all: Vec<f64> = (0..bc.len())
            .flat_map(|i| bc.sorted_row(i).to_vec())
            .collect();
        all.sort_by(f64::total_cmp);
        all.dedup_by(|a, b| tol::same_distance(*a, *b));
        all
    }

    /// Rows on a coarse grid (step 1/4, so distances tie), off-grid rows,
    /// and exact copies of earlier rows, in 1 to 3 dimensions.
    pub(crate) fn tie_heavy_dataset() -> impl Strategy<Value = Dataset> {
        (1usize..=3).prop_flat_map(|dim| {
            let row = (
                0u32..3,
                prop::collection::vec(0u32..5, dim),
                prop::collection::vec(0.0f64..1.0, dim),
                0usize..64,
            );
            prop::collection::vec(row, 1..40).prop_map(|specs| {
                let mut rows: Vec<Vec<f64>> = Vec::with_capacity(specs.len());
                for (kind, grid, off_grid, copy) in specs {
                    let row = match kind {
                        1 => off_grid,
                        2 if !rows.is_empty() => rows[copy % rows.len()].clone(),
                        _ => grid.iter().map(|&k| f64::from(k) / 4.0).collect(),
                    };
                    rows.push(row);
                }
                Dataset::from_rows(rows).expect("uniform dimension")
            })
        })
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The pairs-once sweep reproduces the n²-event Fenwick sweep bit
        /// for bit, at t = 1, t = n, t > n and caps in between.
        #[test]
        fn l_profile_matches_the_event_sweep_bit_for_bit(
            data in tie_heavy_dataset(),
            cap_kind in 0usize..4,
            extra in 1usize..50,
        ) {
            let n = data.len();
            let cap = match cap_kind {
                0 => 1,
                1 => n,
                2 => n + extra,
                _ => 1 + extra % n,
            };
            let bc = BallCounter::new(&data, cap);
            let profile = bc.l_profile();
            let reference = reference_l_profile(&bc);
            proptest::prop_assert_eq!(bits(profile.breakpoints()), bits(reference.breakpoints()));
            proptest::prop_assert_eq!(bits(profile.values()), bits(reference.values()));
            proptest::prop_assert_eq!(
                bits(&bc.breakpoints()),
                bits(&reference_breakpoints(&bc))
            );
        }
    }
}
