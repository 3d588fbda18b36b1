//! Pairwise-distance structures.
//!
//! `GoodRadius` needs the quantity `B_r(x_i, S)` — the number of input points
//! within distance `r` of the input point `x_i` — for *many* radii `r`
//! (every candidate radius the quasi-concave solver probes). Recomputing the
//! `O(n d)` distances for every probe would make the solver quadratic in the
//! number of probes; instead the matrix can hold the full pairwise
//! distances (`O(n² d)`) with each row sorted (`O(n² log n)`), and then each
//! `B_r(x_i)` query is a binary search (`O(log n)`).
//!
//! The matrix also exposes the sorted multiset of *all* pairwise distances,
//! which is exactly the set of breakpoints at which the paper's step function
//! `L(r, S)` can change value, behind the reference breakpoint profile
//! `BallCounter::l_profile` (about `8·n²` transient bytes of sorted pairs).
//! GoodRadius reads `L` only on its radius grid, through the grid profile
//! (see [`grid_profile`](crate::grid_profile)), which keys each pair to
//! the first grid radius whose ball holds it. Both recompute their
//! distances from the kept points, so neither reads the sorted rows.
//!
//! Building a [`DistanceMatrix`] only copies the `n` points (`O(n d)`) and
//! records a thread count. The sorted rows — one flat row-major `Vec<f64>`
//! of `n²` entries (`8·n²` bytes) — are filled the first time a method
//! reads them ([`DistanceMatrix::sorted_row`], the `count_within` family,
//! [`DistanceMatrix::two_approx_radius`]),
//! exactly once even when several threads read first at the same time.
//! Points and rows sit together behind one [`Arc`], so a [`DistanceMatrix`]
//! clones in `O(1)` and can be shared across threads and cached per
//! dataset (see [`GeometryIndex`](crate::index::GeometryIndex)). Each row
//! is computed and sorted independently, with up to the recorded number of
//! threads, so the rows are bit-identical at any thread count.

use crate::dataset::Dataset;
use crate::point::Point;
use crate::tol;
use std::sync::{Arc, OnceLock};

#[cfg(debug_assertions)]
static BUILD_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

#[cfg(debug_assertions)]
static ROWS_BUILD_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many [`DistanceMatrix`] builds have run in this process. Always 0 in
/// release builds (the counter only exists under `debug_assertions`); tests
/// assert on *deltas*, so they stay valid either way. This exists so
/// integration tests can prove that the engine's shared per-dataset index
/// really removes the rebuild from the repeated-query path.
// privlint::allow(unused-pub): the build counter the index-reuse tests (a CI step) read from other crates
pub fn debug_build_count() -> u64 {
    #[cfg(debug_assertions)]
    {
        BUILD_COUNT.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// How many times the `n × n` sorted rows of some [`DistanceMatrix`] have
/// been filled in this process. Always 0 in release builds, like
/// [`debug_build_count`]; tests assert on deltas. This lets integration
/// tests prove that serving never pays the `O(n² log n)` row fill or its
/// `8·n²` bytes.
// privlint::allow(unused-pub): the row-fill counter the index-reuse tests (a CI step) read from other crates
pub fn debug_rows_build_count() -> u64 {
    #[cfg(debug_assertions)]
    {
        ROWS_BUILD_COUNT.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Pairwise Euclidean distances of a dataset with per-row sorted order,
/// filled on first read.
///
/// Clones are `O(1)`: the points and the (lazily filled) flat `n × n`
/// storage sit behind an [`Arc`].
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    n: usize,
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    /// The points the rows are computed from.
    points: Vec<Point>,
    /// Worker threads for the row fill (at least 1, at most `n`).
    threads: usize,
    /// Row-major `n × n` distances, filled on first read; row `i`
    /// (`rows[i·n .. (i+1)·n]`) holds the distances from point `i` to all
    /// `n` points (including itself, distance 0), sorted ascending.
    rows: OnceLock<Vec<f64>>,
}

impl DistanceMatrix {
    /// Builds the matrix; its rows will be filled on the calling thread.
    pub fn build(data: &Dataset) -> Self {
        Self::build_parallel(data, 1)
    }

    /// Builds the matrix in `O(n d)`: copies the points and records that up
    /// to `threads` worker threads share the row fill when something first
    /// reads the rows. The rows are **bit-identical** to those of
    /// [`DistanceMatrix::build`] at every thread count.
    pub fn build_parallel(data: &Dataset, threads: usize) -> Self {
        #[cfg(debug_assertions)]
        BUILD_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let n = data.len();
        DistanceMatrix {
            n,
            shared: Arc::new(Shared {
                points: data.points().to_vec(),
                threads: threads.max(1).min(n.max(1)),
                rows: OnceLock::new(),
            }),
        }
    }

    /// The flat sorted rows, filled on the first call. Each row is computed
    /// and sorted independently, in place, in the final buffer — no
    /// per-worker staging copies, so peak memory stays at `8·n²` bytes.
    fn rows(&self) -> &[f64] {
        self.shared.rows.get_or_init(|| {
            #[cfg(debug_assertions)]
            ROWS_BUILD_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let n = self.n;
            let pts = &self.shared.points;
            let fill_row = |i: usize, row: &mut [f64]| {
                for (j, slot) in row.iter_mut().enumerate() {
                    *slot = pts[i].distance(&pts[j]);
                }
                row.sort_by(f64::total_cmp);
            };
            let mut rows = vec![0.0f64; n * n];
            if self.shared.threads <= 1 {
                for (i, row) in rows.chunks_mut(n.max(1)).enumerate() {
                    fill_row(i, row);
                }
            } else {
                // One contiguous block of rows per worker: the scoped threads
                // write disjoint `chunks_mut` ranges of the final buffer.
                let per_block = n.div_ceil(self.shared.threads);
                std::thread::scope(|scope| {
                    for (block, chunk) in rows.chunks_mut(per_block * n).enumerate() {
                        let fill_row = &fill_row;
                        scope.spawn(move || {
                            for (offset, row) in chunk.chunks_mut(n).enumerate() {
                                fill_row(block * per_block + offset, row);
                            }
                        });
                    }
                });
            }
            rows
        })
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.n
    }

    /// The points the distances are computed from.
    pub(crate) fn points(&self) -> &[Point] {
        &self.shared.points
    }

    /// `true` when built from an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The sorted (ascending) distances from point `i` to all points,
    /// including the zero distance to itself.
    pub fn sorted_row(&self, i: usize) -> &[f64] {
        &self.rows()[i * self.n..(i + 1) * self.n]
    }

    /// `B_r(x_i)`: how many points (including `x_i` itself) lie within
    /// distance `r` of point `i`. Uses a closed ball, i.e. counts distances
    /// `≤ r` at the unified tolerance [`tol::within_radius`].
    pub fn count_within(&self, i: usize, r: f64) -> usize {
        if r < 0.0 {
            return 0;
        }
        // partition_point over the ascending row counts the distances within
        // the (tolerance-inflated) closed ball.
        self.sorted_row(i)
            .partition_point(|&d| tol::within_radius(d, r))
    }

    /// Capped count `B̄_r(x_i) = min(B_r(x_i), cap)` (the paper caps at `t`).
    pub fn count_within_capped(&self, i: usize, r: f64, cap: usize) -> usize {
        self.count_within(i, r).min(cap)
    }

    /// All pairwise distances (each unordered pair once, plus the `n` zeros
    /// from the diagonal), sorted ascending and deduplicated at the unified
    /// tolerance [`tol::same_distance`] — the same predicate the
    /// `l_profile` sweep uses to group the same sorted pair list, so a pair
    /// of distances that survives this dedup is never merged there (and
    /// vice versa). These are the breakpoints of every `B_r(x_i)` as a
    /// function of `r`.
    pub fn sorted_all_distances(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.sorted_pairs().into_iter().map(|(d, _, _)| d).collect();
        all.dedup_by(|a, b| tol::same_distance(*a, *b));
        all
    }

    /// Every unordered pair `{i, j}` once as `(d, i, j)` with `i < j`, plus
    /// the `n` diagonal entries `(0, i, i)`, sorted ascending by distance:
    /// `n(n+1)/2` entries of 16 bytes, about `8·n²` bytes in all. Each
    /// distance is recomputed with [`Point::distance`] and is bit-equal to
    /// both row entries of the pair, because `(a − b)² = (b − a)²`. Equal
    /// distances come out in no particular order; both consumers group
    /// runs at the unified tolerance and depend only on which entries a
    /// group holds, never on their order within it.
    pub(crate) fn sorted_pairs(&self) -> Vec<(f64, u32, u32)> {
        let pts = &self.shared.points;
        let mut pairs = Vec::with_capacity(self.n * (self.n + 1) / 2);
        for (i, p) in pts.iter().enumerate() {
            for (j, q) in pts.iter().enumerate().skip(i) {
                pairs.push((p.distance(q), i as u32, j as u32));
            }
        }
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        pairs
    }

    /// The paper's smallest-ball-around-an-input-point radius: the minimum
    /// over `i` of the distance from `x_i` to its `t`-th nearest point. This
    /// is the radius achieved by the folklore 2-approximation (fact 3 of §3).
    pub fn two_approx_radius(&self, t: usize) -> Option<(usize, f64)> {
        if t == 0 || t > self.n {
            return None;
        }
        let mut best: Option<(usize, f64)> = None;
        for i in 0..self.n {
            let r = self.sorted_row(i)[t - 1];
            if best.map(|(_, br)| r < br).unwrap_or(true) {
                best = Some((i, r));
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;

    fn line_dataset() -> Dataset {
        // Points at 0, 1, 2, 10 on the real line.
        Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]]).unwrap()
    }

    #[test]
    fn counts_within_radius() {
        let dm = DistanceMatrix::build(&line_dataset());
        assert_eq!(dm.len(), 4);
        assert!(!dm.is_empty());
        assert_eq!(dm.count_within(0, 0.0), 1); // itself
        assert_eq!(dm.count_within(0, 1.0), 2);
        assert_eq!(dm.count_within(0, 2.0), 3);
        assert_eq!(dm.count_within(0, 100.0), 4);
        assert_eq!(dm.count_within(0, -1.0), 0);
        assert_eq!(dm.count_within(1, 1.0), 3); // 0,1,2 all within 1 of point 1
    }

    #[test]
    fn capped_counts() {
        let dm = DistanceMatrix::build(&line_dataset());
        assert_eq!(dm.count_within_capped(1, 1.0, 2), 2);
        assert_eq!(dm.count_within_capped(1, 1.0, 10), 3);
    }

    #[test]
    fn two_approx_radius_picks_tightest_center() {
        let dm = DistanceMatrix::build(&line_dataset());
        // smallest ball around an input point containing 3 points: center 1,
        // radius 1 (covers 0,1,2).
        let (center, r) = dm.two_approx_radius(3).unwrap();
        assert_eq!(center, 1);
        assert!((r - 1.0).abs() < 1e-12);
        assert!(dm.two_approx_radius(0).is_none());
        assert!(dm.two_approx_radius(5).is_none());
    }

    #[test]
    fn breakpoints_are_deduplicated_and_sorted() {
        let dm = DistanceMatrix::build(&line_dataset());
        let bps = dm.sorted_all_distances();
        assert!(bps.windows(2).all(|w| w[0] < w[1]));
        // Expected distinct distances: 0,1,2,8,9,10
        assert_eq!(bps.len(), 6);
        assert!((bps[0] - 0.0).abs() < 1e-12);
        assert!((bps[5] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn consistency_with_naive_counting_in_2d() {
        let data = Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![0.5, 0.5],
            vec![1.0, 0.0],
            vec![3.0, 3.0],
            vec![3.0, 3.5],
        ])
        .unwrap();
        let dm = DistanceMatrix::build(&data);
        for i in 0..data.len() {
            for r in [0.0, 0.5, std::f64::consts::FRAC_1_SQRT_2, 1.0, 2.0, 5.0] {
                let naive = data
                    .iter()
                    .filter(|p| data.point(i).distance(p) <= r + 1e-12)
                    .count();
                assert_eq!(dm.count_within(i, r), naive, "i={i}, r={r}");
            }
        }
    }

    #[test]
    fn parallel_build_is_bit_identical_to_sequential() {
        let rows: Vec<Vec<f64>> = (0..37)
            .map(|i| vec![(i as f64 * 0.731).sin(), (i as f64 * 1.17).cos()])
            .collect();
        let data = Dataset::from_rows(rows).unwrap();
        let sequential = DistanceMatrix::build(&data);
        for threads in [2usize, 3, 4, 16] {
            let parallel = DistanceMatrix::build_parallel(&data, threads);
            assert_eq!(parallel.len(), sequential.len());
            for i in 0..data.len() {
                let a = sequential.sorted_row(i);
                let b = parallel.sorted_row(i);
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "row {i} differs at {threads} threads"
                );
            }
        }
    }

    #[test]
    fn clones_share_storage() {
        let dm = DistanceMatrix::build(&line_dataset());
        let copy = dm.clone();
        assert!(std::ptr::eq(
            dm.sorted_row(0).as_ptr(),
            copy.sorted_row(0).as_ptr()
        ));
    }

    #[test]
    fn rows_are_filled_on_first_read_only() {
        let dm = DistanceMatrix::build_parallel(&line_dataset(), 2);
        let copy = dm.clone();
        assert!(
            dm.shared.rows.get().is_none(),
            "building must not fill rows"
        );
        assert_eq!(dm.count_within(0, -1.0), 0);
        assert!(
            dm.shared.rows.get().is_none(),
            "a negative radius reads nothing"
        );
        assert_eq!(copy.count_within(1, 1.0), 3);
        assert!(
            dm.shared.rows.get().is_some(),
            "clones share the filled rows"
        );
    }

    #[test]
    fn build_counter_tracks_builds_in_debug() {
        let before = debug_build_count();
        let _ = DistanceMatrix::build(&line_dataset());
        let after = debug_build_count();
        // Other unit tests build matrices concurrently in this process, so
        // assert a lower bound on the delta, not equality.
        if cfg!(debug_assertions) {
            assert!(after > before);
        } else {
            assert_eq!(after, 0);
        }
    }
}
