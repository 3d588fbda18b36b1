//! The exact backend's shared points and the reference pair list.
//!
//! GoodRadius reads the averaged ball count `L(r, S)` only on its radius
//! grid, through the grid profile (see [`grid_profile`](crate::grid_profile)):
//! one counting pass over the dataset's points that keys each pair to the
//! first grid radius whose ball holds it. A [`DistanceMatrix`] is those
//! points: building one copies the `n` points (`O(n d)`) behind an [`Arc`],
//! so it clones in `O(1)` and can be shared across threads and cached per
//! dataset (see [`GeometryIndex`](crate::index::GeometryIndex)). It stores
//! no distances; each pass recomputes them from the points.
//!
//! It also yields the reference pair list: every pairwise distance, sorted.
//! These are the breakpoints at which `L(r, S)` can change value
//! ([`BallCounter::breakpoints`](crate::ball_count::BallCounter::breakpoints)
//! deduplicates them at the unified tolerance), behind the reference
//! breakpoint profile `BallCounter::l_profile` (about `8·n²` transient
//! bytes of sorted pairs), which no query reads.

use crate::dataset::Dataset;
use crate::point::Point;
use crate::tol;
use std::sync::Arc;

#[cfg(debug_assertions)]
static BUILD_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

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

/// A dataset's points, shared by [`Arc`], from which every pairwise
/// Euclidean distance is computed on demand.
#[derive(Debug, Clone)]
pub struct DistanceMatrix {
    points: Arc<[Point]>,
}

impl DistanceMatrix {
    /// Copies the dataset's points, `O(n d)`.
    pub fn build(data: &Dataset) -> Self {
        #[cfg(debug_assertions)]
        BUILD_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        DistanceMatrix {
            points: Arc::from(data.points()),
        }
    }

    /// [`DistanceMatrix::build`]. `threads` is unused: the build is a copy
    /// of the points. The signature stays because perfbench's traced
    /// passes name it.
    pub fn build_parallel(data: &Dataset, _threads: usize) -> Self {
        Self::build(data)
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// The points the distances are computed from.
    pub(crate) fn points(&self) -> &[Point] {
        &self.points
    }

    /// `true` when built from an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All pairwise distances (each unordered pair once, plus the `n` zeros
    /// from the diagonal), sorted ascending and deduplicated at the unified
    /// tolerance [`tol::same_distance`] — the same predicate the
    /// `l_profile` sweep uses to group the same sorted pair list, so a pair
    /// of distances that survives this dedup is never merged there (and
    /// vice versa). These are the breakpoints of every `B_r(x_i)` as a
    /// function of `r`.
    pub(crate) fn sorted_all_distances(&self) -> Vec<f64> {
        let mut all: Vec<f64> = self.sorted_pairs().into_iter().map(|(d, _, _)| d).collect();
        all.dedup_by(|a, b| tol::same_distance(*a, *b));
        all
    }

    /// Every unordered pair `{i, j}` once as `(d, i, j)` with `i < j`, plus
    /// the `n` diagonal entries `(0, i, i)`, sorted ascending by distance:
    /// `n(n+1)/2` entries of 16 bytes, about `8·n²` bytes in all. Each
    /// distance is [`Point::distance`], bit-equal either way round because
    /// `(a − b)² = (b − a)²`. Equal distances come out in no particular
    /// order; both consumers group runs at the unified tolerance and
    /// depend only on which entries a group holds, never on their order
    /// within it.
    pub(crate) fn sorted_pairs(&self) -> Vec<(f64, u32, u32)> {
        let n = self.len();
        let mut pairs = Vec::with_capacity(n * (n + 1) / 2);
        for (i, p) in self.points.iter().enumerate() {
            for (j, q) in self.points.iter().enumerate().skip(i) {
                pairs.push((p.distance(q), i as u32, j as u32));
            }
        }
        pairs.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_dataset() -> Dataset {
        // Points at 0, 1, 2, 10 on the real line.
        Dataset::from_rows(vec![vec![0.0], vec![1.0], vec![2.0], vec![10.0]]).unwrap()
    }

    #[test]
    fn breakpoints_are_deduplicated_and_sorted() {
        let dm = DistanceMatrix::build(&line_dataset());
        assert_eq!(dm.len(), 4);
        assert!(!dm.is_empty());
        let bps = dm.sorted_all_distances();
        assert!(bps.windows(2).all(|w| w[0] < w[1]));
        // Expected distinct distances: 0,1,2,8,9,10
        assert_eq!(bps.len(), 6);
        assert!((bps[0] - 0.0).abs() < 1e-12);
        assert!((bps[5] - 10.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_the_points() {
        let dm = DistanceMatrix::build(&line_dataset());
        let copy = dm.clone();
        assert!(std::ptr::eq(dm.points().as_ptr(), copy.points().as_ptr()));
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
