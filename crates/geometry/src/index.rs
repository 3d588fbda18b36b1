//! A shared, per-dataset geometry index.
//!
//! Every query the paper's pipeline answers starts from the same two
//! objects: the `O(n²)` pairwise [`DistanceMatrix`] and, per cap `t`, the
//! precomputed step function [`LProfile`] of `L(·, S)`. Both depend only on
//! the (immutable) dataset, yet historically every solver call rebuilt them
//! from scratch — `O(n² d)` of work per query. A [`GeometryIndex`] pays
//! that cost **once per dataset**: the matrix is built eagerly (optionally
//! in parallel), profiles are built lazily on first use of each cap and
//! memoised, and the whole index is `Sync`, so an engine can stash one
//! behind an `Arc` at registration time and serve every later query at
//! `O(n log n)`.
//!
//! Memory: the matrix is one flat `Vec<f64>` of `8·n²` bytes (2 MB at
//! `n = 500`, 800 MB at `n = 10_000` — the quadratic footprint, like the
//! quadratic build, is inherent to the paper's breakpoint structure) plus
//! the `n` points it was built from; each cached profile adds at most
//! `8·n²` further bytes in the worst case of all-distinct pairwise
//! distances, though ties usually make it far smaller, and building one
//! briefly holds a sorted pair list of about `8·n²` bytes; at most
//! [`MAX_CACHED_PROFILES`] profiles are retained (the cap `t` is
//! client-controlled on the engine's query wire, so the memoisation must
//! be bounded).

use crate::ball_count::{BallCounter, LProfile};
use crate::dataset::Dataset;
use crate::distance::DistanceMatrix;
use crate::sync::lock_recover;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Most distinct caps whose `L` profiles one index memoises. The cap `t` is
/// client-controlled in an engine deployment (it arrives on the query wire),
/// so an unbounded map would let an adversarial query stream `t = 1, 2, 3…`
/// grow `O(n)` profiles of up to `O(n²)` bytes each — a memory-exhaustion
/// vector. Beyond this bound the **least-recently-used** memoised cap is
/// evicted (profiles are deterministic, so eviction can only cost rebuild
/// time, never change a result); honest workloads reuse a handful of caps
/// and never evict. The policy matches the engine's `ResultCache`: a FIFO
/// policy here let an adversarial client rotate fresh caps to evict a hot,
/// constantly-reused cap and force its `O(n² log n)` rebuild every time.
pub const MAX_CACHED_PROFILES: usize = 8;

/// Precomputed pairwise-distance geometry of one dataset, shareable across
/// threads and queries.
#[derive(Debug)]
pub struct GeometryIndex {
    dm: DistanceMatrix,
    /// Lazily-built `L(·, S)` profiles, keyed by the cap `t` and bounded by
    /// [`MAX_CACHED_PROFILES`] (LRU eviction).
    profiles: Mutex<ProfileCache>,
}

/// A bounded, least-recently-used memo of `L(·, S)` profiles keyed by cap.
/// Shared by the exact [`GeometryIndex`] and the projected backend
/// ([`crate::backend::ProjectedBackend`]), which face the same
/// client-controlled-cap memory-exhaustion vector.
///
/// Each cap owns a [`ProfileSlot`], taken under the cache lock and filled
/// outside it: first users of *different* caps build in parallel, while
/// racing users of the *same* cap build it once — the first to reach the
/// slot builds, the rest wait on it.
#[derive(Debug, Default)]
pub(crate) struct ProfileCache {
    by_cap: HashMap<usize, ProfileSlot>,
    /// Memoised caps, least-recently-used first.
    order: VecDeque<usize>,
}

/// One cap's profile, built at most once while the slot stays cached.
type ProfileSlot = Arc<OnceLock<Arc<LProfile>>>;

impl ProfileCache {
    /// The slot for `cap`, refreshing its recency; on a miss, a new empty
    /// slot, evicting the least-recently-used cap at capacity. The map never
    /// exceeds [`MAX_CACHED_PROFILES`] entries, so the linear `touch` scan
    /// is O(1) in practice. Evicting a slot that is still being filled only
    /// drops the cache's handle: its builder keeps its own.
    pub(crate) fn slot(&mut self, cap: usize) -> ProfileSlot {
        if !self.by_cap.contains_key(&cap) && self.by_cap.len() >= MAX_CACHED_PROFILES {
            if let Some(lru) = self.order.pop_front() {
                self.by_cap.remove(&lru);
            }
        }
        let slot = Arc::clone(self.by_cap.entry(cap).or_default());
        self.touch(cap);
        slot
    }

    fn touch(&mut self, cap: usize) {
        if let Some(pos) = self.order.iter().position(|&c| c == cap) {
            self.order.remove(pos);
        }
        self.order.push_back(cap);
    }

    pub(crate) fn len(&self) -> usize {
        self.by_cap.len()
    }
}

impl GeometryIndex {
    /// Builds the index for `data`, filling the distance matrix with up to
    /// `threads` workers (bit-identical at any thread count).
    pub fn build(data: &Dataset, threads: usize) -> Self {
        Self::from_matrix(DistanceMatrix::build_parallel(data, threads))
    }

    /// Wraps an already-built matrix (an `O(1)` move: matrices share their
    /// storage via `Arc`).
    pub fn from_matrix(dm: DistanceMatrix) -> Self {
        GeometryIndex {
            dm,
            profiles: Mutex::new(ProfileCache::default()),
        }
    }

    /// The underlying distance matrix.
    pub fn distances(&self) -> &DistanceMatrix {
        &self.dm
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.dm.len()
    }

    /// `true` when built from an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.dm.is_empty()
    }

    /// A [`BallCounter`] over the shared matrix for cap `t` (`O(1)`).
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn ball_counter(&self, cap: usize) -> BallCounter {
        BallCounter::from_matrix(self.dm.clone(), cap)
    }

    /// The `L(·, S)` profile for cap `t`, built on first use and memoised
    /// (up to [`MAX_CACHED_PROFILES`] distinct caps, least-recently-used
    /// evicted first). Identical (bit-for-bit) to
    /// `BallCounter::new(data, t).l_profile()`.
    ///
    /// A build is the `O(n² log n)` pairs-once sweep and briefly holds about
    /// `8·n²` bytes of sorted pairs. It runs outside the cache lock, so
    /// first users of different caps build in parallel, and once per cap:
    /// callers racing on a cap that is being built wait for that build.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    pub fn l_profile(&self, cap: usize) -> Arc<LProfile> {
        assert!(cap >= 1, "cap t must be at least 1");
        let slot = lock_recover(&self.profiles).slot(cap);
        Arc::clone(slot.get_or_init(|| Arc::new(self.ball_counter(cap).l_profile())))
    }

    /// How many distinct caps have a cached profile (diagnostics/tests).
    pub fn cached_profiles(&self) -> usize {
        lock_recover(&self.profiles).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data() -> Dataset {
        Dataset::from_rows(
            (0..30)
                .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn profiles_are_memoised_per_cap() {
        let index = GeometryIndex::build(&data(), 2);
        assert_eq!(index.len(), 30);
        assert!(!index.is_empty());
        assert_eq!(index.cached_profiles(), 0);
        let a = index.l_profile(5);
        let b = index.l_profile(5);
        assert!(Arc::ptr_eq(&a, &b), "same cap must share one profile");
        let _ = index.l_profile(7);
        assert_eq!(index.cached_profiles(), 2);
    }

    #[test]
    fn indexed_profile_matches_fresh_build() {
        let data = data();
        let index = GeometryIndex::build(&data, 4);
        for cap in [1usize, 3, 10, 30] {
            let via_index = index.l_profile(cap);
            let fresh = BallCounter::new(&data, cap).l_profile();
            assert_eq!(via_index.breakpoints().len(), fresh.breakpoints().len());
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(via_index.breakpoints()), bits(fresh.breakpoints()));
            assert_eq!(bits(via_index.values()), bits(fresh.values()));
        }
    }

    #[test]
    fn profile_memoisation_is_bounded() {
        let index = GeometryIndex::build(&data(), 1);
        for cap in 1..=(2 * MAX_CACHED_PROFILES) {
            let _ = index.l_profile(cap);
            assert!(index.cached_profiles() <= MAX_CACHED_PROFILES);
        }
        assert_eq!(index.cached_profiles(), MAX_CACHED_PROFILES);
        // Evicted caps still answer correctly (rebuilt on demand) and
        // bit-identically.
        let rebuilt = index.l_profile(1);
        let fresh = BallCounter::new(&data(), 1).l_profile();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(rebuilt.breakpoints()), bits(fresh.breakpoints()));
        assert_eq!(bits(rebuilt.values()), bits(fresh.values()));
    }

    #[test]
    fn profile_eviction_is_lru_not_fifo() {
        let index = GeometryIndex::build(&data(), 1);
        for cap in 1..=MAX_CACHED_PROFILES {
            let _ = index.l_profile(cap);
        }
        // Touch cap 1 — the oldest *inserted* cap, i.e. exactly the entry a
        // FIFO policy would evict next — then force one eviction.
        let hot = index.l_profile(1);
        let _ = index.l_profile(MAX_CACHED_PROFILES + 1);
        assert_eq!(index.cached_profiles(), MAX_CACHED_PROFILES);
        let again = index.l_profile(1);
        assert!(
            Arc::ptr_eq(&hot, &again),
            "recently-used cap was evicted: the cache is FIFO, not LRU"
        );
    }

    #[test]
    fn ball_counter_shares_the_matrix() {
        let index = GeometryIndex::build(&data(), 1);
        let bc = index.ball_counter(4);
        assert!(std::ptr::eq(
            index.distances().sorted_row(0).as_ptr(),
            bc.distances().sorted_row(0).as_ptr()
        ));
    }
}
