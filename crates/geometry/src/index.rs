//! A shared, per-dataset geometry index: the exact backend.
//!
//! Every query the paper's pipeline answers starts from the same object:
//! per cap `t` and radius grid, the step function `L(·, S)` sampled on
//! that grid ([`GridProfile`]). It depends only on the (immutable)
//! dataset, yet historically every solver call rebuilt it from scratch —
//! `O(n² d)` of work per query. A [`GeometryIndex`] pays that cost **once
//! per cap and grid**: building it copies the points (`O(n d)`), grid
//! profiles are built lazily on first use of each cap and grid and
//! memoised, and the whole index is `Sync`, so an engine can stash one
//! behind an `Arc` at registration time and serve every later query from
//! its cached profiles.
//!
//! Memory: the index holds the `n` points and its cached profiles. Each
//! cached grid profile holds at most one entry per grid radius and per
//! pair, `O(min(G, n²))` for `G` grid radii, and building one briefly
//! holds 12 bytes per pair it keeps, the pairs within the radius where `L`
//! saturates (16 on grids far finer than the data; see [`grid_profile`]).
//! The index takes at most
//! [`MAX_EXACT_POINTS`](crate::grid_profile::MAX_EXACT_POINTS) points
//! (65,536), the most a profile build packs into its 32-bit pairs. At most
//! [`MAX_CACHED_PROFILES`] profiles are retained (the cap `t` is
//! client-controlled on the engine's query wire, so the memoisation must
//! be bounded).

use crate::backend::{BackendKind, GeometryBackend};
use crate::ball_count::{breakpoint_profile, LProfile};
use crate::dataset::Dataset;
use crate::distance::DistanceMatrix;
use crate::domain::GridDomain;
use crate::grid_profile::{self, note_profile_build, GridProfile};
use crate::sync::lock_recover;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Most grid profiles one index memoises. The cap `t` is client-controlled
/// in an engine deployment (it arrives on the query wire), so an unbounded
/// map would let an adversarial query stream `t = 1, 2, 3…` grow `O(n)`
/// profiles of up to `O(n²)` bytes each — a memory-exhaustion vector. Beyond this bound the **least-recently-used** profile is evicted
/// (profiles are deterministic, so eviction can only cost rebuild time,
/// never change a result); honest workloads reuse a handful of caps and
/// never evict. The policy matches the engine's `ResultCache`: a FIFO
/// policy here let an adversarial client rotate fresh caps to evict a hot,
/// constantly-reused cap and force its rebuild every time.
pub const MAX_CACHED_PROFILES: usize = 8;

/// The exact backend: one dataset's points and their memoised grid
/// profiles, shareable across threads and queries.
#[derive(Debug)]
pub struct GeometryIndex {
    dm: DistanceMatrix,
    /// Lazily-built grid profiles, bounded by [`MAX_CACHED_PROFILES`] (LRU
    /// eviction).
    profiles: Mutex<ProfileCache>,
}

/// A bounded, least-recently-used memo of grid profiles keyed by cap and
/// grid. Shared by the exact [`GeometryIndex`] and the projected backend
/// ([`crate::backend::ProjectedBackend`]), which face the same
/// client-controlled memory-exhaustion vector.
///
/// Each key owns a [`ProfileSlot`], taken under the cache lock and filled
/// outside it: first users of *different* keys build in parallel, while
/// racing users of the *same* key build it once — the first to reach the
/// slot builds, the rest wait on it.
#[derive(Debug, Default)]
pub(crate) struct ProfileCache {
    slots: HashMap<ProfileKey, ProfileSlot>,
    /// Memoised keys, least-recently-used first.
    order: VecDeque<ProfileKey>,
}

/// What a grid profile depends on besides the data: the cap, and the grid
/// as its step's bits and its number of radii.
type ProfileKey = (usize, u64, u64);

/// One key's profile, built at most once while the slot stays cached.
type ProfileSlot = Arc<OnceLock<Arc<GridProfile>>>;

impl ProfileCache {
    /// The grid profile for `cap` on `domain`'s grid: cached, or built by
    /// `build` outside the cache lock, once however many callers race on it.
    pub(crate) fn get_or_build(
        cache: &Mutex<Self>,
        cap: usize,
        domain: &GridDomain,
        build: impl FnOnce() -> GridProfile,
    ) -> Arc<GridProfile> {
        assert!(cap >= 1, "cap t must be at least 1");
        let key = (cap, domain.grid_step().to_bits(), domain.radius_grid_len());
        let slot = lock_recover(cache).slot(key);
        Arc::clone(slot.get_or_init(|| {
            note_profile_build();
            Arc::new(build())
        }))
    }

    /// The slot for `key`, refreshing its recency; on a miss, a new empty
    /// slot, evicting the least-recently-used key at capacity. The map never
    /// exceeds [`MAX_CACHED_PROFILES`] entries, so the linear `touch` scan
    /// is O(1) in practice. Evicting a slot that is still being filled only
    /// drops the cache's handle: its builder keeps its own.
    fn slot(&mut self, key: ProfileKey) -> ProfileSlot {
        if !self.slots.contains_key(&key) && self.slots.len() >= MAX_CACHED_PROFILES {
            if let Some(lru) = self.order.pop_front() {
                self.slots.remove(&lru);
            }
        }
        let slot = Arc::clone(self.slots.entry(key).or_default());
        self.touch(key);
        slot
    }

    fn touch(&mut self, key: ProfileKey) {
        if let Some(pos) = self.order.iter().position(|&k| k == key) {
            self.order.remove(pos);
        }
        self.order.push_back(key);
    }

    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }
}

impl GeometryIndex {
    /// Builds the index for `data` in `O(n d)`: a copy of its points.
    pub fn build(data: &Dataset) -> Self {
        Self::from_matrix(DistanceMatrix::build(data))
    }

    /// Wraps already-copied points (an `O(1)` move: matrices share their
    /// points via `Arc`).
    pub fn from_matrix(dm: DistanceMatrix) -> Self {
        GeometryIndex {
            dm,
            profiles: Mutex::new(ProfileCache::default()),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.dm.len()
    }

    /// `true` when built from an empty dataset.
    pub fn is_empty(&self) -> bool {
        self.dm.is_empty()
    }

    /// The grid profile for cap `t` on `domain`'s grid, built on first use
    /// and memoised (up to [`MAX_CACHED_PROFILES`] distinct caps and grids,
    /// least-recently-used evicted first). Identical to
    /// `BallCounter::new(data, t).grid_profile(domain)`.
    ///
    /// A build is [`grid_profile`](mod@crate::grid_profile)'s counting
    /// pass over the points, the ball count `BallCounter::l_value` at each
    /// quarter radius. It runs outside the cache lock, so first users of
    /// different caps build in parallel, and once per cap and grid:
    /// callers racing on one that is being built wait for that build.
    ///
    /// # Panics
    /// Panics if `cap == 0`, or past
    /// [`MAX_EXACT_POINTS`](crate::grid_profile::MAX_EXACT_POINTS) points.
    pub fn grid_profile(&self, cap: usize, domain: &GridDomain) -> Arc<GridProfile> {
        ProfileCache::get_or_build(&self.profiles, cap, domain, || {
            grid_profile::count_pairs(self.dm.points(), None, cap, domain).0
        })
    }

    /// How many grid profiles are cached (diagnostics/tests).
    // privlint::allow(unused-pub): the cache size the profile-cache bound tests in this crate's and the core crate's tests read
    pub fn cached_profiles(&self) -> usize {
        lock_recover(&self.profiles).len()
    }
}

impl GeometryBackend for GeometryIndex {
    fn kind(&self) -> BackendKind {
        BackendKind::Exact
    }

    fn len(&self) -> usize {
        GeometryIndex::len(self)
    }

    fn grid_profile(&self, cap: usize, domain: &GridDomain) -> Arc<GridProfile> {
        GeometryIndex::grid_profile(self, cap, domain)
    }

    fn l_profile(&self, cap: usize) -> Arc<LProfile> {
        Arc::new(breakpoint_profile(&self.dm, cap))
    }

    fn radius_slack(&self) -> f64 {
        0.0
    }

    fn rebuild_for(&self, data: &Dataset) -> Arc<dyn GeometryBackend> {
        Arc::new(GeometryIndex::build(data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball_count::BallCounter;

    fn data() -> Dataset {
        Dataset::from_rows(
            (0..30)
                .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()])
                .collect(),
        )
        .unwrap()
    }

    fn domain() -> GridDomain {
        GridDomain::new(2, 1 << 8, -1.0, 1.0).unwrap()
    }

    #[test]
    fn profiles_are_memoised_per_cap_and_grid() {
        let index = GeometryIndex::build(&data());
        assert_eq!(index.len(), 30);
        assert!(!index.is_empty());
        assert_eq!(index.cached_profiles(), 0);
        let a = index.grid_profile(5, &domain());
        let b = index.grid_profile(5, &domain());
        assert!(
            Arc::ptr_eq(&a, &b),
            "same cap and grid must share one profile"
        );
        let _ = index.grid_profile(7, &domain());
        assert_eq!(index.cached_profiles(), 2);
        // Same grid, shifted axis range: the same profile.
        let shifted = GridDomain::new(2, 1 << 8, 0.0, 2.0).unwrap();
        assert!(Arc::ptr_eq(&a, &index.grid_profile(5, &shifted)));
        // Another grid: another profile.
        let finer = GridDomain::new(2, 1 << 9, -1.0, 1.0).unwrap();
        let _ = index.grid_profile(5, &finer);
        assert_eq!(index.cached_profiles(), 3);
    }

    #[test]
    fn indexed_profile_matches_fresh_build() {
        let data = data();
        let index = GeometryIndex::build(&data);
        for cap in [1usize, 3, 10, 30] {
            let via_index = index.grid_profile(cap, &domain());
            let fresh = BallCounter::new(&data, cap).grid_profile(&domain());
            assert_eq!(*via_index, fresh);
        }
    }

    #[test]
    fn profile_memoisation_is_bounded() {
        let index = GeometryIndex::build(&data());
        for cap in 1..=(2 * MAX_CACHED_PROFILES) {
            let _ = index.grid_profile(cap, &domain());
            assert!(index.cached_profiles() <= MAX_CACHED_PROFILES);
        }
        assert_eq!(index.cached_profiles(), MAX_CACHED_PROFILES);
        // Evicted caps still answer correctly (rebuilt on demand) and
        // bit-identically.
        let rebuilt = index.grid_profile(1, &domain());
        let fresh = BallCounter::new(&data(), 1).grid_profile(&domain());
        assert_eq!(*rebuilt, fresh);
    }

    #[test]
    fn profile_eviction_is_lru_not_fifo() {
        let index = GeometryIndex::build(&data());
        for cap in 1..=MAX_CACHED_PROFILES {
            let _ = index.grid_profile(cap, &domain());
        }
        // Touch cap 1 — the oldest *inserted* cap, i.e. exactly the entry a
        // FIFO policy would evict next — then force one eviction.
        let hot = index.grid_profile(1, &domain());
        let _ = index.grid_profile(MAX_CACHED_PROFILES + 1, &domain());
        assert_eq!(index.cached_profiles(), MAX_CACHED_PROFILES);
        let again = index.grid_profile(1, &domain());
        assert!(
            Arc::ptr_eq(&hot, &again),
            "recently-used cap was evicted: the cache is FIFO, not LRU"
        );
    }
}
