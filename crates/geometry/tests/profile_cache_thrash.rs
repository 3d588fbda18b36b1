//! The `GeometryIndex` profile cache must not thrash under adversarial
//! client-chosen cap rotation.
//!
//! The cap `t` arrives on the engine's query wire, so a hostile client
//! controls the access pattern. Under the old FIFO eviction, a workload
//! that keeps one *hot* cap in constant use while rotating fresh caps past
//! the bound evicted the hot cap anyway (FIFO ignores recency), forcing
//! its `O(n²·d)` grid-profile rebuild on every single use. LRU keeps the
//! hot cap resident no matter how many cold caps stream by.
//!
//! `grid_profile::debug_profile_build_count()` counts every cached grid
//! profile build in the process (the profile-level twin of
//! `distance::debug_build_count`, debug builds only). This file holds
//! exactly **one** test so nothing else in the binary races the counter.

use privcluster_geometry::grid_profile::debug_profile_build_count;
use privcluster_geometry::index::MAX_CACHED_PROFILES;
use privcluster_geometry::{Dataset, GeometryIndex, GridDomain};

#[test]
fn hot_cap_is_never_rebuilt_under_adversarial_cap_rotation() {
    let data = Dataset::from_rows(
        (0..40)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()])
            .collect(),
    )
    .unwrap();
    let index = GeometryIndex::build(&data);
    let domain = GridDomain::new(2, 1 << 10, -1.0, 1.0).unwrap();

    let hot_cap = 1usize;
    let before = debug_profile_build_count();
    let _ = index.grid_profile(hot_cap, &domain);
    let after_first = debug_profile_build_count();
    if cfg!(debug_assertions) {
        assert_eq!(after_first, before + 1, "first use builds the hot profile");
    }

    // Adversarial rotation: between every two uses of the hot cap, stream
    // in a fresh never-seen cap. Each round fills one more cache slot (and
    // past the bound evicts one), but recency-based eviction must always
    // pick a cold cap — the hot one was touched more recently than all of
    // them.
    let rounds = 4 * MAX_CACHED_PROFILES;
    for round in 0..rounds {
        let fresh_cap = hot_cap + 1 + round; // never repeats
        let _ = index.grid_profile(fresh_cap, &domain);
        let _ = index.grid_profile(hot_cap, &domain);
    }
    let after_rotation = debug_profile_build_count();
    if cfg!(debug_assertions) {
        // Exactly one build per fresh cap and ZERO further builds for the
        // hot cap. Under FIFO this was `rounds` extra builds: the hot cap
        // was evicted and rebuilt every round once the cache filled.
        assert_eq!(
            after_rotation,
            after_first + rounds as u64,
            "rebuild count not bounded: the hot cap is being evicted"
        );
    }
    assert!(index.cached_profiles() <= MAX_CACHED_PROFILES);

    // The hot profile answers identically after all that churn.
    let via_cache = index.grid_profile(hot_cap, &domain);
    assert_eq!(via_cache.value(0), 1.0);
}
