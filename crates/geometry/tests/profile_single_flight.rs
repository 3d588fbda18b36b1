//! Racing first users of one cap and grid must share a single grid-profile
//! build.
//!
//! Each cap and grid's profile sits in a slot that the cache hands out
//! under its lock and that the first caller fills outside it; callers
//! arriving while it is being filled wait for that build instead of
//! starting their own. Without the slot, every thread that missed the
//! cache built the same profile, so a batch of same-cap queries on a fresh
//! dataset paid the build once per thread.
//!
//! `grid_profile::debug_profile_build_count()` counts every cached grid
//! profile build in the process (debug builds only). This file holds
//! exactly **one** test so nothing else in the binary races the counter.

use privcluster_geometry::grid_profile::debug_profile_build_count;
use privcluster_geometry::{Dataset, GeometryBackend, GeometryIndex, GridDomain, ProjectedBackend};
use std::sync::{Arc, Barrier};

const THREADS: usize = 4;

/// Starts `THREADS` threads together on `backend.grid_profile(cap, ..)` and
/// returns how many profile builds they caused.
fn racing_builds(backend: Arc<dyn GeometryBackend>, cap: usize) -> u64 {
    let domain = GridDomain::new(2, 1 << 10, -1.0, 1.0).unwrap();
    let barrier = Arc::new(Barrier::new(THREADS));
    let before = debug_profile_build_count();
    let profiles: Vec<_> = (0..THREADS)
        .map(|_| {
            let backend = Arc::clone(&backend);
            let barrier = Arc::clone(&barrier);
            let domain = domain.clone();
            std::thread::spawn(move || {
                barrier.wait();
                backend.grid_profile(cap, &domain)
            })
        })
        .collect::<Vec<_>>()
        .into_iter()
        .map(|handle| handle.join().expect("profile thread"))
        .collect();
    let builds = debug_profile_build_count() - before;
    assert!(
        profiles.iter().all(|p| Arc::ptr_eq(p, &profiles[0])),
        "racing callers must share one profile"
    );
    builds
}

#[test]
fn racing_same_cap_callers_build_the_profile_once_on_both_backends() {
    let data = Dataset::from_rows(
        (0..400)
            .map(|i| vec![(i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()])
            .collect(),
    )
    .unwrap();
    let exact: Arc<dyn GeometryBackend> = Arc::new(GeometryIndex::build(&data));
    let projected: Arc<dyn GeometryBackend> = Arc::new(ProjectedBackend::build_default(&data));
    for (name, backend) in [("exact", exact), ("projected", projected)] {
        let builds = racing_builds(backend, 40);
        if cfg!(debug_assertions) {
            assert_eq!(
                builds, 1,
                "{name}: {THREADS} racing callers built {builds} times"
            );
        }
    }
}
