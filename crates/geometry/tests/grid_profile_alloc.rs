//! A grid profile on a client-sized domain allocates nothing per grid
//! radius.
//!
//! The number of grid radii `G` comes from `domain.size`, which a client
//! sends on the wire as an unbounded `u64`. At `size = 2^40` in two
//! dimensions, `G` is about 3.1·10^12, so a table with one byte per grid
//! radius would be terabytes. This binary counts every allocation with a
//! wrapping global allocator and requires both backends' builds to stay
//! under a bound that depends on `n` alone. It holds exactly **one** test so
//! nothing else in the binary allocates while the counters run.

use privcluster_geometry::{
    tol, BallCounter, Dataset, GeometryBackend, GeometryIndex, GridDomain, GridProfile,
    ProjectedBackend,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request and the
/// bytes requested in all.
struct Counting;

static LARGEST: AtomicUsize = AtomicUsize::new(0);
static TOTAL: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    LARGEST.fetch_max(size, Ordering::Relaxed);
    TOTAL.fetch_add(size, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// `GlobalAlloc` contract is the one the caller already meets; the counters
// are atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` is passed on as it came.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with this `layout`, and the
        // caller's `new_size` is passed on as it came.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `build` and returns what it allocated: (largest request, total).
fn allocations<T>(build: impl FnOnce() -> T) -> (T, usize, usize) {
    LARGEST.store(0, Ordering::Relaxed);
    let before = TOTAL.load(Ordering::Relaxed);
    let out = build();
    (
        out,
        LARGEST.load(Ordering::Relaxed),
        TOTAL.load(Ordering::Relaxed) - before,
    )
}

#[test]
fn a_client_sized_domain_builds_without_per_radius_allocations() {
    let domain = GridDomain::unit_cube(2, 1 << 40).unwrap();
    assert!(domain.radius_grid_len() > 3_000_000_000_000);
    let data = Dataset::from_rows(
        (0..64)
            .map(|i| {
                let x = i as f64;
                vec![(x * 0.37).sin().abs(), (x * 0.91).cos().abs()]
            })
            .collect(),
    )
    .unwrap();
    // 64 points: 2,080 pairs. The bound covers the pairs sorted by key (16
    // bytes a pair) and a profile of one entry per pair several times over;
    // one byte per grid radius would be 3 TB.
    const BOUND: usize = 1 << 20;

    let exact = GeometryIndex::build(&data);
    let (grid, largest, total) = allocations(|| exact.grid_profile(16, &domain));
    assert!(
        largest < BOUND && total < BOUND,
        "exact: largest {largest} B, total {total} B"
    );
    // The ball count `l_value(ρ_q)`, bit for bit, where the profile steps.
    let bc = BallCounter::new(&data, 16);
    for q in pinning_quarters(&grid, &domain) {
        let r = domain.radius_from_index(q) / 2.0;
        assert_eq!(grid.value(q).to_bits(), bc.l_value(r).to_bits(), "L(ρ_{q})");
    }

    let projected = ProjectedBackend::build_default(&data);
    let (grid, largest, total) = allocations(|| projected.grid_profile(16, &domain));
    assert!(
        largest < BOUND && total < BOUND,
        "projected: largest {largest} B, total {total} B"
    );
    // The weighted ball count over the buckets' sites, bit for bit, where
    // the profile steps: every point's count is its site's, the points
    // whose sites lie within ρ_q of it, and `L` the top 16 of them capped
    // at 16. In two dimensions the projection is the identity, so a site
    // is its representative's input point.
    assert_eq!(projected.projected_dim(), 2);
    let site = |i: usize| data.point(projected.representative_of(i));
    for q in pinning_quarters(&grid, &domain) {
        let r = domain.radius_from_index(q) / 2.0;
        let mut counts: Vec<usize> = (0..data.len())
            .map(|i| {
                let within = (0..data.len())
                    .filter(|&j| tol::within_radius(site(i).distance(site(j)), r))
                    .count();
                within.min(16)
            })
            .collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        let top: usize = counts.iter().take(16).sum();
        assert_eq!(
            grid.value(q).to_bits(),
            (top as f64 / 16.0).to_bits(),
            "L(ρ_{q})"
        );
    }
}

/// 0, the last quarter index and `2k − 2 ..= 2k` for each segment start
/// `k`: every step `j` of `L` starts segment `⌈j/2⌉`, so these hold each
/// step and the index before it, and pin the profile to any monotone
/// reference.
fn pinning_quarters(grid: &GridProfile, domain: &GridDomain) -> Vec<u64> {
    let around = grid
        .segment_starts()
        .iter()
        .flat_map(|&k| (2 * k).saturating_sub(2)..=2 * k);
    [0, 2 * (domain.radius_grid_len() - 1)]
        .into_iter()
        .chain(around)
        .collect()
}
