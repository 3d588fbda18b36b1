//! Pluggable per-dataset geometry backends.
//!
//! Every clustering query the pipeline answers reduces to one primitive
//! over an immutable dataset: the averaged step function `L(·, S)`, read on
//! GoodRadius's radius grid ([`GridProfile`]). The **exact** implementation
//! — [`GeometryIndex`](crate::index::GeometryIndex) over the dataset's
//! points — answers it perfectly.
//! It registers in `O(n d)`, but its first grid profile for each cap and
//! grid computes the distance of every pair whose first coordinates lie
//! within the radius past which `L` cannot change, up to all `n(n+1)/2`
//! (`O(n²·d + G)` time for `G` grid radii, split over the engine's worker
//! threads), and holds 12 transient bytes per pair within that radius: a
//! hard scaling cliff, and it takes at most [`MAX_EXACT_POINTS`] points,
//! 65,536. (The projected backend's weighted pass runs on one thread.)
//! The paper's own remedy (§4) is to
//! give up exactness: Johnson–Lindenstrauss-project to `k = O(log n)`
//! dimensions and reason about *coarse spatial buckets* instead of
//! individual points.
//!
//! [`GeometryBackend`] abstracts over the two regimes so the solvers in
//! `privcluster-core` and the engine's planner never branch on which one
//! serves a dataset:
//!
//! * [`GeometryIndex`](crate::index::GeometryIndex) is the `Exact`
//!   backend: zero approximation slack, quadratic cost.
//! * [`ProjectedBackend`] is the sub-quadratic backend: points are
//!   JL-projected ([`JlTransform`], Lemma 4.10), bucketed by a shifted-grid
//!   [`BoxPartition`] (the step-3a machinery of GoodCenter) whose cell
//!   width is the smallest that keeps the occupied-bucket count below a
//!   budget `B = O(√n)`, and every query is answered from the buckets'
//!   **weighted sites**: each representative's projected coordinates,
//!   weighted by its bucket's occupancy. Build cost is `O(n·d·k)` time for
//!   the projection (none when it is the identity) and one `O(n·k)` pass
//!   over the points' cells (`partition::CellIds`) for each candidate cell
//!   width that the points' bounding box cannot settle, plus one for the
//!   accepted width's buckets if its cells were not counted on the way. It
//!   keeps `O(n + B)`: a bucket id per point and `B` sites, no `B²`
//!   samples. It never builds a `DistanceMatrix`
//!   (pinned by `distance::debug_build_count` in tests). Its grid
//!   profile is the weighted ball count over the sites at each quarter
//!   radius, one `O(B²·k)` pass ([`crate::grid_profile`]).
//!
//! The solvers and the engine read only [`GeometryBackend::grid_profile`],
//! [`GeometryBackend::len`] and [`GeometryBackend::kind`] (plus
//! [`GeometryBackend::rebuild_for`] between k-cluster rounds).
//! Both backends' grid profiles are the one weighted counting pass of
//! [`crate::grid_profile`]: the exact backend's over its points, one each,
//! which is the ball count
//! [`BallCounter::l_value`](crate::ball_count::BallCounter::l_value) at
//! each quarter radius. [`GeometryBackend::l_profile`] is the uncached
//! breakpoint profile, a reference no query reads; near a breakpoint its
//! tolerance groups can differ from the ball count.
//!
//! # Approximation contract
//!
//! Let `D` be the backend's realised displacement bound (the largest
//! distance from a point to its bucket representative in projected space;
//! see [`ProjectedBackend::displacement`]) and `slack = 2·D`
//! ([`GeometryBackend::radius_slack`]). A point's count is its bucket's
//! site's: the occupancy of every bucket whose site lies within `r` of it,
//! which lies between the exact counts `B_{r ± slack}(x_i)`. So the
//! projected profile is bracketed by exact answers at slack-shifted radii,
//! evaluated in projected space:
//!
//! ```text
//! L(r − slack, S)  ≤  grid_profile.value(j)  ≤  L(r + slack, S)   (r = ρ_j)
//! ```
//!
//! (up to the boundary window of the unified tolerance [`tol`], which both
//! sides share; the breakpoint `l_profile` keeps the bracket too). When
//! the JL transform is the identity — whenever the
//! source dimension is already `O(log n)`, the common low-dimensional case —
//! projected space *is* the input space and the bracket holds verbatim;
//! this is what `tests/geometry_properties.rs` property-checks. When a real
//! projection fires, pairwise distances additionally distort by a factor
//! `1 ± η` with the failure probability of Lemma 4.10
//! (`2 n² exp(−η² k / 8)` for target dimension `k`).
//!
//! Builds are **deterministic**: the backend's internal randomness (JL
//! matrix, grid shifts) comes from a fixed-seed RNG stream
//! ([`ProjectedConfig::seed`]), so the same dataset always produces the
//! bit-identical backend at any thread count.

use crate::ball_count::{LProfile, WeightedCounts};
use crate::dataset::Dataset;
use crate::domain::GridDomain;
use crate::grid_profile::{self, GridProfile, MAX_EXACT_POINTS};
use crate::index::ProfileCache;
use crate::jl::JlTransform;
use crate::partition::{BoxPartition, CellIds};
use crate::point::Point;
use crate::tol;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::sync::{Arc, Mutex};

/// Which implementation serves a dataset's geometry queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The dataset's points, with `O(n²)` profile builds; exact answers.
    Exact,
    /// JL projection + shifted-grid bucketing; sub-quadratic, answers
    /// carry an additive radius slack.
    Projected,
}

impl BackendKind {
    /// Stable wire/display name.
    pub fn as_str(&self) -> &'static str {
        match self {
            BackendKind::Exact => "exact",
            BackendKind::Projected => "projected",
        }
    }
}

/// A per-dataset geometry oracle: `L(·, S)` profiles over one immutable
/// dataset, shareable across threads and queries.
///
/// The solvers (`good_radius_with_index` and friends) take
/// `&dyn GeometryBackend`, so an engine can route small datasets to the
/// exact index and large ones to the projected sampler without the
/// planner ever branching on the concrete type.
pub trait GeometryBackend: std::fmt::Debug + Send + Sync {
    /// Which implementation this is.
    fn kind(&self) -> BackendKind;

    /// Number of indexed points.
    fn len(&self) -> usize;

    /// `true` when built from an empty dataset.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `L(·, S)` for cap `t` on `domain`'s radius grid — what GoodRadius
    /// reads — built on first use and memoised per cap and grid (bounded
    /// LRU, see [`crate::index::MAX_CACHED_PROFILES`]). On the exact
    /// backend it is
    /// [`BallCounter::l_value`](crate::ball_count::BallCounter::l_value) at
    /// each quarter radius, bit for bit; on the projected backend, the
    /// weighted ball count over its bucket sites there.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    fn grid_profile(&self, cap: usize, domain: &GridDomain) -> Arc<GridProfile>;

    /// The `L(·, S)` profile for cap `t` at every breakpoint, built afresh
    /// on each call. No query reads it.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    fn l_profile(&self, cap: usize) -> Arc<LProfile>;

    /// Additive two-sided radius slack of every answer: 0 for the exact
    /// backend, `2·displacement` for the projected one. A profile value
    /// this backend reports at radius `r` is bracketed by the exact values
    /// at `r ± radius_slack()` (see the module docs for the precise
    /// contract).
    fn radius_slack(&self) -> f64;

    /// Builds a backend of the **same kind and configuration** for a
    /// derived dataset — used by the k-cluster heuristic, whose rounds
    /// after the first run on the uncovered remainder (a different dataset
    /// for which `self` is invalid). Keeps large-`n` runs sub-quadratic in
    /// every round instead of only the first.
    fn rebuild_for(&self, data: &Dataset) -> Arc<dyn GeometryBackend>;
}

/// Tuning knobs of the projected backend. The defaults are data-size
/// driven; a fixed `seed` keeps every build reproducible.
#[derive(Debug, Clone, Copy)]
pub struct ProjectedConfig {
    /// Upper bound on occupied buckets `B`. The grid is refined to the
    /// smallest cell width whose occupied-cell count stays within this
    /// budget, so profile builds cost `O(B²·k)`. `None` → `4·⌈√n⌉` clamped
    /// to `[32, 4096]`; any budget is clamped to at most
    /// [`MAX_EXACT_POINTS`], the most sites a profile takes.
    pub max_buckets: Option<usize>,
    /// Projected dimension `k`. `None` → [`JlTransform::backend_target_dim`]
    /// (`O(log n)`, capped at the source dimension — at or above which the
    /// identity embedding is used and no distortion is introduced).
    pub target_dim: Option<usize>,
    /// Seed of the backend's internal randomness (JL matrix and grid
    /// shifts). Fixed by default: datasets are registered without any
    /// client-supplied randomness, and builds must be bit-reproducible.
    pub seed: u64,
}

impl Default for ProjectedConfig {
    fn default() -> Self {
        ProjectedConfig {
            max_buckets: None,
            target_dim: None,
            // Any fixed constant works; spells "NSV16".
            seed: 0x004e_5356_3136,
        }
    }
}

/// The sub-quadratic backend: JL projection, shifted-grid bucketing, and
/// one weighted site per bucket. See the module docs for the cost model and
/// approximation contract.
#[derive(Debug)]
pub struct ProjectedBackend {
    n: usize,
    config: ProjectedConfig,
    projected_dim: usize,
    cell_width: f64,
    /// Realised displacement bound: `max_i dist(f(x_i), f(rep(x_i)))` in
    /// projected space. At most `cell_width·√k`, usually much smaller.
    displacement: f64,
    /// Point index → bucket id (first-seen order, deterministic).
    bucket_of: Vec<u32>,
    /// Bucket id → occupancy.
    weights: Vec<usize>,
    /// Bucket id → representative input-point index (the bucket's
    /// lowest-index member, so representatives are always input points).
    reps: Vec<usize>,
    /// Bucket id → its representative's projected coordinates: the site
    /// every member of the bucket is counted at.
    sites: Vec<Point>,
    profiles: Mutex<ProfileCache>,
}

impl ProjectedBackend {
    /// Builds the backend with default knobs.
    pub fn build_default(data: &Dataset) -> Self {
        Self::build(data, ProjectedConfig::default())
    }

    /// Builds the backend. Deterministic: identical inputs produce the
    /// bit-identical backend regardless of thread count or call site.
    pub fn build(data: &Dataset, config: ProjectedConfig) -> Self {
        let n = data.len();
        let d = data.dim().max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);

        let k = config
            .target_dim
            .unwrap_or_else(|| JlTransform::backend_target_dim(n, d))
            .clamp(1, d);
        // The identity embedding borrows the dataset's points. Projecting
        // through it would add `0·x` terms, which turn one NaN or ±∞
        // coordinate into a row of NaN; borrowing keeps a non-finite
        // coordinate on its own axis.
        let projected: Cow<[Point]> = if k >= d {
            Cow::Borrowed(data.points())
        } else {
            let transform =
                JlTransform::sample(d, k, &mut rng).expect("both JL dimensions are positive");
            data.iter()
                .map(|p| transform.project(p).expect("dataset dimension matches"))
                .collect()
        };

        let max_buckets = config
            .max_buckets
            .unwrap_or_else(|| default_max_buckets(n))
            .clamp(1, MAX_EXACT_POINTS);
        let (cell_width, cells) = choose_partition(&projected, k, max_buckets, &mut rng);

        // The buckets are the accepted partition's cells, numbered in input
        // order: bucket ids, representatives (each cell's first point, hence
        // an input point) and occupancies are all independent of any thread
        // schedule.
        let weights = cells.occupancies();
        let (bucket_of, reps) = cells.into_ids_and_firsts();

        // Realised displacement: how far any point sits from its bucket's
        // representative (projected space). This, not the a-priori
        // `cell_width·√k`, is what the slack contract advertises.
        let sites: Vec<Point> = reps.iter().map(|&i| projected[i].clone()).collect();
        let displacement = projected
            .iter()
            .zip(&bucket_of)
            .map(|(p, &id)| p.distance(&sites[id as usize]))
            .fold(0.0f64, f64::max);

        ProjectedBackend {
            n,
            config,
            projected_dim: k,
            cell_width,
            displacement,
            bucket_of,
            weights,
            reps,
            sites,
            profiles: Mutex::new(ProfileCache::default()),
        }
    }

    /// Number of occupied buckets `B`.
    // privlint::allow(unused-pub): the bucket count the geometry property tests compare against a reference build
    pub fn bucket_count(&self) -> usize {
        self.sites.len()
    }

    /// The adopted grid cell width.
    pub fn cell_width(&self) -> f64 {
        self.cell_width
    }

    /// The projected dimension `k` (equals the source dimension when the
    /// identity embedding was used).
    pub fn projected_dim(&self) -> usize {
        self.projected_dim
    }

    /// Realised displacement bound `max_i dist(f(x_i), f(rep(x_i)))`; the
    /// advertised [`GeometryBackend::radius_slack`] is twice this.
    pub fn displacement(&self) -> f64 {
        self.displacement
    }

    /// The representative input-point index of point `i`'s bucket.
    // privlint::allow(unused-pub): the bucket representatives the geometry property tests compare against a reference build
    pub fn representative_of(&self, i: usize) -> usize {
        self.reps[self.bucket_of[i] as usize]
    }

    /// The reference breakpoint profile, the weighted analogue of
    /// `BallCounter::l_profile`: each site's distances to every site,
    /// sorted and merged at the unified tolerance (a group counts from its
    /// smallest member on), give `B²` events carrying their group's
    /// occupancy, swept in distance order while [`WeightedCounts`] keeps
    /// the sum of the `t` largest capped per-point counts (every member of
    /// a bucket shares its site's count, so a bucket enters the multiset
    /// with its occupancy as multiplicity). `O(B² log B²)` time and `B²`
    /// events of memory; no query reads it.
    fn build_profile(&self, cap: usize) -> LProfile {
        assert!(cap >= 1, "cap t must be at least 1");
        let b = self.sites.len();
        let mut events: Vec<(f64, u32, u32)> = Vec::with_capacity(b * b);
        let mut row: Vec<(f64, usize)> = Vec::with_capacity(b);
        for (a, site) in self.sites.iter().enumerate() {
            row.clear();
            row.extend(
                self.sites
                    .iter()
                    .zip(&self.weights)
                    .map(|(other, &weight)| (site.distance(other), weight)),
            );
            row.sort_by(|x, y| x.0.total_cmp(&y.0));
            let start = events.len();
            for &(d, weight) in &row {
                match events[start..].last_mut() {
                    Some(group) if tol::same_distance(group.0, d) => group.2 += weight as u32,
                    _ => events.push((d, a as u32, weight as u32)),
                }
            }
        }
        events.sort_by(|x, y| x.0.total_cmp(&y.0));

        let mut counts = WeightedCounts::new(&self.weights, cap);
        let mut breakpoints = Vec::new();
        let mut values = Vec::new();
        let mut idx = 0usize;
        while idx < events.len() {
            let d = events[idx].0;
            while idx < events.len() && tol::same_distance(events[idx].0, d) {
                let (_, a, w) = events[idx];
                counts.raise(a as usize, w as usize);
                idx += 1;
            }
            breakpoints.push(d);
            values.push(counts.top_sum() as f64 / cap as f64);
        }
        LProfile::from_parts(breakpoints, values)
    }
}

impl GeometryBackend for ProjectedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Projected
    }

    fn len(&self) -> usize {
        self.n
    }

    fn grid_profile(&self, cap: usize, domain: &GridDomain) -> Arc<GridProfile> {
        // Same single-flight slot discipline as GeometryIndex.
        ProfileCache::get_or_build(&self.profiles, cap, domain, || {
            grid_profile::count_pairs(&self.sites, Some(&self.weights), cap, domain, 1).0
        })
    }

    fn l_profile(&self, cap: usize) -> Arc<LProfile> {
        Arc::new(self.build_profile(cap))
    }

    fn radius_slack(&self) -> f64 {
        2.0 * self.displacement
    }

    fn rebuild_for(&self, data: &Dataset) -> Arc<dyn GeometryBackend> {
        Arc::new(ProjectedBackend::build(data, self.config))
    }
}

/// Default bucket budget: `4·⌈√n⌉` in `[32, 4096]` — sub-quadratic
/// (`B² ≤ 16·n`) while keeping cells fine enough that the slack tracks the
/// data's natural scale.
fn default_max_buckets(n: usize) -> usize {
    (4 * (n as f64).sqrt().ceil() as usize).clamp(32, 4096)
}

/// Picks the finest shifted cube partition whose occupied-cell count stays
/// within `max_buckets`, and returns its width and its numbered cells: start
/// at twice the projected extent (a handful of cells), coarsen if even that
/// overflows, then repeatedly halve the width while the budget holds. Each
/// candidate draws fresh per-axis shifts from the deterministic stream, so
/// the choice is reproducible. A refining candidate's count stops once past
/// the budget; the others are counted in full, since the refining loop
/// compares them with `n`.
///
/// The loops test a count only against `max_buckets` and `n`. A candidate
/// whose cells within the points' bounding box number at most
/// `min(max_buckets, n − 1)` ([`box_cell_bound`]) passes both tests, so it
/// is not counted; the accepted width is numbered once at the end if its
/// cells were not counted on the way.
fn choose_partition(
    projected: &[Point],
    kdim: usize,
    max_buckets: usize,
    rng: &mut StdRng,
) -> (f64, CellIds) {
    let n = projected.len();
    // Finite gaps only: at every width a ±∞ coordinate lies in a saturated
    // cell of its own and a NaN one in cell 0.
    let extent = projected
        .iter()
        .flat_map(|p| {
            p.coords()
                .iter()
                .zip(projected[0].coords())
                .map(|(a, b)| (a - b).abs())
        })
        .filter(|gap| gap.is_finite())
        .fold(0.0f64, f64::max);
    let mut accepted = CellIds::default();
    if n <= 1 || extent <= 0.0 {
        // Zero or one point, or no finite gap between them: one cell of any
        // width holds every finite point.
        let partition = BoxPartition::aligned_cubes(kdim, 1.0).expect("positive width");
        accepted.number(&partition, projected, n);
        return (1.0, accepted);
    }
    let bounds = finite_bounds(projected, kdim);
    let settled = max_buckets.min(n - 1);
    // A candidate's occupied-cell count, or its box bound when that is at
    // most `settled`; and whether `into` now holds the candidate's cells.
    let count = |partition: &BoxPartition, limit: usize, into: &mut CellIds| {
        if let Some((lower, upper)) = &bounds {
            let bound = box_cell_bound(partition, lower, upper);
            if bound <= settled {
                return (bound, false);
            }
        }
        (into.number(partition, projected, limit), true)
    };

    // The width never passes `f64::MAX`: a finite gap may exceed half of it.
    let mut width = (extent * 2.0).min(f64::MAX);
    let mut partition =
        BoxPartition::random_cubes(kdim, width, rng).expect("positive finite width");
    let (mut occupied, mut numbered) = count(&partition, n, &mut accepted);
    for _ in 0..64 {
        if occupied <= max_buckets || width > f64::MAX / 2.0 {
            break;
        }
        width *= 2.0;
        partition = BoxPartition::random_cubes(kdim, width, rng).expect("positive finite width");
        (occupied, numbered) = count(&partition, n, &mut accepted);
    }
    let mut trial = CellIds::default();
    while occupied < n {
        let next = width / 2.0;
        // Never refine below a data-relative floor: once cells are ~1e-12
        // of the spread, further splitting only risks the i64 cell-index
        // range without separating any real pair.
        if !(next.is_finite() && next > extent * 1e-12) {
            break;
        }
        let candidate = BoxPartition::random_cubes(kdim, next, rng).expect("positive finite width");
        let (occ, counted) = count(&candidate, max_buckets, &mut trial);
        if occ > max_buckets {
            break;
        }
        (width, partition, occupied, numbered) = (next, candidate, occ, counted);
        std::mem::swap(&mut accepted, &mut trial);
    }
    if !numbered {
        accepted.number(&partition, projected, n);
    }
    (width, accepted)
}

/// Each axis's least and greatest coordinate over `points`, or `None` if a
/// coordinate is not finite: a NaN lies in cell 0 and a ±∞ in a saturated
/// cell, either of which can lie outside the finite coordinates' box.
fn finite_bounds(points: &[Point], kdim: usize) -> Option<(Vec<f64>, Vec<f64>)> {
    let mut lower = vec![f64::INFINITY; kdim];
    let mut upper = vec![f64::NEG_INFINITY; kdim];
    for p in points {
        for ((lo, hi), &x) in lower.iter_mut().zip(&mut upper).zip(p.coords()) {
            if !x.is_finite() {
                return None;
            }
            *lo = lo.min(x);
            *hi = hi.max(x);
        }
    }
    Some((lower, upper))
}

/// How many cells of `partition` the box `[lower, upper]` meets, saturated:
/// `Π_a (cell_a(upper_a) − cell_a(lower_a) + 1)`. Every point of the box
/// lies in one of them, because `fl((x − s)/w)` and the floor are both
/// monotone in `x`, so no more cells than this are occupied.
fn box_cell_bound(partition: &BoxPartition, lower: &[f64], upper: &[f64]) -> usize {
    let mut cells = 1usize;
    for (axis, (&lo, &hi)) in partition.axes().iter().zip(lower.iter().zip(upper)) {
        // `hi`'s cell is at least `lo`'s, so the wrapped difference is their
        // exact distance.
        let span = axis.cell_index(hi).wrapping_sub(axis.cell_index(lo)) as u64;
        let span = usize::try_from(span).unwrap_or(usize::MAX);
        cells = cells.saturating_mul(span.saturating_add(1));
    }
    cells
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ball_count::BallCounter;
    use crate::grid_profile::tests::pinning_quarters;
    use crate::index::GeometryIndex;
    use crate::sync::lock_recover;
    use proptest::prelude::{prop, Strategy};
    use rand::Rng;
    use std::collections::{HashMap, HashSet};

    impl ProjectedBackend {
        /// How many grid profiles are cached.
        fn cached_profiles(&self) -> usize {
            lock_recover(&self.profiles).len()
        }
    }

    /// Point `i`'s count at radius `r` as the backend approximates `B_r`:
    /// the occupancy of every bucket whose site lies within `r` of `i`'s.
    fn site_count(backend: &ProjectedBackend, i: usize, r: f64) -> usize {
        let site = &backend.sites[backend.bucket_of[i] as usize];
        backend
            .sites
            .iter()
            .zip(&backend.weights)
            .filter(|(other, _)| tol::within_radius(site.distance(other), r))
            .map(|(_, &weight)| weight)
            .sum()
    }

    /// `L(r)` over weighted sites by brute force: each site's count is the
    /// weight within `r` of it, capped at `cap`, and `L` is the sum of the
    /// `cap` largest counts, each site's taken as many times as its
    /// weight, over `cap`.
    pub(crate) fn weighted_ball_count(
        sites: &[Point],
        weights: &[usize],
        cap: usize,
        r: f64,
    ) -> f64 {
        let mut counts: Vec<(usize, usize)> = sites
            .iter()
            .zip(weights)
            .map(|(x, &copies)| {
                let within: usize = sites
                    .iter()
                    .zip(weights)
                    .filter(|(y, _)| tol::within_radius(x.distance(y), r))
                    .map(|(_, &w)| w)
                    .sum();
                (within.min(cap), copies)
            })
            .collect();
        counts.sort_unstable_by_key(|&(count, _)| std::cmp::Reverse(count));
        let (mut left, mut top) = (cap, 0);
        for (count, copies) in counts {
            let taken = copies.min(left);
            top += taken * count;
            left -= taken;
        }
        top as f64 / cap as f64
    }

    /// Checks `grid` against the weighted ball count over `backend`'s
    /// sites, bit for bit, at each quarter index `q` of `quarters`.
    pub(crate) fn assert_weighted_ball_count_at(
        grid: &GridProfile,
        backend: &ProjectedBackend,
        cap: usize,
        domain: &GridDomain,
        quarters: impl IntoIterator<Item = u64>,
    ) {
        for q in quarters {
            let r = domain.radius_from_index(q) / 2.0;
            let brute = weighted_ball_count(&backend.sites, &backend.weights, cap, r);
            assert_eq!(
                grid.value(q).to_bits(),
                brute.to_bits(),
                "L(ρ_{q}) at cap {cap} on {domain:?}"
            );
        }
    }

    fn clustered(n: usize) -> Dataset {
        // Two tight groups plus scattered background, deterministic.
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let x = i as f64;
                if i % 3 == 0 {
                    vec![0.1 + (x * 0.17).sin() * 0.01, 0.1 + (x * 0.29).cos() * 0.01]
                } else if i % 3 == 1 {
                    vec![0.8 + (x * 0.13).sin() * 0.01, 0.7 + (x * 0.31).cos() * 0.01]
                } else {
                    vec![(x * 0.71).sin().abs(), (x * 0.37).cos().abs()]
                }
            })
            .collect();
        Dataset::from_rows(rows).unwrap()
    }

    #[test]
    fn build_is_deterministic_and_bounded() {
        let data = clustered(200);
        let a = ProjectedBackend::build_default(&data);
        let b = ProjectedBackend::build_default(&data);
        assert_eq!(a.len(), 200);
        assert!(!a.is_empty());
        assert_eq!(a.bucket_count(), b.bucket_count());
        assert_eq!(a.cell_width().to_bits(), b.cell_width().to_bits());
        assert_eq!(a.displacement().to_bits(), b.displacement().to_bits());
        assert!(a.bucket_count() <= default_max_buckets(200));
        let pa = a.l_profile(20);
        let pb = b.l_profile(20);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(pa.breakpoints()), bits(pb.breakpoints()));
        assert_eq!(bits(pa.values()), bits(pb.values()));
    }

    #[test]
    fn counts_are_bracketed_by_exact_counts_at_slack_shifted_radii() {
        let data = clustered(150);
        let exact = BallCounter::new(&data, 1);
        let projected = ProjectedBackend::build(
            &data,
            ProjectedConfig {
                max_buckets: Some(40), // coarse: makes the approximation real
                ..ProjectedConfig::default()
            },
        );
        let slack = GeometryBackend::radius_slack(&projected);
        assert!(slack > 0.0);
        let margin = slack * (1.0 + 1e-9) + 1e-12;
        for i in (0..data.len()).step_by(7) {
            for r in [0.0, 0.01, 0.05, 0.1, 0.3, 0.7, 1.5] {
                let approx = site_count(&projected, i, r);
                let hi = exact.count(i, r + margin);
                let lo = if r >= margin {
                    exact.count(i, r - margin)
                } else {
                    0
                };
                assert!(
                    lo <= approx && approx <= hi,
                    "i={i}, r={r}: {lo} <= {approx} <= {hi} violated (slack {slack})"
                );
            }
        }
    }

    #[test]
    fn profile_is_bracketed_monotone_and_consistent() {
        let data = clustered(120);
        let exact = GeometryIndex::build(&data);
        let projected = ProjectedBackend::build(
            &data,
            ProjectedConfig {
                max_buckets: Some(32),
                ..ProjectedConfig::default()
            },
        );
        let slack = GeometryBackend::radius_slack(&projected);
        let margin = slack * (1.0 + 1e-9) + 1e-12;
        for cap in [1usize, 5, 40, 120] {
            let pp = GeometryBackend::l_profile(&projected, cap);
            let pe = exact.l_profile(cap);
            assert!(pp.values().windows(2).all(|w| w[0] <= w[1] + 1e-12));
            assert!(pp.breakpoints().windows(2).all(|w| w[0] <= w[1] + 1e-15));
            for r in [0.0, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0] {
                let v = pp.value_at(r);
                let hi = pe.value_at(r + margin) + 1e-9;
                let lo = if r >= margin {
                    pe.value_at(r - margin) - 1e-9
                } else {
                    0.0
                };
                assert!(
                    lo <= v && v <= hi,
                    "cap={cap}, r={r}: {lo} <= {v} <= {hi} violated"
                );
            }
        }
    }

    #[test]
    fn exact_backend_through_the_trait_matches_the_index() {
        let data = clustered(60);
        let index = GeometryIndex::build(&data);
        let backend: &dyn GeometryBackend = &index;
        assert_eq!(backend.kind(), BackendKind::Exact);
        assert_eq!(backend.kind().as_str(), "exact");
        assert_eq!(backend.len(), 60);
        assert_eq!(backend.radius_slack(), 0.0);
        let domain = GridDomain::unit_cube(2, 64).unwrap();
        let via_trait = backend.grid_profile(10, &domain);
        let direct = index.grid_profile(10, &domain);
        assert!(Arc::ptr_eq(&via_trait, &direct));
        let bc = BallCounter::new(&data, 10);
        for q in 0..=2 * (domain.radius_grid_len() - 1) {
            let r = domain.radius_from_index(q) / 2.0;
            assert_eq!(via_trait.value(q).to_bits(), bc.l_value(r).to_bits());
        }
    }

    #[test]
    fn rebuild_for_preserves_kind_and_config() {
        let data = clustered(80);
        let sub = Dataset::from_rows(data.iter().take(30).map(|p| p.coords().to_vec()).collect())
            .unwrap();
        let projected = ProjectedBackend::build_default(&data);
        let rebuilt = GeometryBackend::rebuild_for(&projected, &sub);
        assert_eq!(rebuilt.kind(), BackendKind::Projected);
        assert_eq!(rebuilt.len(), 30);
        let exact = GeometryIndex::build(&data);
        let rebuilt = GeometryBackend::rebuild_for(&exact, &sub);
        assert_eq!(rebuilt.kind(), BackendKind::Exact);
        assert_eq!(rebuilt.len(), 30);
    }

    #[test]
    fn representatives_are_input_points_and_weights_sum_to_n() {
        let data = clustered(90);
        let backend = ProjectedBackend::build_default(&data);
        assert_eq!(backend.weights.iter().sum::<usize>(), 90);
        for i in 0..data.len() {
            let rep = backend.representative_of(i);
            assert!(rep < data.len());
        }
        // The representative of a bucket is its own representative.
        for (b, &rep) in backend.reps.iter().enumerate() {
            assert_eq!(backend.bucket_of[rep] as usize, b);
            assert_eq!(backend.representative_of(rep), rep);
        }
    }

    #[test]
    fn projection_path_is_exercised_in_high_dimension() {
        // 64-dimensional data with n = 40: the default target dim is
        // O(log n) < 64, so a real (non-identity) JL projection fires.
        let mut rng = StdRng::seed_from_u64(7);
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|_| (0..64).map(|_| rng.gen_range(0.0..1.0)).collect())
            .collect();
        let data = Dataset::from_rows(rows).unwrap();
        let backend = ProjectedBackend::build_default(&data);
        assert!(backend.projected_dim() < 64, "projection did not fire");
        assert!(GeometryBackend::radius_slack(&backend) >= 0.0);
        // The profile is still a sane monotone step function.
        let profile = GeometryBackend::l_profile(&backend, 10);
        assert!(profile.values().windows(2).all(|w| w[0] <= w[1] + 1e-12));
        assert!(profile.value_at(f64::MAX / 4.0) >= profile.value_at(0.0));
    }

    #[test]
    fn tiny_and_degenerate_datasets_are_handled() {
        let single = Dataset::from_rows(vec![vec![0.5, 0.5]]).unwrap();
        let backend = ProjectedBackend::build_default(&single);
        assert_eq!(backend.len(), 1);
        assert_eq!(backend.bucket_count(), 1);
        assert_eq!(site_count(&backend, 0, 0.0), 1);
        assert_eq!(GeometryBackend::radius_slack(&backend), 0.0);

        let identical = Dataset::from_rows(vec![vec![0.25, 0.75]; 12]).unwrap();
        let backend = ProjectedBackend::build_default(&identical);
        assert_eq!(backend.bucket_count(), 1);
        assert_eq!(site_count(&backend, 5, 0.0), 12);
        let profile = GeometryBackend::l_profile(&backend, 4);
        assert!((profile.value_at(0.0) - 4.0).abs() < 1e-12);

        let empty = Dataset::empty(3);
        let backend = ProjectedBackend::build_default(&empty);
        assert!(backend.is_empty());
        let profile = GeometryBackend::l_profile(&backend, 2);
        assert_eq!(profile.value_at(1.0), 0.0);
    }

    #[test]
    fn profile_cache_is_bounded_and_reused() {
        let data = clustered(50);
        let backend = ProjectedBackend::build_default(&data);
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let a = backend.grid_profile(5, &domain);
        let b = backend.grid_profile(5, &domain);
        assert!(Arc::ptr_eq(&a, &b));
        let quarters = pinning_quarters(&a, &domain)
            .into_iter()
            .chain([1, 2, 3, 100]);
        assert_weighted_ball_count_at(&a, &backend, 5, &domain, quarters);
        for cap in 1..=20 {
            let _ = backend.grid_profile(cap, &domain);
            assert!(backend.cached_profiles() <= crate::index::MAX_CACHED_PROFILES);
        }
    }

    #[test]
    fn dense_identity_case_matches_exact_when_buckets_suffice() {
        // When every point lands in its own bucket (budget >= n, identity
        // projection), representatives ARE the points: counts must equal
        // the exact ones everywhere, and profiles must agree bit-for-bit
        // with a fresh BallCounter sweep up to event-grouping equality.
        let data = clustered(40);
        let backend = ProjectedBackend::build(
            &data,
            ProjectedConfig {
                max_buckets: Some(4096),
                ..ProjectedConfig::default()
            },
        );
        if backend.bucket_count() == data.len() {
            let cap = 7;
            let exact = BallCounter::new(&data, cap);
            for i in 0..data.len() {
                for r in [0.0, 0.05, 0.2, 0.6, 1.4] {
                    assert_eq!(
                        site_count(&backend, i, r),
                        exact.count(i, r),
                        "i={i}, r={r}"
                    );
                }
            }
            let pp = GeometryBackend::l_profile(&backend, cap);
            let pe = exact.l_profile();
            for r in [0.0, 0.03, 0.11, 0.5, 2.0] {
                assert!(
                    (pp.value_at(r) - pe.value_at(r)).abs() < 1e-9,
                    "r={r}: {} vs {}",
                    pp.value_at(r),
                    pe.value_at(r)
                );
            }
        } else {
            // The shifted grid may split hairs; the run is still valid, we
            // just could not exercise the exact-equality arm.
            assert!(backend.bucket_count() <= data.len());
        }
    }
    #[test]
    fn coordinates_at_and_near_infinity_build_and_profile() {
        // A ±∞ coordinate gives no finite gap and lies in a saturated cell
        // of its own; a finite one near `f64::MAX` is more than half of
        // `f64`'s range from the others, so twice the extent overflows. The
        // weighted pass keeps no pair for a non-finite site.
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let cases = [
            (5, f64::INFINITY),
            (0, f64::NEG_INFINITY),
            (9, 1e308),
            (3, -f64::MAX),
        ];
        for (row, value) in cases {
            let mut rows: Vec<Vec<f64>> =
                clustered(20).iter().map(|p| p.coords().to_vec()).collect();
            rows[row][0] = value;
            let data = Dataset::from_rows(rows).unwrap();
            let backend = ProjectedBackend::build_default(&data);
            assert_eq!(backend.weights.iter().sum::<usize>(), 20);
            assert_eq!(
                backend.weights[backend.bucket_of[row] as usize], 1,
                "row {row} at {value}"
            );
            assert!(backend.cell_width().is_finite() && backend.cell_width() > 0.0);
            let profile = backend.grid_profile(5, &domain);
            let quarters = pinning_quarters(&profile, &domain)
                .into_iter()
                .chain([0, 1, 40]);
            assert_weighted_ball_count_at(&profile, &backend, 5, &domain, quarters);
        }
    }

    /// What the build chose before it numbered cells in one pass: each
    /// point keyed by its own cell vector, floored through libm, every
    /// candidate width's occupied cells counted in full, and buckets found
    /// in a `HashMap<Vec<i64>, u32>`. The identity projection borrows the
    /// points, as the build does. Returns the cell width, bucket ids,
    /// representatives, weights and displacement.
    fn per_point_buckets(
        data: &Dataset,
        config: ProjectedConfig,
    ) -> (f64, Vec<u32>, Vec<usize>, Vec<usize>, f64) {
        let n = data.len();
        let d = data.dim().max(1);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let k = config
            .target_dim
            .unwrap_or_else(|| JlTransform::backend_target_dim(n, d))
            .clamp(1, d);
        let projected: Vec<Point> = if k >= d {
            data.points().to_vec()
        } else {
            let transform = JlTransform::sample(d, k, &mut rng).unwrap();
            data.iter().map(|p| transform.project(p).unwrap()).collect()
        };
        let cell_of = |partition: &BoxPartition, p: &Point| -> Vec<i64> {
            let axes = partition.axes().iter().zip(p.coords());
            axes.map(|(axis, &x)| ((x - axis.shift()) / axis.width()).floor() as i64)
                .collect()
        };
        let max_buckets = config
            .max_buckets
            .unwrap_or_else(|| default_max_buckets(n))
            .max(1);
        let occupied = |partition: &BoxPartition| {
            let cells: HashSet<Vec<i64>> =
                projected.iter().map(|p| cell_of(partition, p)).collect();
            cells.len()
        };
        let extent = projected
            .iter()
            .map(|p| {
                p.coords()
                    .iter()
                    .zip(projected[0].coords())
                    .map(|(a, b)| (a - b).abs())
                    .fold(0.0f64, f64::max)
            })
            .fold(0.0f64, f64::max);
        let (partition, width) = if n <= 1 || extent <= 0.0 {
            (BoxPartition::aligned_cubes(k, 1.0).unwrap(), 1.0)
        } else {
            let mut width = extent * 2.0;
            let mut partition = BoxPartition::random_cubes(k, width, &mut rng).unwrap();
            let mut count = occupied(&partition);
            for _ in 0..64 {
                if count <= max_buckets {
                    break;
                }
                width *= 2.0;
                partition = BoxPartition::random_cubes(k, width, &mut rng).unwrap();
                count = occupied(&partition);
            }
            while count < n {
                let next = width / 2.0;
                if !(next.is_finite() && next > extent * 1e-12) {
                    break;
                }
                let candidate = BoxPartition::random_cubes(k, next, &mut rng).unwrap();
                let candidate_count = occupied(&candidate);
                if candidate_count > max_buckets {
                    break;
                }
                (width, partition, count) = (next, candidate, candidate_count);
            }
            (partition, width)
        };
        let mut cell_to_bucket: HashMap<Vec<i64>, u32> = HashMap::new();
        let (mut bucket_of, mut reps, mut weights) = (Vec::new(), Vec::new(), Vec::new());
        for (i, p) in projected.iter().enumerate() {
            let id = *cell_to_bucket
                .entry(cell_of(&partition, p))
                .or_insert_with(|| {
                    reps.push(i);
                    weights.push(0);
                    (reps.len() - 1) as u32
                });
            weights[id as usize] += 1;
            bucket_of.push(id);
        }
        let displacement = (0..n)
            .map(|i| projected[i].distance(&projected[reps[bucket_of[i] as usize]]))
            .fold(0.0f64, f64::max);
        (width, bucket_of, reps, weights, displacement)
    }

    /// Up to 60 rows in 1, 2, 3 or 24 dimensions (24 makes the JL
    /// projection fire below n = 18), on a 1/8 grid, anywhere in the unit
    /// cube, copies of earlier rows, or holding one NaN coordinate, all
    /// moved by 0, +10 or −7.5 (a NaN lies in cell 0, then outside the
    /// finite points' box); with a bucket budget of 1 to 3 (the coarsening
    /// loop runs whenever the first width splits the data), at least `n`,
    /// or anything up to 64.
    fn data_and_budget() -> impl Strategy<Value = (Dataset, usize)> {
        let dims = (0usize..4).prop_map(|i| [1, 2, 3, 24][i]);
        let offsets = (0usize..3).prop_map(|i| [0.0, 10.0, -7.5][i]);
        (dims, 1usize..60, offsets).prop_flat_map(|(dim, n, offset)| {
            let row = (0u8..4, prop::collection::vec(0.0f64..1.0, dim), 0usize..64);
            let budget = (0u8..3, 1usize..64);
            (prop::collection::vec(row, n), budget).prop_map(move |(specs, (kind, b))| {
                let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
                for (kind, coords, copy) in specs {
                    let row = match kind {
                        0 => coords
                            .iter()
                            .map(|c| (c * 8.0).floor() / 8.0 + offset)
                            .collect(),
                        1 if !rows.is_empty() => rows[copy % rows.len()].clone(),
                        3 => {
                            let mut row: Vec<f64> = coords.iter().map(|c| c + offset).collect();
                            row[copy % dim] = f64::NAN;
                            row
                        }
                        _ => coords.iter().map(|c| c + offset).collect(),
                    };
                    rows.push(row);
                }
                let budget = match kind {
                    0 => 1 + b % 3,
                    1 => n + b % 8,
                    _ => b,
                };
                (Dataset::from_rows(rows).unwrap(), budget)
            })
        })
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The numbered cells, the capped counts and the widths the bounding
        /// box settles choose what per-point keying chose: the same cell
        /// width, bucket ids, representatives, weights and displacement,
        /// bit for bit.
        #[test]
        fn flat_keys_choose_the_per_point_buckets(case in data_and_budget()) {
            let (data, budget) = case;
            let config = ProjectedConfig {
                max_buckets: Some(budget),
                ..ProjectedConfig::default()
            };
            let backend = ProjectedBackend::build(&data, config);
            let (width, bucket_of, reps, weights, displacement) = per_point_buckets(&data, config);
            proptest::prop_assert_eq!(backend.cell_width.to_bits(), width.to_bits());
            proptest::prop_assert_eq!(&backend.bucket_of, &bucket_of);
            proptest::prop_assert_eq!(&backend.reps, &reps);
            proptest::prop_assert_eq!(&backend.weights, &weights);
            proptest::prop_assert_eq!(backend.displacement.to_bits(), displacement.to_bits());
        }
    }
}
