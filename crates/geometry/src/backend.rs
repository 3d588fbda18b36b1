//! Pluggable per-dataset geometry backends.
//!
//! Every clustering query the pipeline answers reduces to one primitive
//! over an immutable dataset: the averaged step function `L(·, S)`, read on
//! GoodRadius's radius grid ([`GridProfile`]). The **exact** implementation
//! — [`GeometryIndex`] over the dataset's points — answers it perfectly.
//! It registers in `O(n d)`, but its first grid profile for each cap and
//! grid counts all `n(n+1)/2` pairs into grid buckets (`O(n²·d + G)` time
//! for `G` grid radii, up to 16 transient bytes per pair): a hard scaling
//! cliff (80 GB at `n = 100_000`). The paper's own remedy (§4) is to give
//! up exactness: Johnson–Lindenstrauss-project to `k = O(log n)`
//! dimensions and reason about *coarse spatial buckets* instead of
//! individual points.
//!
//! [`GeometryBackend`] abstracts over the two regimes so the solvers in
//! `privcluster-core` and the engine's planner never branch on which one
//! serves a dataset:
//!
//! * [`GeometryIndex`] is the `Exact` backend: zero approximation slack,
//!   quadratic cost.
//! * [`ProjectedBackend`] is the sub-quadratic backend: points are
//!   JL-projected ([`JlTransform`], Lemma 4.10), bucketed by a shifted-grid
//!   [`BoxPartition`] (the step-3a machinery of GoodCenter) whose cell
//!   width is the smallest that keeps the occupied-bucket count below a
//!   budget `B = O(√n)`, and every query is answered from the **sorted
//!   per-bucket distance samples** between bucket representatives, each
//!   weighted by its bucket's occupancy. Build cost is `O(n d k + B² log B)`
//!   time and `O(n + B²)` memory — it never materialises an `n × n`
//!   structure (pinned by `distance::debug_build_count` in tests). Its grid
//!   profile samples that weighted `L` profile onto the radius grid.
//!
//! The solvers and the engine read only [`GeometryBackend::grid_profile`],
//! [`GeometryBackend::len`] and [`GeometryBackend::kind`] (plus
//! [`GeometryBackend::rebuild_for`] between k-cluster rounds), so the exact
//! backend never fills its sorted rows while serving (pinned by
//! `distance::debug_rows_build_count` in the engine's `index_reuse` test).
//! [`GeometryBackend::l_profile`] is the uncached breakpoint profile every
//! grid profile equals on the grid, kept as the reference.
//!
//! # Approximation contract
//!
//! Let `D` be the backend's realised displacement bound (the largest
//! distance from a point to its bucket representative in projected space;
//! see [`ProjectedBackend::displacement`]) and `slack = 2·D`
//! ([`GeometryBackend::radius_slack`]). Then for every point `i` and radius
//! `r`, the projected answers are bracketed by exact answers at
//! slack-shifted radii, evaluated in projected space:
//!
//! ```text
//! B_{r − slack}(x_i)  ≤  ProjectedBackend::count_within(i, r)  ≤  B_{r + slack}(x_i)
//! L(r − slack, S)     ≤  l_profile.value_at(r)                ≤  L(r + slack, S)
//! ```
//!
//! (up to the boundary window of the unified tolerance [`tol`], which both
//! sides share; the grid profile reads the second line's middle term at
//! the grid radii). When the JL transform is the identity — whenever the
//! source dimension is already `O(log n)`, the common low-dimensional case —
//! projected space *is* the input space and the bracket holds verbatim;
//! this is what `tests/geometry_properties.rs` property-checks. When a real
//! projection fires, pairwise distances additionally distort by a factor
//! `1 ± η` with the failure probability of Lemma 4.10
//! ([`JlTransform::failure_probability`]).
//!
//! Builds are **deterministic**: the backend's internal randomness (JL
//! matrix, grid shifts) comes from a fixed-seed RNG stream
//! ([`ProjectedConfig::seed`]), so the same dataset always produces the
//! bit-identical backend at any thread count.

use crate::ball_count::{LProfile, TopSumTree};
use crate::dataset::Dataset;
use crate::domain::GridDomain;
use crate::grid_profile::GridProfile;
use crate::index::{GeometryIndex, ProfileCache};
use crate::jl::JlTransform;
use crate::partition::BoxPartition;
use crate::point::Point;
use crate::sync::lock_recover;
use crate::tol;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Which implementation serves a dataset's geometry queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Full `O(n²)` pairwise-distance matrix; exact answers.
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
/// exact matrix and large ones to the projected sampler without the
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
    /// LRU, see [`crate::index::MAX_CACHED_PROFILES`]). Equal to
    /// [`GridProfile::sample`] of [`GeometryBackend::l_profile`].
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    fn grid_profile(&self, cap: usize, domain: &GridDomain) -> Arc<GridProfile>;

    /// The `L(·, S)` profile for cap `t` at every breakpoint, built afresh
    /// on each call: the reference the grid profile is checked against.
    ///
    /// # Panics
    /// Panics if `cap == 0`.
    fn l_profile(&self, cap: usize) -> Arc<LProfile>;

    /// Additive two-sided radius slack of every answer: 0 for the exact
    /// backend, `2·displacement` for the projected one. A profile value
    /// this backend reports at radius `r` is bracketed by the exact values
    /// at `r ± radius_slack()` (see the module docs for the precise
    /// contract and [`tol::within_radius_slack`] for the comparison helper).
    fn radius_slack(&self) -> f64;

    /// Builds a backend of the **same kind and configuration** for a
    /// derived dataset — used by the k-cluster heuristic, whose rounds
    /// after the first run on the uncovered remainder (a different dataset
    /// for which `self` is invalid). Keeps large-`n` runs sub-quadratic in
    /// every round instead of only the first.
    fn rebuild_for(&self, data: &Dataset) -> Arc<dyn GeometryBackend>;
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
        Arc::new(self.ball_counter(cap).l_profile())
    }

    fn radius_slack(&self) -> f64 {
        0.0
    }

    fn rebuild_for(&self, data: &Dataset) -> Arc<dyn GeometryBackend> {
        Arc::new(GeometryIndex::build(data, 1))
    }
}

/// Tuning knobs of the projected backend. The defaults are data-size
/// driven; a fixed `seed` keeps every build reproducible.
#[derive(Debug, Clone, Copy)]
pub struct ProjectedConfig {
    /// Upper bound on occupied buckets `B`. The grid is refined to the
    /// smallest cell width whose occupied-cell count stays within this
    /// budget, so per-backend memory is `O(B²)` and profile builds cost
    /// `O(B² log B)`. `None` → `4·⌈√n⌉` clamped to `[32, 4096]`.
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

/// Sorted distance sample of one bucket: distances from the bucket's
/// representative to every bucket's representative, merged at the unified
/// tolerance, with cumulative bucket weights.
#[derive(Debug)]
struct SampleRow {
    /// Ascending, tolerance-deduplicated representative distances.
    dists: Vec<f64>,
    /// `cum_weights[j]` = total occupancy of buckets whose representative
    /// lies within `dists[j]` (same grouping as `dists`).
    cum_weights: Vec<usize>,
}

/// The sub-quadratic backend: JL projection, shifted-grid bucketing, and
/// weighted sorted per-bucket distance samples. See the module docs for the
/// cost model and approximation contract.
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
    rows: Vec<SampleRow>,
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
        let transform = if k >= d {
            JlTransform::identity(d)
        } else {
            JlTransform::sample(d, k, &mut rng).expect("both JL dimensions are positive")
        };
        let projected: Vec<Point> = data
            .iter()
            .map(|p| transform.project(p).expect("dataset dimension matches"))
            .collect();
        let kdim = transform.output_dim();

        let max_buckets = config
            .max_buckets
            .unwrap_or_else(|| default_max_buckets(n))
            .max(1);
        let (partition, cell_width) = choose_partition(&projected, kdim, max_buckets, &mut rng);

        // Bucket in input order: bucket ids, representatives (= the first
        // member seen, hence an input point) and occupancies are all
        // independent of any thread schedule.
        let mut cell_to_bucket: HashMap<Vec<i64>, u32> = HashMap::new();
        let mut bucket_of: Vec<u32> = Vec::with_capacity(n);
        let mut reps: Vec<usize> = Vec::new();
        let mut weights: Vec<usize> = Vec::new();
        for (i, p) in projected.iter().enumerate() {
            let id = *cell_to_bucket
                .entry(partition.cell_of(p))
                .or_insert_with(|| {
                    reps.push(i);
                    weights.push(0);
                    (reps.len() - 1) as u32
                });
            weights[id as usize] += 1;
            bucket_of.push(id);
        }

        // Realised displacement: how far any point sits from its bucket's
        // representative (projected space). This, not the a-priori
        // `cell_width·√k`, is what the slack contract advertises.
        let mut displacement = 0.0f64;
        for (i, p) in projected.iter().enumerate() {
            let rep = &projected[reps[bucket_of[i] as usize]];
            displacement = displacement.max(p.distance(rep));
        }

        // Sorted per-bucket distance samples between representatives,
        // weighted by occupancy and merged at the unified tolerance — the
        // same grouping `l_profile`'s sweep and breakpoint dedup use, so
        // counts and profile values can never disagree about a tie.
        let b = reps.len();
        let mut rows: Vec<SampleRow> = Vec::with_capacity(b);
        for a in 0..b {
            let rep_a = &projected[reps[a]];
            let mut pairs: Vec<(f64, usize)> = (0..b)
                .map(|other| (rep_a.distance(&projected[reps[other]]), weights[other]))
                .collect();
            pairs.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut dists: Vec<f64> = Vec::with_capacity(b);
            let mut cum_weights: Vec<usize> = Vec::with_capacity(b);
            let mut total = 0usize;
            for (dist, w) in pairs {
                total += w;
                match dists.last() {
                    Some(&last) if tol::same_distance(last, dist) => {
                        *cum_weights.last_mut().expect("last exists") = total;
                    }
                    _ => {
                        dists.push(dist);
                        cum_weights.push(total);
                    }
                }
            }
            rows.push(SampleRow { dists, cum_weights });
        }

        ProjectedBackend {
            n,
            config,
            projected_dim: kdim,
            cell_width,
            displacement,
            bucket_of,
            weights,
            reps,
            rows,
            profiles: Mutex::new(ProfileCache::default()),
        }
    }

    /// Number of occupied buckets `B`.
    pub fn bucket_count(&self) -> usize {
        self.rows.len()
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
    pub fn representative_of(&self, i: usize) -> usize {
        self.reps[self.bucket_of[i] as usize]
    }

    /// How many grid profiles are cached (diagnostics/tests).
    pub fn cached_profiles(&self) -> usize {
        lock_recover(&self.profiles).len()
    }

    /// `B_r(x_i)` as this backend approximates it: the occupancy of every
    /// bucket whose representative lies within `r` of point `i`'s. The
    /// per-point side of the approximation contract (module docs); no
    /// query reads it.
    pub fn count_within(&self, i: usize, r: f64) -> usize {
        if r < 0.0 || self.n == 0 {
            return 0;
        }
        let row = &self.rows[self.bucket_of[i] as usize];
        let idx = row.dists.partition_point(|&d| tol::within_radius(d, r));
        if idx == 0 {
            0
        } else {
            row.cum_weights[idx - 1]
        }
    }

    /// The weighted analogue of `BallCounter::l_profile`: the `B²`
    /// representative-pair events, each carrying its target bucket's
    /// occupancy, swept in distance order while a [`TopSumTree`] maintains
    /// the sum of the `t` largest capped per-point counts (every member of
    /// a bucket shares its representative's count, so a bucket enters the
    /// multiset with its occupancy as multiplicity). `O(B² log B²)`.
    fn build_profile(&self, cap: usize) -> LProfile {
        assert!(cap >= 1, "cap t must be at least 1");
        let b = self.rows.len();
        let mut events: Vec<(f64, u32, u32)> = Vec::with_capacity(b * b);
        for (a, row) in self.rows.iter().enumerate() {
            let mut prev = 0usize;
            for (j, &d) in row.dists.iter().enumerate() {
                let w = row.cum_weights[j] - prev;
                prev = row.cum_weights[j];
                events.push((d, a as u32, w as u32));
            }
        }
        events.sort_by(|x, y| x.0.total_cmp(&y.0));

        let mut counts = vec![0usize; b];
        let mut tree = TopSumTree::new(cap);
        let mut breakpoints = Vec::new();
        let mut values = Vec::new();
        let mut idx = 0usize;
        while idx < events.len() {
            let d = events[idx].0;
            while idx < events.len() && tol::same_distance(events[idx].0, d) {
                let (_, a, w) = events[idx];
                let a = a as usize;
                let old = counts[a];
                if old < cap {
                    let new = (old + w as usize).min(cap);
                    let multiplicity = self.weights[a] as i64;
                    if old > 0 {
                        tree.update(old, -multiplicity);
                    }
                    tree.update(new, multiplicity);
                    counts[a] = new;
                }
                idx += 1;
            }
            breakpoints.push(d);
            values.push(tree.top_sum(cap) as f64 / cap as f64);
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
            GridProfile::sample(&self.build_profile(cap), domain)
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
/// within `max_buckets`: start at twice the projected extent (a handful of
/// cells), coarsen if even that overflows, then repeatedly halve the width
/// while the budget holds. Each candidate draws fresh per-axis shifts from
/// the deterministic stream, so the choice is reproducible.
fn choose_partition(
    projected: &[Point],
    kdim: usize,
    max_buckets: usize,
    rng: &mut StdRng,
) -> (BoxPartition, f64) {
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
    if projected.len() <= 1 || extent <= 0.0 {
        // Zero, one, or all-identical points: a single cell of any width.
        let partition = BoxPartition::aligned_cubes(kdim, 1.0).expect("positive width");
        return (partition, 1.0);
    }
    let mut width = extent * 2.0;
    let mut partition =
        BoxPartition::random_cubes(kdim, width, rng).expect("positive finite width");
    let mut occupied = occupied_cells(&partition, projected);
    for _ in 0..64 {
        if occupied <= max_buckets {
            break;
        }
        width *= 2.0;
        partition = BoxPartition::random_cubes(kdim, width, rng).expect("positive finite width");
        occupied = occupied_cells(&partition, projected);
    }
    while occupied < projected.len() {
        let next = width / 2.0;
        // Never refine below a data-relative floor: once cells are ~1e-12
        // of the spread, further splitting only risks the i64 cell-index
        // range without separating any real pair.
        if !(next.is_finite() && next > extent * 1e-12) {
            break;
        }
        let candidate = BoxPartition::random_cubes(kdim, next, rng).expect("positive finite width");
        let occ = occupied_cells(&candidate, projected);
        if occ > max_buckets {
            break;
        }
        width = next;
        partition = candidate;
        occupied = occ;
    }
    (partition, width)
}

fn occupied_cells(partition: &BoxPartition, points: &[Point]) -> usize {
    partition.occupied_cell_count(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ball_count::BallCounter;
    use crate::distance::DistanceMatrix;
    use rand::Rng;

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
        let exact = GeometryIndex::build(&data, 1);
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
                let approx = projected.count_within(i, r);
                let hi = exact.distances().count_within(i, r + margin);
                let lo = if r >= margin {
                    exact.distances().count_within(i, r - margin)
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
        let exact = GeometryIndex::build(&data, 1);
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
        let index = GeometryIndex::build(&data, 2);
        let backend: &dyn GeometryBackend = &index;
        assert_eq!(backend.kind(), BackendKind::Exact);
        assert_eq!(backend.kind().as_str(), "exact");
        assert_eq!(backend.len(), 60);
        assert_eq!(backend.radius_slack(), 0.0);
        let domain = GridDomain::unit_cube(2, 64).unwrap();
        let via_trait = backend.grid_profile(10, &domain);
        let direct = index.grid_profile(10, &domain);
        assert!(Arc::ptr_eq(&via_trait, &direct));
        assert_eq!(
            *via_trait,
            GridProfile::sample(&backend.l_profile(10), &domain)
        );
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
        let exact = GeometryIndex::build(&data, 1);
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
        assert_eq!(backend.count_within(0, 0.0), 1);
        assert_eq!(GeometryBackend::radius_slack(&backend), 0.0);

        let identical = Dataset::from_rows(vec![vec![0.25, 0.75]; 12]).unwrap();
        let backend = ProjectedBackend::build_default(&identical);
        assert_eq!(backend.bucket_count(), 1);
        assert_eq!(backend.count_within(5, 0.0), 12);
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
        assert_eq!(*a, GridProfile::sample(&backend.l_profile(5), &domain));
        for cap in 1..=20 {
            let _ = backend.grid_profile(cap, &domain);
            assert!(backend.cached_profiles() <= crate::index::MAX_CACHED_PROFILES);
        }
    }

    #[test]
    fn dense_identity_case_matches_exact_when_buckets_suffice() {
        // When every point lands in its own bucket (budget >= n, identity
        // projection), representatives ARE the points: counts must equal
        // the exact matrix everywhere, and profiles must agree bit-for-bit
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
            let exact = DistanceMatrix::build(&data);
            for i in 0..data.len() {
                for r in [0.0, 0.05, 0.2, 0.6, 1.4] {
                    assert_eq!(
                        backend.count_within(i, r),
                        exact.count_within(i, r),
                        "i={i}, r={r}"
                    );
                }
            }
            let cap = 7;
            let pp = GeometryBackend::l_profile(&backend, cap);
            let pe = BallCounter::from_matrix(exact, cap).l_profile();
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
}
