//! `L(·, S)` on GoodRadius's radius grid.
//!
//! GoodRadius (Algorithm 1) reads the averaged score `L(r, S)` of
//! [`ball_count`](crate::ball_count) at two kinds of radii only: the grid
//! radii `r_k = k·ℓ/2` ([`GridDomain::radius_from_index`]) and their halves
//! `r_k/2`. Both lie on the *quarter grid* `ρ_j = radius_from_index(j) / 2`:
//! `L(r_k)` is `L(ρ_{2k})` and `L(r_k/2)` is `L(ρ_k)`. A [`GridProfile`]
//! holds `L` at every `ρ_j` with `j ≤ 2·(G − 1)`, `G` =
//! [`GridDomain::radius_grid_len`], stored as its *steps*: the quarter
//! indices where `L` changes.
//!
//! It answers exactly what the breakpoint profile [`LProfile`] answers on
//! the grid, bit for bit: [`GridProfile::value`] at `j` is
//! `LProfile::value_at(ρ_j)`. (`ρ_{2k}` is `r_k` bit for bit whenever the
//! grid's radii are normal floats, as doubling and halving those is exact.)
//! GoodRadius's quality at grid index `k` reads `L(ρ_k)` and `L(ρ_{2k})`
//! only, so it can change only at `k = j` or `k = ⌈j/2⌉` for a step `j`.
//! [`GridProfile::segment_starts`] is `0` plus those indices, derived from
//! the steps alone, whichever function built them: it is as long as the
//! steps, which end where `L` reaches its largest value, not as long as the
//! grid.
//!
//! Two functions build it:
//!
//! * [`GridProfile::sample`] reads any [`LProfile`] — the exact reference
//!   sweep, or the projected backend's weighted one — in one pass over its
//!   breakpoints, galloping to each one's first quarter index. It allocates
//!   `O(min(G, B))` for `B` breakpoints: nothing grows with `G`, which a
//!   client sets through `domain.size`.
//! * [`BallCounter::grid_profile`](crate::ball_count::BallCounter::grid_profile)
//!   counts pairs straight into quarter-grid buckets, keeping only the
//!   pairs that can change `L` at a quarter index it reads (see [the
//!   cut](#the-cut)). One `O(n²·d)` pass finds each pair's squared
//!   distance; a kept pair's bucket — the first `ρ_j` whose ball holds it —
//!   comes from a threshold table and a truncating estimate. A counting sort
//!   groups the kept pairs by bucket, and the same `TopCounts` sweep as
//!   [`BallCounter::l_profile`](crate::ball_count::BallCounter::l_profile)
//!   reads `L` off after each bucket: `O(n²·d + G)` time and no pair sort.
//!   Its transient buffers hold 12 bytes per kept pair (an 8-byte bucket key
//!   and pair entry, and a 4-byte slot of the bucket order), plus bucket
//!   tables of at most 2 bytes and band pairs of at most half a byte per
//!   pair of the dataset, each past a small constant floor. Grids with more
//!   buckets than that allows, and datasets past 65,536 points, sample the
//!   sorted sweep instead.
//!
//! # The cut
//!
//! Let `m = min(t, n)` for cap `t`, and `ρ_m(x)` the distance from a point
//! `x` to its `m`-th nearest point, itself included. The `m` points within
//! `ρ_m(x)` of `x` lie pairwise within `2·ρ_m(x)`, so each has `m` points in
//! its ball of that radius, and `L(r)` takes its largest value for every
//! `r ≥ r* = 2·min_x ρ_m(x)` (§3.1). A pair farther apart than `r*`
//! therefore changes `L` at no radius before it saturates, and the sweep
//! stops there. The counting pass takes `x` over every 16th row (one
//! length-`n` selection each; the profile does not depend on which rows are
//! tried, so choosing them from the data costs no privacy), widens `r*` by
//! `1 + 1e-9` for rounding, and keeps only the pairs at or below the floor
//! of the band after `r*`'s bucket (below). A pair past it is skipped on its
//! squared distance, before the square root and the bucket lookup. The
//! sweep ends at the cut's bucket at the latest, and the pass declines if
//! `L` has not saturated by then, so the steps are those of the full count
//! either way.
//!
//! # The tolerance band
//!
//! The sorted sweep groups distances at the unified tolerance, anchored at
//! each group's smallest member ([`tol::same_distance`]). A breakpoint is a
//! group's anchor, and `L(r)` counts every member of every group whose
//! anchor lies within `r`. So a pair just past `ρ_j`'s threshold still
//! counts at `ρ_j` when its group's anchor is within it. This stays within a
//! few tolerance widths of a quarter radius, in the *band* `(lo_j, U_j]`
//! around `ρ_j`: `U_j` is one tolerance width past `ρ_j`'s threshold, `lo_j`
//! three widths below `ρ_j` (and `lo_0 = 0`).
//! The counting pass sets band pairs aside, sorts only them, and replays
//! the anchored grouping there. Any other pair's group lies between two
//! bands, in its own bucket, where the value cannot change. The cut lies on
//! a band's floor, so every band below it is kept whole and the one above
//! it is skipped whole.
//!
//! The argument needs each band's first pair to open a group, and the
//! bands to be disjoint. The counting pass checks these and declines when
//! one fails, when a coordinate is not finite, or when the band outgrows
//! its memory bound; the caller then samples the sorted sweep, so the
//! answer is the same either way.

use crate::ball_count::{LProfile, TopCounts};
use crate::domain::GridDomain;
use crate::point::Point;
use crate::tol;

#[cfg(debug_assertions)]
static PROFILE_BUILD_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many grid profiles the backends' profile caches have built in this
/// process, on either backend. Always 0 in release builds (the counter only
/// exists under `debug_assertions`); tests assert on *deltas*. This is the
/// profile-level twin of
/// [`distance::debug_build_count`](crate::distance::debug_build_count): it
/// lets tests prove that the cache bounds rebuild work under adversarial
/// cap rotation and that racing first callers share one build.
pub fn debug_profile_build_count() -> u64 {
    #[cfg(debug_assertions)]
    {
        PROFILE_BUILD_COUNT.load(std::sync::atomic::Ordering::Relaxed)
    }
    #[cfg(not(debug_assertions))]
    {
        0
    }
}

/// Records one cached profile build (no-op in release builds).
pub(crate) fn note_profile_build() {
    #[cfg(debug_assertions)]
    PROFILE_BUILD_COUNT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
}

/// `L(·, S)` at GoodRadius's quarter-grid radii, with the grid indices where
/// its quality can change. See the module docs.
#[derive(Debug, Clone, PartialEq)]
pub struct GridProfile {
    /// `(j, L(ρ_j))` at each quarter index `j` where `L` changes, ascending
    /// in `j`; `L` is 0 before the first.
    steps: Vec<(u64, f64)>,
    /// `0` and, for each step `j`, `j` (where `L(r/2)` changes) when it is a
    /// grid index and `⌈j/2⌉` (where `L(r)` changes), ascending.
    segment_starts: Vec<u64>,
}

impl GridProfile {
    /// The profile with `steps` on `domain`'s quarter grid.
    fn new(steps: Vec<(u64, f64)>, domain: &GridDomain) -> Self {
        let grid_len = domain.radius_grid_len();
        let at = |&(j, _): &(u64, f64)| j;
        let mut segment_starts: Vec<u64> = std::iter::once(0)
            .chain(steps.iter().map(at).filter(|&j| j < grid_len))
            .chain(steps.iter().map(at).map(|j| j.div_ceil(2)))
            .collect();
        segment_starts.sort_unstable();
        segment_starts.dedup();
        GridProfile {
            steps,
            segment_starts,
        }
    }

    /// `L(ρ_j, S)` at quarter index `j`: `L(r_k)` is `value(2·k)` and
    /// `L(r_k/2)` is `value(k)`. Indices past `2·(G − 1)` read the last one.
    pub fn value(&self, quarter: u64) -> f64 {
        let idx = self.steps.partition_point(|&(j, _)| j <= quarter);
        if idx == 0 {
            0.0
        } else {
            self.steps[idx - 1].1
        }
    }

    /// The grid indices where GoodRadius's quality can change, ascending
    /// and starting at 0: the segments of its piecewise-constant quality.
    pub fn segment_starts(&self) -> &[u64] {
        &self.segment_starts
    }

    /// Samples a breakpoint profile onto `domain`'s quarter grid, in one
    /// pass over its breakpoints.
    pub fn sample(profile: &LProfile, domain: &GridDomain) -> Self {
        let last = last_quarter(domain);
        let mut steps = Vec::new();
        let mut from = 0;
        for (&b, &value) in profile.breakpoints().iter().zip(profile.values()) {
            // Breakpoints ascend, so each one's first quarter index is at or
            // past the previous one's; past the grid, all later ones are.
            match first_quarter_within(domain, b, from, last) {
                Some(j) => {
                    record(&mut steps, j, value);
                    from = j;
                }
                None => break,
            }
        }
        GridProfile::new(steps, domain)
    }
}

/// The quarter-grid radius `ρ_j = radius_from_index(j) / 2`.
fn quarter_radius(domain: &GridDomain, j: u64) -> f64 {
    domain.radius_from_index(j) / 2.0
}

/// The last quarter index GoodRadius reads, `2·(G − 1)`: `L(r_{G−1})`.
fn last_quarter(domain: &GridDomain) -> u64 {
    domain.radius_grid_len().saturating_sub(1).saturating_mul(2)
}

/// Sets `L = value` from quarter index `j` on, keeping only the indices
/// where `L` changes. Successive calls never lower `j` or `value`.
fn record(steps: &mut Vec<(u64, f64)>, j: u64, value: f64) {
    match steps.last_mut() {
        Some(last) if last.0 == j => last.1 = value,
        Some(last) if last.1.to_bits() == value.to_bits() => {}
        None if value.to_bits() == 0f64.to_bits() => {}
        _ => steps.push((j, value)),
    }
}

/// The first quarter index in `lo..=last` whose ball holds distance `d`,
/// or `None` past `last`. No index below `lo` may hold it. Gallops up from
/// `lo`, then bisects the last doubling.
fn first_quarter_within(domain: &GridDomain, d: f64, lo: u64, last: u64) -> Option<u64> {
    let holds = |j: u64| tol::within_radius(d, quarter_radius(domain, j));
    if holds(lo) {
        return Some(lo);
    }
    // `below` never holds `d`; `above` does.
    let mut below = lo;
    let mut step = 1u64;
    let mut above = loop {
        let probe = below.saturating_add(step).min(last);
        if holds(probe) {
            break probe;
        }
        if probe == last {
            return None;
        }
        below = probe;
        step = step.saturating_mul(2);
    };
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        if holds(mid) {
            above = mid;
        } else {
            below = mid;
        }
    }
    Some(above)
}

/// Grids of up to this many buckets count pairs whatever the pair count;
/// larger ones need sixteen pairs per bucket. Bounds the bucket tables (32
/// bytes a bucket) by 2 bytes per pair past a 2 MB floor.
const SMALL_TABLE: u64 = 1 << 16;

/// The most points the counting pass takes: a pair packs into 32 bits.
const MAX_POINTS: usize = 1 << 16;

/// Band pairs allowed past one per 32 pairs (16 bytes each, so half a byte
/// per pair past a 64 KB floor).
const SMALL_BAND: usize = 1 << 12;

/// The rows the cut's `ρ_m(x)` is taken at: every `PROBE_STRIDE`-th.
const PROBE_STRIDE: usize = 16;

/// `L(·, S)` on `domain`'s quarter grid by counting `points`' pairs into
/// quarter-grid buckets, with cap `cap` (≥ 1), and how many pairs it kept
/// within the cut (each point's pair with itself included). `None` when
/// the band argument of the module docs fails, the grid or band is too
/// large for the memory bound, or `L` has not saturated by the cut; the
/// caller then samples the sorted sweep.
pub(crate) fn count_pairs(
    points: &[Point],
    cap: usize,
    domain: &GridDomain,
) -> Option<(GridProfile, usize)> {
    let n = points.len();
    let pairs = n * (n + 1) / 2;
    let dim = points.first().map_or(1, Point::dim);
    // Finite coordinates keep every distance a number (an overflow is +∞,
    // past the grid) and every self-distance 0.
    if n > MAX_POINTS || dim == 0 || !points.iter().all(Point::is_finite) {
        return None;
    }
    let table = Thresholds::new(domain, pairs)?;
    let last = table.th.len() - 1;
    // Coordinate `k` of every point, contiguous, so that each row's
    // distances are computed one coordinate at a time over all the later
    // points (the same sum, in the same order, as `Point::distance`).
    let columns: Vec<Vec<f64>> = (0..dim)
        .map(|k| points.iter().map(|p| p.coords()[k]).collect())
        .collect();

    // The cut: the floor of the band after `r*`'s bucket. Every pair that
    // changes `L` before it saturates lies at or below it, and so does
    // every band below it, whole. `cut_key` is the cut's bucket, `last + 1`
    // (no cut) when `r*` is at or past the grid's last quarter radius.
    let r_star = saturation_radius(&columns, n, cap);
    let cut_key = (table.bucket(r_star) + 1).min(last + 1);
    let cut = table.lower(cut_key);
    let cut_sq = cut * cut;

    // Key pass: each kept pair's bucket — the first quarter index whose
    // ball holds it, `last + 1` past the grid. A pair in no band is kept
    // with it; a band pair is set aside and kept after the replay below.
    // Each pair packs as `i << 16 | j`: `n` is at most `MAX_POINTS`.
    let mut kept: Vec<(u32, u32)> = Vec::new();
    let mut counts = vec![0usize; last + 2];
    let mut band: Vec<(f64, u32)> = Vec::new();
    let band_cap = pairs / 32 + SMALL_BAND;
    let mut row = vec![0.0f64; n];
    for i in 0..n {
        // The pair `(i, i)`: distance 0, inside bucket 0.
        let pair = (i as u32) << 16;
        counts[0] += 1;
        kept.push((0, pair | i as u32));
        let row = &mut row[i + 1..];
        for (k, column) in columns.iter().enumerate() {
            let a = column[i];
            for (sum, &b) in row.iter_mut().zip(&column[i + 1..]) {
                let d = a - b;
                *sum = if k == 0 { d * d } else { *sum + d * d };
            }
        }
        for (j, &sum) in (i as u32 + 1..).zip(row.iter()) {
            // A conservative test on the square (the tolerance dwarfs the
            // square root's rounding), then the exact one on the distance.
            if !tol::within_radius_sq(sum, cut_sq) {
                continue;
            }
            let d = sum.sqrt();
            if d > cut {
                continue;
            }
            // The estimate finds nearly every pair's bucket, and only
            // misses within the tolerance of a quarter radius.
            let mut key = table.guess(d);
            if !table.interior[key].contains(d) {
                key = table.bucket(d);
            }
            if table.interior[key].contains(d) {
                counts[key] += 1;
                kept.push((key as u32, pair | j));
            } else {
                if band.len() == band_cap {
                    return None;
                }
                band.push((d, pair | j));
            }
        }
    }

    // Replay the anchored grouping over each band. Bands are disjoint and
    // ordered, so one sort by distance groups them too.
    band.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
    let mut current = None;
    let mut anchor = 0.0;
    for &(d, pair) in &band {
        let key = table.bucket(d);
        let k = table.band_of(d, key);
        let opens_group = if current == Some(k) {
            !tol::same_distance(anchor, d)
        } else {
            current = Some(k);
            if k == 0 {
                // The zero distances anchor the first group.
                anchor = 0.0;
                !tol::same_distance(anchor, d)
            } else if tol::within_radius(d, table.lower(k)) {
                // The pair before the band, at or below its floor, may
                // anchor this pair's group: undecidable without the sort.
                return None;
            } else {
                true
            }
        };
        if opens_group {
            anchor = d;
        }
        // A pair past `ρ_k`'s threshold counts there when its anchor is
        // within it.
        let counted_at = if key > k && tol::within_radius(anchor, quarter_radius(domain, k as u64))
        {
            k
        } else {
            key
        };
        counts[counted_at] += 1;
        kept.push((counted_at as u32, pair));
    }
    drop(band);

    // Counting sort of the swept pairs by bucket: `counts` becomes each
    // bucket's start, then, after the scatter, its end. The cut's bucket
    // may miss the pairs past the cut, so the sweep reads it only to see
    // `L` saturate, which more pairs could not undo.
    let swept = cut_key.min(last);
    let mut total = 0;
    for count in &mut counts[..=swept] {
        let here = *count;
        *count = total;
        total += here;
    }
    let mut order = vec![0u32; total];
    for &(key, pair) in &kept {
        let key = key as usize;
        if key <= swept {
            order[counts[key]] = pair;
            counts[key] += 1;
        }
    }
    let kept_pairs = kept.len();
    drop(kept);
    let mut top = TopCounts::new(n, cap);
    let mut steps = Vec::new();
    let mut at = 0;
    for (j, &end) in counts[..=swept].iter().enumerate() {
        if end == at {
            continue;
        }
        for &pair in &order[at..end] {
            let (a, b) = (pair >> 16, pair & 0xffff);
            top.increment(a as usize);
            if b != a {
                top.increment(b as usize);
            }
        }
        at = end;
        record(&mut steps, j as u64, top.value());
        if top.saturated() {
            // `L` is final: no later bucket changes it.
            break;
        }
    }
    if cut_key <= last && !top.saturated() {
        // Rounding beyond the cut's margin: pairs past it may still count.
        return None;
    }
    Some((GridProfile::new(steps, domain), kept_pairs))
}

/// The cut's `r*`: twice the least distance from a probed row (every
/// [`PROBE_STRIDE`]-th) to its `min(cap, n)`-th nearest point, itself
/// included, widened by `1 + 1e-9` for rounding; `+∞` without points.
fn saturation_radius(columns: &[Vec<f64>], n: usize, cap: usize) -> f64 {
    let nearest = cap.min(n);
    let mut sums = vec![0.0f64; n];
    let mut least = f64::INFINITY;
    for i in (0..n).step_by(PROBE_STRIDE) {
        for (k, column) in columns.iter().enumerate() {
            let a = column[i];
            for (sum, &b) in sums.iter_mut().zip(column) {
                let d = a - b;
                *sum = if k == 0 { d * d } else { *sum + d * d };
            }
        }
        let (_, &mut sum, _) = sums.select_nth_unstable_by(nearest - 1, f64::total_cmp);
        least = least.min(sum);
    }
    2.0 * least.sqrt() * (1.0 + 1e-9)
}

/// The counting pass's thresholds `T_j = ball_threshold(ρ_j)`, `j ≤ 2·(G−1)`,
/// built only for grids where the band argument holds.
struct Thresholds {
    th: Vec<f64>,
    /// Per bucket (`last + 2` of them), its distances in no band.
    interior: Vec<Interior>,
    /// Quarter radii per unit distance, for the bucket estimate.
    per_unit: f64,
}

/// The distances `(below, top]` of one bucket that lie in no band: above
/// the previous quarter radius's band, `U_{key−1}`, up to the floor of its
/// own, `lo_key`.
#[derive(Clone, Copy)]
struct Interior {
    below: f64,
    top: f64,
}

impl Interior {
    fn contains(self, d: f64) -> bool {
        self.below < d && d <= self.top
    }
}

impl Thresholds {
    /// The table for `domain`, or `None` when its buckets outgrow the
    /// memory bound for `pairs` pairs or its bands overlap.
    fn new(domain: &GridDomain, pairs: usize) -> Option<Self> {
        let last = last_quarter(domain);
        let buckets = last.checked_add(2)?;
        if buckets > (pairs as u64 / 16).max(SMALL_TABLE) || buckets > u64::from(u32::MAX) {
            return None;
        }
        let th: Vec<f64> = (0..=last)
            .map(|j| tol::ball_threshold(quarter_radius(domain, j)))
            .collect();
        // A band reaches one tolerance width past `T_j` and starts three
        // below `ρ_j` (band 0 starts at the zero distance).
        let floor = |t: f64| t - 4.0 * (tol::ball_threshold(t) - t);
        let interior: Vec<Interior> = (0..th.len() + 1)
            .map(|key| Interior {
                below: match key {
                    0 => f64::NEG_INFINITY,
                    _ => tol::ball_threshold(th[key - 1]),
                },
                top: match th.get(key) {
                    _ if key == 0 => 0.0,
                    Some(&t) => floor(t),
                    None => f64::INFINITY,
                },
            })
            .collect();
        // Disjoint bands (and no NaN threshold).
        let disjoint = |i: &Interior| i.below.partial_cmp(&i.top) == Some(std::cmp::Ordering::Less);
        if !interior[1..th.len()].iter().all(disjoint) {
            return None;
        }
        Some(Thresholds {
            th,
            interior,
            per_unit: 4.0 / domain.grid_step(),
        })
    }

    /// The bucket estimate `⌊d·4/ℓ⌋ + 1`, nearly always right for a distance
    /// in no band; [`Thresholds::bucket`] is exact.
    fn guess(&self, d: f64) -> usize {
        ((d * self.per_unit) as usize)
            .saturating_add(1)
            .min(self.th.len())
    }

    /// The first quarter index whose ball holds `d` (not NaN), `th.len()`
    /// past the grid.
    fn bucket(&self, d: f64) -> usize {
        self.th.partition_point(|&t| t < d)
    }

    /// The floor `lo_k` of band `k`; `+∞` past the grid.
    fn lower(&self, k: usize) -> f64 {
        self.interior[k].top
    }

    /// The band holding band pair `d` of bucket `key`: the band below its
    /// bucket's quarter radius when `d` is within its reach.
    fn band_of(&self, d: f64, key: usize) -> usize {
        if key > 0 && d <= self.interior[key].below {
            key - 1
        } else {
            key
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{GeometryBackend, ProjectedBackend, ProjectedConfig};
    use crate::ball_count::tests::tie_heavy_dataset;
    use crate::ball_count::BallCounter;
    use crate::dataset::Dataset;
    use crate::index::GeometryIndex;
    use proptest::prelude::{prop, Strategy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks `grid` against what GoodRadius read from the breakpoint
    /// profile: `L(r_k)` and `L(r_k/2)` at every grid index `k`.
    fn assert_matches_reference(grid: &GridProfile, reference: &LProfile, domain: &GridDomain) {
        for k in 0..domain.radius_grid_len() {
            let r = domain.radius_from_index(k);
            assert_eq!(
                grid.value(2 * k).to_bits(),
                reference.value_at(r).to_bits(),
                "L(r_{k}) on {domain:?}"
            );
            assert_eq!(
                grid.value(k).to_bits(),
                reference.value_at(r / 2.0).to_bits(),
                "L(r_{k}/2) on {domain:?}"
            );
        }
    }

    /// The segment check: GoodRadius's quality at grid index `k` is a
    /// function of `L(r_k/2)` and `L(r_k)` alone, and every `k` reads both,
    /// bit for bit, as the start of its segment does.
    fn assert_segments_hold(grid: &GridProfile, domain: &GridDomain) {
        let grid_len = domain.radius_grid_len();
        let starts = grid.segment_starts();
        assert_eq!(starts.first(), Some(&0), "segments start at 0");
        assert!(starts.windows(2).all(|w| w[0] < w[1]), "{starts:?}");
        assert!(starts.iter().all(|&s| s < grid_len), "{starts:?}");
        let reads = |k: u64| (grid.value(k).to_bits(), grid.value(2 * k).to_bits());
        let mut segment = 0;
        for k in 0..grid_len {
            if starts.get(segment + 1) == Some(&k) {
                segment += 1;
            }
            let start = starts[segment];
            assert_eq!(reads(k), reads(start), "index {k} vs segment start {start}");
        }
    }

    /// One of four unit-cube domains: aligned with `tie_heavy_dataset`'s
    /// 1/4 grid, the `size` 1024 the engine's goldens register on, a
    /// random `size` in 2–300, and one with more grid radii than the
    /// dataset has pairs.
    fn domain_for(kind: u8, dim: usize, size: u64, n: usize) -> GridDomain {
        let size = match kind {
            0 => 5,
            1 => 1024,
            2 => size,
            _ => (n * (n + 1) / 2) as u64 + size,
        };
        GridDomain::unit_cube(dim, size).expect("valid domain")
    }

    /// `tie_heavy_dataset`; up to 64 points on the domain's own grid
    /// (clustered in its first 12 values per axis, so distances repeat and
    /// hit grid radii); the origin plus up to 24 points on a line, each a
    /// few tolerance widths off a quarter radius (so pairs straddle the
    /// thresholds and band floors); or up to 64 off-grid points, half of
    /// them in a small clump (so a middling cap saturates `L` early and the
    /// cut drops pairs) — crossed with the four domains of `domain_for`.
    fn dataset_and_domain() -> impl Strategy<Value = (Dataset, GridDomain)> {
        let on_grid = (1usize..=3).prop_flat_map(|dim| {
            prop::collection::vec(prop::collection::vec(0u64..12, dim), 1..64)
        });
        let straddling = prop::collection::vec((1u64..=12, -40i64..=40), 1..24);
        let off_grid = (1usize..=3).prop_flat_map(|dim| {
            prop::collection::vec(prop::collection::vec(0.0f64..1.0, dim), 1..64)
        });
        (
            (tie_heavy_dataset(), straddling),
            (on_grid, off_grid),
            (0u8..4, 0u8..4, 2u64..300),
        )
            .prop_map(
                |((tie_heavy, straddling), (on_grid, off_grid), (data_kind, domain_kind, size))| {
                    if data_kind == 0 {
                        let domain =
                            domain_for(domain_kind, tie_heavy.dim(), size, tie_heavy.len());
                        return (tie_heavy, domain);
                    }
                    if data_kind == 1 {
                        let domain = domain_for(domain_kind, 1, size, straddling.len() + 1);
                        let mut rows = vec![vec![0.0]];
                        for &(k, m) in &straddling {
                            rows.push(vec![quarter_radius(&domain, k) * (1.0 + m as f64 * 1e-13)]);
                        }
                        return (Dataset::from_rows(rows).expect("one dimension"), domain);
                    }
                    if data_kind == 3 {
                        let domain =
                            domain_for(domain_kind, off_grid[0].len(), size, off_grid.len());
                        let half = off_grid.len() / 2;
                        let rows = off_grid
                            .iter()
                            .enumerate()
                            .map(|(i, row)| {
                                let scale = if i < half { 0.05 } else { 1.0 };
                                row.iter().map(|&c| 0.3 + scale * (c - 0.3)).collect()
                            })
                            .collect();
                        return (Dataset::from_rows(rows).expect("uniform dimension"), domain);
                    }
                    let domain = domain_for(domain_kind, on_grid[0].len(), size, on_grid.len());
                    let rows = on_grid
                        .iter()
                        .map(|row| {
                            row.iter()
                                .map(|&k| {
                                    domain.min() + (k % domain.size()) as f64 * domain.grid_step()
                                })
                                .collect()
                        })
                        .collect();
                    (Dataset::from_rows(rows).expect("uniform dimension"), domain)
                },
            )
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// Both backends' grid profiles read exactly what GoodRadius read
        /// from their breakpoint profiles and hold the segment check, and
        /// the exact counting pass, when it runs, builds the same profile.
        #[test]
        fn grid_profile_matches_the_breakpoint_profile_bit_for_bit(
            case in dataset_and_domain(),
            cap_kind in 0usize..4,
            extra in 1usize..50,
            max_buckets in 1usize..48,
        ) {
            let (data, domain) = case;
            let n = data.len();
            let cap = match cap_kind {
                0 => 1,
                1 => n,
                2 => n + extra,
                _ => 1 + extra % n,
            };
            let exact = GeometryIndex::build(&data, 1);
            let reference = exact.l_profile(cap);
            let grid = exact.grid_profile(cap, &domain);
            assert_matches_reference(&grid, &reference, &domain);
            assert_segments_hold(&grid, &domain);
            if let Some((counted, _)) = count_pairs(data.points(), cap, &domain) {
                proptest::prop_assert_eq!(&counted, &*grid);
            }
            let projected = ProjectedBackend::build(&data, ProjectedConfig {
                max_buckets: Some(max_buckets),
                ..ProjectedConfig::default()
            });
            let grid = projected.grid_profile(cap, &domain);
            assert_matches_reference(&grid, &projected.l_profile(cap), &domain);
            assert_segments_hold(&grid, &domain);
        }
    }

    #[test]
    fn segment_starts_follow_the_steps() {
        // G = 5 grid indices, quarter indices 0..=8. Steps at 3, 6 and 7:
        // L(r/2) changes at grid index 3, L(r) at 2, 3 and 4.
        let domain = GridDomain::unit_cube(1, 3).unwrap();
        assert_eq!(domain.radius_grid_len(), 5);
        let steps = vec![(3, 1.0), (6, 2.0), (7, 3.0)];
        assert_eq!(
            GridProfile::new(steps, &domain).segment_starts(),
            &[0, 2, 3, 4]
        );
        // A step past the last grid index only moves L(r).
        let steps = vec![(0, 1.0), (5, 2.0), (8, 3.0)];
        assert_eq!(
            GridProfile::new(steps, &domain).segment_starts(),
            &[0, 3, 4]
        );
    }

    #[test]
    fn record_keeps_only_changes() {
        let mut steps = Vec::new();
        record(&mut steps, 0, 0.0);
        record(&mut steps, 2, 0.5);
        record(&mut steps, 2, 1.0);
        record(&mut steps, 5, 1.0);
        record(&mut steps, 7, 2.0);
        assert_eq!(steps, vec![(2, 1.0), (7, 2.0)]);
    }

    #[test]
    fn first_quarter_within_matches_a_linear_scan() {
        let domain = GridDomain::unit_cube(2, 33).unwrap();
        let last = last_quarter(&domain);
        let scan = |d: f64| (0..=last).find(|&j| tol::within_radius(d, quarter_radius(&domain, j)));
        for d in [
            0.0,
            1e-16,
            0.01,
            0.0078125,
            0.5,
            1.0,
            std::f64::consts::SQRT_2,
            1.5,
            9.0,
        ] {
            assert_eq!(
                first_quarter_within(&domain, d, 0, last),
                scan(d),
                "d = {d}"
            );
        }
    }

    #[test]
    fn empty_data_reads_zero_with_one_segment() {
        let domain = GridDomain::unit_cube(1, 9).unwrap();
        let (counted, kept) = count_pairs(&[], 3, &domain).expect("small grid counts");
        assert_eq!(kept, 0);
        assert_eq!(counted.value(0), 0.0);
        assert_eq!(counted.segment_starts(), &[0]);
        let sampled = GridProfile::sample(&LProfile::from_parts(Vec::new(), Vec::new()), &domain);
        assert_eq!(counted, sampled);
    }

    #[test]
    fn counting_declines_what_it_cannot_place() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![0.25], vec![f64::NAN]]).unwrap();
        let domain = GridDomain::unit_cube(1, 5).unwrap();
        assert!(count_pairs(data.points(), 2, &domain).is_none(), "NaN");
        // A grid finer than the tolerance near zero: bands overlap.
        let fine = GridDomain::new(1, 1 << 12, 0.0, 1e-12).unwrap();
        let data = Dataset::from_rows(vec![vec![0.0], vec![5e-13]]).unwrap();
        assert!(count_pairs(data.points(), 1, &fine).is_none(), "overlap");
        let bc = BallCounter::new(&data, 1);
        assert_eq!(
            bc.grid_profile(&fine),
            GridProfile::sample(&bc.l_profile(), &fine)
        );
    }

    /// The cut applies where it should: on 1,000 off-grid points with a
    /// third of them in a disc of radius 0.08 and cap 200, the counting
    /// pass runs (no fallback to the sorted sweep) and keeps under a
    /// quarter of the pairs, and its profile is the reference's.
    #[test]
    fn the_cut_keeps_a_planted_clusters_pairs_only() {
        let mut rng = StdRng::seed_from_u64(21);
        let domain = GridDomain::unit_cube(2, 1025).unwrap();
        let n = 1000;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                if i < n / 3 {
                    let (angle, radius) =
                        (rng.gen::<f64>() * std::f64::consts::TAU, rng.gen::<f64>());
                    let radius = 0.08 * radius.sqrt();
                    vec![0.4 + radius * angle.cos(), 0.6 + radius * angle.sin()]
                } else {
                    vec![rng.gen::<f64>(), rng.gen::<f64>()]
                }
            })
            .collect();
        let data = Dataset::from_rows(rows).unwrap();
        let pairs = n * (n + 1) / 2;
        let (counted, kept) = count_pairs(data.points(), 200, &domain).expect("the pass runs");
        assert!(kept < pairs / 4, "kept {kept} of {pairs} pairs");
        let reference = GridProfile::sample(&BallCounter::new(&data, 200).l_profile(), &domain);
        assert_eq!(counted, reference);
    }
}
