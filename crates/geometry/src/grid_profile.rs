//! `L(·, S)` on GoodRadius's radius grid.
//!
//! GoodRadius (Algorithm 1) reads the averaged score `L(r, S)` of
//! [`ball_count`](crate::ball_count) at two kinds of radii only: the grid
//! radii `r_k = k·ℓ/2` ([`GridDomain::radius_from_index`]) and their halves
//! `r_k/2`. Both lie on the *quarter grid* `ρ_j = radius_from_index(j) / 2`:
//! `L(r_k)` is `L(ρ_{2k})` and `L(r_k/2)` is `L(ρ_k)`. A [`GridProfile`]
//! holds `L` at every `ρ_j` with `j ≤ 2·(G − 1)`, `G` =
//! [`GridDomain::radius_grid_len`], stored as its *steps*: the quarter
//! indices where `L` changes. (`ρ_{2k}` is `r_k` bit for bit whenever the
//! grid's radii are normal floats, as doubling and halving those is exact.)
//! GoodRadius's quality at grid index `k` reads `L(ρ_k)` and `L(ρ_{2k})`
//! only, so it can change only at `k = j` or `k = ⌈j/2⌉` for a step `j`.
//! [`GridProfile::segment_starts`] is `0` plus those indices, derived from
//! the steps alone, whichever function built them: it is as long as the
//! steps, which end where `L` reaches its largest value, not as long as the
//! grid.
//!
//! One pass builds it, over *weighted sites*: site `i` stands for `w_i`
//! points at its coordinates. At `ρ_j` a site's count is the weight within
//! `ρ_j` of it ([`tol::within_radius`]), capped at `t`, and `L(ρ_j)` is the
//! sum of the `t` largest counts, each site's taken `w_i` times, over `t`.
//!
//! * The exact backend's sites are its points, one each:
//!   [`BallCounter::grid_profile`](crate::ball_count::BallCounter::grid_profile)
//!   is then [`BallCounter::l_value`](crate::ball_count::BallCounter::l_value)`(ρ_j)`
//!   bit for bit at each quarter index `j`, and Lemma 4.5's sensitivity
//!   bound holds of what is served.
//! * The projected backend's sites are its bucket representatives'
//!   projected coordinates, weighted by their buckets' occupancies
//!   ([`ProjectedBackend`](crate::backend::ProjectedBackend)).
//!
//! # The pass
//!
//! It works on the *slab*: the sites whose coordinates are all finite,
//! ordered by their first coordinate and stored one column per coordinate.
//! A site with a coordinate that is not finite is `+∞` or NaN away from
//! every site, itself included, so it lies in no ball and keeps no pair;
//! leaving it out changes no count. It takes at most [`MAX_EXACT_POINTS`]
//! sites, 65,536.
//!
//! 1. **The cut** ([below](#the-cut)) gives a radius past which `L` cannot
//!    change. Let `top` be the first quarter index whose ball holds it, or
//!    the last index `2·(G − 1)` when none does. Only pairs within
//!    `T(top) = ball_threshold(ρ_top)` are kept, so every key up to `top`
//!    is complete.
//! 2. **The window.** A kept pair's first coordinates differ by at most
//!    `T(top)`, so row `i` computes its distances only to the later slab
//!    sites whose first coordinate lies within `T(top)·(1 + 1e-9)` of its
//!    own (a two-pointer sweep finds each row's end). Each distance is
//!    the sum `Point::distance` squares, in the same coordinate order, so
//!    the pairs kept and their distances are exactly those of all
//!    `n(n+1)/2`. A pair past `T(top)` is skipped on its squared distance,
//!    before the square root.
//! 3. **Keys.** Each kept pair is keyed to the first quarter index whose
//!    ball holds it. The estimate `⌊4d/ℓ⌋`, which is that index or the one
//!    before it except within rounding of a quarter radius or on grids
//!    finer than the tolerance, gallops to the first `j` with `d ≤ T[j]` in
//!    a table of `T[j] = ball_threshold(ρ_j)`, `j ≤ top`: the comparison
//!    [`tol::within_radius`] makes.
//! 4. **Grouping.** With at most `max(P/16, 2^16)` keys for `P` pairs, a
//!    counting sort groups the kept pairs in 12 transient bytes per kept
//!    pair (a 4-byte key and a 4-byte pair as each is found, then a 4-byte
//!    slot of the key order), beside 8 bytes per key for the table and 4
//!    per key and worker for the key counts. On grids far finer than the
//!    data, such as `size` 2⁴⁰, there is no table: each key gallops over
//!    `tol::within_radius` itself and the kept pairs are sorted by key
//!    (16 bytes each). Nothing allocates per grid radius.
//! 5. **The sweep** reads `L` after each key, in ascending order, and stops
//!    once `L` saturates: with unit weights by the layer tally
//!    `LayerCounts`, `O(1)` per pair; with weights by a Fenwick tree over
//!    the counts (`WeightedCounts`), queried once per key, since one raise
//!    there can add many points to a count.
//!
//! **Workers.** A build with more than `SPLIT_PAIRS` candidate pairs in
//! its windows splits its rows over the caller's workers (at most one per
//! `SPLIT_PAIRS` candidates), striped, row `i` to worker `i mod W`, so that
//! dense and sparse stretches of the slab are shared; the cut's probes are
//! split the same way. Each worker counting-sorts its own pairs, and the
//! sweep reads key `j`'s pairs as every worker's run of it in turn. The
//! cut's reaches merge by `min`, which is exact, and `L` after a key
//! depends only on which pairs carry keys up to it, so the profile is
//! bit-identical at any worker count.
//!
//! # The cut
//!
//! Let `m = min(t, n)` for cap `t` and `n` points (the slab sites' total
//! weight), and `ρ_m(p)` the distance from a site `p` to its `m`-th
//! nearest point, itself included: where the weight taken in distance
//! order first reaches `m`. For any site `y`, the ball of radius
//! `ρ_m(p) + d(p, y)` around `y` holds `p`'s `m` nearest points, so `y`'s
//! count there is `m`. Take `u(y) = min_p (ρ_m(p) + d(p, y))` over the
//! probed sites `p`. Once the sites with `u(y) ≤ r` stand for `m` points,
//! `L(r)` takes its largest value, so `L` saturates by `r*`, the `m`-th
//! smallest `u(y)` counted by weight. (A probe's own `m` nearest points have
//! `u ≤ 2·ρ_m(p)`, so `r*` is at most §3.1's `2·min_p ρ_m(p)`.) The probes
//! are every 16th slab site, and with weights also the heaviest, so a site
//! that alone stands for `m` points cuts at radius 0; the profile does not
//! depend on which sites are probed, so choosing them from the data costs no
//! privacy. Each probe computes its distance to every slab site once, for
//! `ρ_m(p)` (a length-`n` selection with unit weights, a sort with weights)
//! and for `u`. `r*` is widened by `1 + 1e-9` for rounding. If `L` has not
//! saturated by a `top` below the last index (rounding), the pass runs again
//! with `top` set to the last index. Pairs past `T` of the last index count
//! at no index GoodRadius reads.

use crate::ball_count::{LayerCounts, WeightedCounts};
use crate::domain::GridDomain;
use crate::point::Point;
use crate::tol;
use std::ops::Range;

#[cfg(debug_assertions)]
static PROFILE_BUILD_COUNT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// How many grid profiles the backends' profile caches have built in this
/// process, on either backend. Always 0 in release builds (the counter only
/// exists under `debug_assertions`); tests assert on *deltas*. This is the
/// profile-level twin of
/// [`distance::debug_build_count`](crate::distance::debug_build_count): it
/// lets tests prove that the cache bounds rebuild work under adversarial
/// cap rotation and that racing first callers share one build.
// privlint::allow(unused-pub): the profile-build counter the index-reuse tests (a CI step) read from other crates
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
/// or `None` past `last`. No index below `lo` may hold it.
fn first_quarter_within(domain: &GridDomain, d: f64, lo: u64, last: u64) -> Option<u64> {
    let holds = |j: u64| tol::within_radius(d, quarter_radius(domain, j));
    holds(last).then(|| first_holding(holds, lo, last, lo))
}

/// The first index in `lo..=hi` where `holds` is true, for a `holds` that
/// is false and then true on that range and true at `hi`. Gallops from
/// `start` toward the answer, then bisects the last doubling.
fn first_holding(holds: impl Fn(u64) -> bool, lo: u64, hi: u64, start: u64) -> u64 {
    // The answer lies in `(below, above]`.
    let (mut below, mut above) = if holds(start) {
        let (mut above, mut step) = (start, 1u64);
        loop {
            if above == lo {
                return lo;
            }
            let probe = above.saturating_sub(step).max(lo);
            if !holds(probe) {
                break (probe, above);
            }
            above = probe;
            step = step.saturating_mul(2);
        }
    } else {
        let (mut below, mut step) = (start, 1u64);
        loop {
            let probe = below.saturating_add(step).min(hi);
            if holds(probe) {
                break (below, probe);
            }
            below = probe;
            step = step.saturating_mul(2);
        }
    };
    while above - below > 1 {
        let mid = below + (above - below) / 2;
        if holds(mid) {
            above = mid;
        } else {
            below = mid;
        }
    }
    above
}

/// The most sites a grid profile takes: a pair packs into 32 bits as
/// `i << 16 | j`.
pub const MAX_EXACT_POINTS: usize = 1 << 16;

/// Grids of up to this many keys group pairs by a counting sort whatever
/// the pair count; larger ones need sixteen pairs per key (the key table
/// then holds half a byte per pair), and finer grids still sort their
/// pairs.
const SMALL_TABLE: u64 = 1 << 16;

/// The sites the cut's `ρ_m(x)` is taken at: every `PROBE_STRIDE`-th.
const PROBE_STRIDE: usize = 16;

/// The fewest candidate pairs (or probe distances) a worker takes: a build
/// with fewer runs on the calling thread alone. A scoped spawn and join
/// took a median 0.035 ms (0.14 ms at most, 200 runs on a 2-vCPU VM); this
/// many candidate pairs take one worker about 0.09 ms (about 5.5 ns a pair
/// on 1,000 off-grid points), so a worker that takes them repays its
/// spawn. A 64-point build, 2,080 pairs, stays on one thread.
const SPLIT_PAIRS: usize = 1 << 14;

/// `L(·, S)` on `domain`'s quarter grid with cap `cap` (≥ 1), over `sites`
/// where site `i` stands for `weights[i]` points (one each when `weights`
/// is `None`), on up to `workers` threads: see the module docs. With unit
/// weights it is `BallCounter::l_value(ρ_j)` at quarter index `j`, bit for
/// bit, at any worker count. Also returns how many site pairs the last
/// pass kept within its cut (each site's pair with itself included).
///
/// # Panics
/// Panics past [`MAX_EXACT_POINTS`] sites.
pub(crate) fn count_pairs(
    sites: &[Point],
    weights: Option<&[usize]>,
    cap: usize,
    domain: &GridDomain,
    workers: usize,
) -> (GridProfile, usize) {
    let n = sites.len();
    assert!(
        n <= MAX_EXACT_POINTS,
        "a grid profile takes at most {MAX_EXACT_POINTS} sites, not {n}"
    );
    let slab = Slab::new(sites, weights);
    let last = last_quarter(domain);
    let r_star = saturation_radius(&slab, cap, workers);
    let top = first_quarter_within(domain, r_star, 0, last).unwrap_or(last);
    let count = |top| match &slab.weights {
        None => {
            let tally = LayerCounts::new(slab.len, cap);
            count_up_to(&slab, cap, domain, top, workers, tally)
        }
        Some(weights) => {
            let tally = WeightedCounts::new(weights, cap);
            count_up_to(&slab, cap, domain, top, workers, tally)
        }
    };
    let (mut steps, mut kept, saturated) = count(top);
    if !saturated && top < last {
        // Rounding beyond the cut's margin: count every pair GoodRadius reads.
        (steps, kept, _) = count(last);
    }
    (GridProfile::new(steps, domain), kept)
}

/// The sites whose coordinates are all finite, ordered by their first
/// coordinate, as columns: see the module docs. Slab site `s` is a site
/// under another index, which changes no top-`t` sum.
struct Slab {
    /// Coordinate `k` of every slab site, contiguous, so that a row's
    /// distances are computed one coordinate at a time.
    columns: Vec<Vec<f64>>,
    /// Each slab site's weight; `None` for one each.
    weights: Option<Vec<usize>>,
    len: usize,
}

impl Slab {
    fn new(sites: &[Point], weights: Option<&[usize]>) -> Self {
        let mut order: Vec<(f64, usize)> = sites
            .iter()
            .enumerate()
            .filter(|(_, site)| site.coords().iter().all(|c| c.is_finite()))
            .map(|(i, site)| (site.coords().first().copied().unwrap_or(0.0), i))
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let dim = sites.first().map_or(0, Point::dim);
        let columns = (0..dim)
            .map(|k| order.iter().map(|&(_, i)| sites[i].coords()[k]).collect())
            .collect();
        Slab {
            columns,
            weights: weights.map(|w| order.iter().map(|&(_, i)| w[i]).collect()),
            len: order.len(),
        }
    }

    /// How many points the slab's sites stand for: their total weight.
    fn points(&self) -> usize {
        self.weights.as_ref().map_or(self.len, |w| w.iter().sum())
    }

    /// Into `sums`, the squared distance from site `i` to each site of
    /// `others`: the sum `Point::distance` squares, in the same order.
    /// Without coordinates `sums` is left as it is (zeros, as passed).
    fn squared_distances(&self, i: usize, others: Range<usize>, sums: &mut [f64]) {
        for (k, column) in self.columns.iter().enumerate() {
            let a = column[i];
            for (sum, &b) in sums.iter_mut().zip(&column[others.clone()]) {
                let d = a - b;
                *sum = if k == 0 { d * d } else { *sum + d * d };
            }
        }
    }

    /// Each row's window end: the first site after `i` whose first
    /// coordinate exceeds site `i`'s by more than `width` (`len` when none
    /// does, and for every row without coordinates).
    fn window_ends(&self, width: f64) -> Vec<usize> {
        let Some(xs) = self.columns.first() else {
            return vec![self.len; self.len];
        };
        let mut end = 0;
        (0..self.len)
            .map(|i| {
                while end < self.len && xs[end] - xs[i] <= width {
                    end += 1;
                }
                end
            })
            .collect()
    }

    /// Calls `keep(d, i << 16 | j)` for each pair `i ≤ j` of slab sites at
    /// a distance `d` of at most `cut`, each site's pair with itself
    /// included, over this worker's rows (`i ≡ worker` mod `workers`). Row
    /// `i` reads only its window, `i..ends[i]`.
    fn for_each_kept_pair(
        &self,
        ends: &[usize],
        cut: f64,
        (worker, workers): (usize, usize),
        mut keep: impl FnMut(f64, u32),
    ) {
        let cut_sq = cut * cut;
        let mut row = vec![0.0f64; self.len];
        for i in (worker..self.len).step_by(workers) {
            let row = &mut row[..ends[i] - i];
            self.squared_distances(i, i..ends[i], row);
            let pair = (i as u32) << 16;
            for (j, &sum) in (i as u32..).zip(row.iter()) {
                // A conservative test on the square (the tolerance dwarfs the
                // square root's rounding), then the exact one on the distance.
                if !tol::within_radius_sq(sum, cut_sq) {
                    continue;
                }
                let d = sum.sqrt();
                if d > cut {
                    continue;
                }
                keep(d, pair | j);
            }
        }
    }
}

/// How many of `workers` to split `work` candidate pairs over: one, or as
/// many as each have at least [`SPLIT_PAIRS`].
fn split(workers: usize, work: usize) -> usize {
    workers.min(work / SPLIT_PAIRS).max(1)
}

/// `job(w)` for each worker `w < workers`: worker 0 on the calling thread,
/// the others on scoped threads. A worker's panic resumes on the caller.
fn on_workers<T: Send>(workers: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let job = &job;
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..workers).map(|w| scope.spawn(move || job(w))).collect();
        let mut done = vec![job(0)];
        done.extend(others.into_iter().map(|worker| {
            worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        done
    })
}

/// The steps of `L` at quarter indices `0..=top` from the slab pairs within
/// `T(top) = ball_threshold(ρ_top)`, counted into `tally` on up to
/// `workers` threads, how many pairs that kept, and whether `L` saturated
/// by `top`.
fn count_up_to(
    slab: &Slab,
    cap: usize,
    domain: &GridDomain,
    top: u64,
    workers: usize,
    tally: impl Tally,
) -> (Vec<(u64, f64)>, usize, bool) {
    let cut = tol::ball_threshold(quarter_radius(domain, top));
    // The rounding margin of a kept pair's first-axis gap: see the module docs.
    let ends = slab.window_ends(cut * (1.0 + 1e-9));
    let candidates = ends.iter().enumerate().map(|(i, &end)| end - i).sum();
    let workers = split(workers, candidates);
    let per_unit = 4.0 / domain.grid_step();
    let pairs = slab.len * (slab.len + 1) / 2;
    let most = cap.min(tally.points()) as u64;
    let mut sweep = Sweep {
        tally,
        cap,
        full: most * most,
        steps: Vec::new(),
    };
    let kept;
    if top < (pairs as u64 / 16).max(SMALL_TABLE) {
        let thresholds: Vec<f64> = (0..=top)
            .map(|j| tol::ball_threshold(quarter_radius(domain, j)))
            .collect();
        let key = |d: f64| {
            let estimate = ((d * per_unit) as u64).min(top);
            first_holding(|j| d <= thresholds[j as usize], 0, top, estimate) as u32
        };
        let sorted = on_workers(workers, |worker| {
            let mut slots = vec![0u32; thresholds.len()];
            let mut keyed = Vec::new();
            slab.for_each_kept_pair(&ends, cut, (worker, workers), |d, pair| {
                let key = key(d);
                slots[key as usize] += 1;
                keyed.push((key, pair));
            });
            // Counting sort by key: `slots` becomes each key's start, then,
            // after the scatter, its end.
            let mut total = 0;
            for slot in &mut slots {
                let here = *slot;
                *slot = total;
                total += here;
            }
            let mut order = vec![0u32; keyed.len()];
            for (key, pair) in keyed {
                let slot = &mut slots[key as usize];
                order[*slot as usize] = pair;
                *slot += 1;
            }
            (slots, order)
        });
        kept = sorted.iter().map(|(_, order)| order.len()).sum();
        // Key `j`'s pairs are each worker's run of it, in turn.
        let mut starts = vec![0; sorted.len()];
        for j in 0..thresholds.len() {
            let runs = || {
                let from = sorted.iter().zip(&starts);
                from.map(|((slots, order), &at)| &order[at..slots[j] as usize])
            };
            if runs().any(|run| !run.is_empty()) && sweep.add(j as u64, runs().flatten().copied()) {
                break;
            }
            for (at, (slots, _)) in starts.iter_mut().zip(&sorted) {
                *at = slots[j] as usize;
            }
        }
    } else {
        // A grid far finer than the data: each worker sorts its keyed
        // pairs, and the sweep merges the sorted lists key by key.
        let lists = on_workers(workers, |worker| {
            let mut keyed: Vec<(u64, u32)> = Vec::new();
            slab.for_each_kept_pair(&ends, cut, (worker, workers), |d, pair| {
                keyed.push((quarter_key(domain, per_unit, d, top), pair));
            });
            keyed.sort_unstable_by_key(|&(key, _)| key);
            keyed
        });
        kept = lists.iter().map(Vec::len).sum();
        let mut heads = vec![0; lists.len()];
        let mut next = heads.clone();
        while let Some(key) = lists
            .iter()
            .zip(&heads)
            .filter_map(|(list, &at)| list.get(at).map(|&(key, _)| key))
            .min()
        {
            for ((list, &at), end) in lists.iter().zip(&heads).zip(&mut next) {
                *end = at + list[at..].iter().take_while(|e| e.0 == key).count();
            }
            let group = lists.iter().zip(heads.iter().zip(&next));
            let pairs = group.flat_map(|(list, (&at, &end))| list[at..end].iter().map(|e| e.1));
            if sweep.add(key, pairs) {
                break;
            }
            heads.copy_from_slice(&next);
        }
    }
    let saturated = sweep.tally.top_sum() == sweep.full;
    (sweep.steps, kept, saturated)
}

/// The first quarter index whose ball holds `d`, for a `d` within
/// `T(top)`, on a grid too fine for a table of thresholds. Starts from the
/// estimate `⌊4d/ℓ⌋` (`per_unit` is `4/ℓ`).
fn quarter_key(domain: &GridDomain, per_unit: f64, d: f64, top: u64) -> u64 {
    let estimate = ((d * per_unit) as u64).min(top);
    first_holding(
        |j| tol::within_radius(d, quarter_radius(domain, j)),
        0,
        top,
        estimate,
    )
}

/// The sites' counts, raised pair by pair, and the sum of the `t` largest.
trait Tally {
    /// Puts each site of the pair `(a, b)` in the other's ball; a site's
    /// pair with itself puts it in its own once.
    fn pair(&mut self, a: usize, b: usize);
    /// The sum of the `t` largest counts.
    fn top_sum(&self) -> u64;
    /// How many points the sites stand for.
    fn points(&self) -> usize;
}

impl Tally for LayerCounts {
    fn pair(&mut self, a: usize, b: usize) {
        self.increment(a);
        if b != a {
            self.increment(b);
        }
    }

    fn top_sum(&self) -> u64 {
        self.sum()
    }

    fn points(&self) -> usize {
        self.len()
    }
}

impl Tally for WeightedCounts<'_> {
    fn pair(&mut self, a: usize, b: usize) {
        self.raise(a, self.weight(b));
        if b != a {
            self.raise(b, self.weight(a));
        }
    }

    fn top_sum(&self) -> u64 {
        WeightedCounts::top_sum(self)
    }

    fn points(&self) -> usize {
        WeightedCounts::points(self)
    }
}

/// `L` read off key by key, in ascending quarter index.
struct Sweep<T> {
    tally: T,
    cap: usize,
    /// The largest top-`t` sum, `min(t, n)²`: `L` has saturated there.
    full: u64,
    steps: Vec<(u64, f64)>,
}

impl<T: Tally> Sweep<T> {
    /// Counts the pairs keyed to quarter index `j` and records `L` there;
    /// `true` once `L` has saturated, when no later key can change it.
    fn add(&mut self, j: u64, pairs: impl Iterator<Item = u32>) -> bool {
        for pair in pairs {
            let (a, b) = (pair >> 16, pair & 0xffff);
            self.tally.pair(a as usize, b as usize);
        }
        let sum = self.tally.top_sum();
        record(&mut self.steps, j, sum as f64 / self.cap as f64);
        sum == self.full
    }
}

/// The cut's `r*`: the `min(cap, n)`-th smallest reach `u(y) = min_p
/// (ρ_m(p) + d(p, y))` over the slab sites `y`, counted by weight, with
/// `p` over every [`PROBE_STRIDE`]-th slab site and the heaviest when
/// weighted, widened by `1 + 1e-9` for rounding; `+∞` without sites. The
/// probes are split over up to `workers` threads, and their reaches merged
/// by `min`.
fn saturation_radius(slab: &Slab, cap: usize, workers: usize) -> f64 {
    let n = slab.len;
    let nearest = cap.min(slab.points());
    if nearest == 0 {
        return f64::INFINITY;
    }
    let weights = slab.weights.as_deref();
    let heaviest = weights.and_then(|w| (0..n).max_by_key(|&i| w[i]));
    let probes: Vec<usize> = (0..n).step_by(PROBE_STRIDE).chain(heaviest).collect();
    let workers = split(workers, probes.len() * n);
    let reaches = on_workers(workers, |worker| {
        let mut sums = vec![0.0f64; n];
        let mut reach = vec![f64::INFINITY; n];
        for &p in probes.iter().skip(worker).step_by(workers) {
            slab.squared_distances(p, 0..n, &mut sums);
            let own = order_statistic(&sums, weights, nearest).sqrt();
            for (u, &sum) in reach.iter_mut().zip(&sums) {
                *u = u.min(own + sum.sqrt());
            }
        }
        reach
    });
    let mut reach = vec![f64::INFINITY; n];
    for worker in &reaches {
        for (u, &v) in reach.iter_mut().zip(worker) {
            *u = u.min(v);
        }
    }
    order_statistic(&reach, weights, nearest) * (1.0 + 1e-9)
}

/// The `m`-th smallest of `values` (`1 ≤ m ≤` their total weight), each
/// taken `weights[i]` times (once without weights): where the weight taken
/// in ascending order first reaches `m`.
fn order_statistic(values: &[f64], weights: Option<&[usize]>, m: usize) -> f64 {
    match weights {
        // The values are squared distances or reaches `ρ_m(p) + d(p, y)`,
        // never NaN or negative (not even `-0.0`: a difference of equal
        // coordinates is `+0.0`), and such floats order as their bits.
        None => {
            let mut bits: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
            f64::from_bits(*bits.select_nth_unstable(m - 1).1)
        }
        Some(weights) => {
            let mut by_value: Vec<(f64, usize)> = values
                .iter()
                .copied()
                .zip(weights.iter().copied())
                .collect();
            by_value.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
            let mut within = 0;
            by_value
                .iter()
                .find(|&&(_, w)| {
                    within += w;
                    within >= m
                })
                .map_or(f64::INFINITY, |&(value, _)| value)
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::backend::tests::{assert_weighted_ball_count_at, weighted_ball_count};
    use crate::backend::{GeometryBackend, ProjectedBackend, ProjectedConfig};
    use crate::ball_count::tests::tie_heavy_dataset;
    use crate::ball_count::BallCounter;
    use crate::dataset::Dataset;
    use crate::index::GeometryIndex;
    use proptest::prelude::{prop, Strategy};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Checks `grid` against the ball count `bc.l_value(ρ_q)`, bit for bit,
    /// at each quarter index `q` of `quarters`.
    fn assert_ball_count_at(
        grid: &GridProfile,
        bc: &BallCounter,
        domain: &GridDomain,
        quarters: impl IntoIterator<Item = u64>,
    ) {
        for q in quarters {
            assert_eq!(
                grid.value(q).to_bits(),
                bc.l_value(quarter_radius(domain, q)).to_bits(),
                "L(ρ_{q}) at cap {} on {domain:?}",
                bc.cap()
            );
        }
    }

    /// The quarter indices that pin a profile to a monotone reference
    /// everywhere on the grid: 0, the last index, and every step with the
    /// index before it. Between two of them the profile is constant, and a
    /// monotone reference equal to it at both ends is too.
    pub(crate) fn pinning_quarters(grid: &GridProfile, domain: &GridDomain) -> Vec<u64> {
        let mut quarters = vec![0, last_quarter(domain)];
        for &(j, _) in &grid.steps {
            quarters.extend([j.saturating_sub(1), j]);
        }
        quarters
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
    /// thresholds); or up to 64 off-grid points, half of
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

        /// The exact backend's grid profile is the ball count
        /// `BallCounter::l_value(ρ_q)` at every quarter index, and so is
        /// the weighted pass given unit weights; the projected backend's is
        /// the weighted ball count over its bucket sites (checked where it
        /// steps and at a few fixed indices); both hold the segment check.
        #[test]
        fn grid_profile_is_the_ball_count_bit_for_bit(
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
            let exact = GeometryIndex::build(&data);
            let grid = exact.grid_profile(cap, &domain);
            assert_ball_count_at(&grid, &BallCounter::new(&data, cap), &domain, 0..=last_quarter(&domain));
            assert_segments_hold(&grid, &domain);
            let unit = count_pairs(data.points(), Some(&vec![1; n]), cap, &domain, 1).0;
            proptest::prop_assert_eq!(&unit, &*grid);
            let projected = ProjectedBackend::build(&data, ProjectedConfig {
                max_buckets: Some(max_buckets),
                ..ProjectedConfig::default()
            });
            let grid = projected.grid_profile(cap, &domain);
            let last = last_quarter(&domain);
            let fixed = [1, 2, 3, 4, last / 2, last.saturating_sub(1)];
            let quarters = pinning_quarters(&grid, &domain).into_iter().chain(fixed);
            assert_weighted_ball_count_at(&grid, &projected, cap, &domain, quarters);
            assert_segments_hold(&grid, &domain);
        }
    }

    /// Grids far finer than the data (`size` 2²⁰ and 2⁴⁰, up to 64 off-grid
    /// points, caps from `n/2` to past `n`) key pairs past the counting
    /// sort's table and sort them; the profile is still the ball count.
    #[test]
    fn fine_grids_sort_their_pairs_into_the_ball_count() {
        let mut rng = StdRng::seed_from_u64(24);
        for size in [1u64 << 20, 1 << 40] {
            for case in 0..24 {
                let dim = 1 + case % 3;
                let n = rng.gen_range(8..=64);
                let rows: Vec<Vec<f64>> = (0..n)
                    .map(|_| (0..dim).map(|_| rng.gen::<f64>()).collect())
                    .collect();
                let data = Dataset::from_rows(rows).unwrap();
                let domain = GridDomain::unit_cube(dim, size).unwrap();
                let cap = rng.gen_range(n / 2..=n + 4);
                let r_star = saturation_radius(&Slab::new(data.points(), None), cap, 1);
                let top = first_quarter_within(&domain, r_star, 0, last_quarter(&domain));
                assert!(
                    top.is_none_or(|top| top >= SMALL_TABLE),
                    "{top:?}: the dense path"
                );
                let bc = BallCounter::new(&data, cap);
                let (grid, _) = count_pairs(data.points(), None, cap, &domain, 1);
                assert_ball_count_at(&grid, &bc, &domain, pinning_quarters(&grid, &domain));
            }
        }
    }

    /// A pair at exactly a quarter radius's threshold `T_j` counts from `j`
    /// on, and one an ulp past it from `j + 1`, on the counting sort's grid
    /// and on a grid fine enough to sort.
    #[test]
    fn pairs_at_a_threshold_count_from_its_index() {
        for (size, quarters) in [
            (5u64, vec![1u64, 2, 3, 4, 7]),
            (1 << 40, vec![3, 1 << 20, 1 << 41]),
        ] {
            let domain = GridDomain::unit_cube(1, size).unwrap();
            for j in quarters {
                let t = tol::ball_threshold(quarter_radius(&domain, j));
                let rows = [0.0, t.next_down(), t, t.next_up(), 2.0 * t]
                    .iter()
                    .map(|&x| vec![x])
                    .collect();
                let data = Dataset::from_rows(rows).unwrap();
                for cap in 1..=6 {
                    let bc = BallCounter::new(&data, cap);
                    let (grid, _) = count_pairs(data.points(), None, cap, &domain, 1);
                    let around =
                        (j.saturating_sub(2)..=j + 2).chain(pinning_quarters(&grid, &domain));
                    assert_ball_count_at(&grid, &bc, &domain, around);
                }
            }
        }
    }

    /// Infinite and NaN coordinates: every distance they touch is `+∞` or
    /// NaN, which lies in no ball, so the pass returns the pairwise count.
    #[test]
    fn coordinates_that_are_not_finite_lie_in_no_ball() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let rows = [
            [0.0, 0.0],
            [inf, 0.0],
            [0.25, 0.0],
            [-inf, 0.5],
            [inf, 0.0],
            [0.5, nan],
        ];
        let points: Vec<Point> = rows.iter().map(|row| Point::new(row.to_vec())).collect();
        let domain = GridDomain::unit_cube(2, 5).unwrap();
        for cap in 1..=8 {
            let (grid, _) = count_pairs(&points, None, cap, &domain, 1);
            for q in 0..=last_quarter(&domain) {
                let r = quarter_radius(&domain, q);
                let ball = |x: &Point| {
                    let within = points
                        .iter()
                        .filter(|y| tol::within_radius(x.distance(y), r));
                    within.count().min(cap)
                };
                let mut counts: Vec<usize> = points.iter().map(ball).collect();
                counts.sort_unstable_by(|a, b| b.cmp(a));
                let top: usize = counts.iter().take(cap).sum();
                assert_eq!(grid.value(q), top as f64 / cap as f64, "cap {cap}, q {q}");
            }
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
            // A pair's key gallops from its estimate to the same index.
            if let Some(j) = scan(d) {
                assert_eq!(quarter_key(&domain, 4.0 / domain.grid_step(), d, last), j);
            }
        }
    }

    #[test]
    fn empty_data_reads_zero_with_one_segment() {
        let domain = GridDomain::unit_cube(1, 9).unwrap();
        for weights in [None, Some(&[][..])] {
            let (counted, kept) = count_pairs(&[], weights, 3, &domain, 1);
            assert_eq!(kept, 0);
            assert_eq!(counted.value(0), 0.0);
            assert_eq!(counted.segment_starts(), &[0]);
            assert_eq!(counted, GridProfile::new(Vec::new(), &domain));
        }
    }

    /// A site that alone stands for `t` points saturates `L` at radius 0:
    /// the cut probes the heaviest site, keeps only the pairs at distance
    /// 0 (each site with itself here), and the profile is `t` from index
    /// 0 on. One point fewer and the pass counts farther pairs.
    #[test]
    fn a_site_holding_t_points_cuts_at_radius_zero() {
        let domain = GridDomain::unit_cube(2, 1025).unwrap();
        let sites: Vec<Point> = (0..40)
            .map(|i| Point::new(vec![(i % 7) as f64 / 7.0, (i / 7) as f64 / 7.0]))
            .collect();
        let cap = 200;
        let mut weights = vec![3; sites.len()];
        weights[23] = cap;
        let (grid, kept) = count_pairs(&sites, Some(&weights), cap, &domain, 1);
        assert_eq!(kept, sites.len());
        assert_eq!(grid.value(0), cap as f64);
        assert_eq!(grid.segment_starts(), &[0]);
        weights[23] = cap - 1;
        let (grid, kept) = count_pairs(&sites, Some(&weights), cap, &domain, 1);
        assert!(kept > sites.len(), "kept {kept}");
        let quarters = pinning_quarters(&grid, &domain);
        for q in quarters {
            let r = quarter_radius(&domain, q);
            let brute = weighted_ball_count(&sites, &weights, cap, r);
            assert_eq!(grid.value(q).to_bits(), brute.to_bits(), "L(ρ_{q})");
        }
    }

    /// `n` off-grid points in the unit square, a third of them uniform in
    /// a disc of radius 0.08 around (0.4, 0.6) and the rest uniform.
    fn planted_disc(n: usize, rng: &mut StdRng) -> Vec<Vec<f64>> {
        (0..n)
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
            .collect()
    }

    /// The cut applies where it should: on 1,000 off-grid points with a
    /// third of them in a disc of radius 0.08 and cap 200, the counting
    /// pass keeps under an eighth of the pairs (51,134 of 500,500; the cut
    /// at `2·min_p ρ_m(p)` kept 72,485), and its profile is the ball count.
    #[test]
    fn the_cut_keeps_a_planted_clusters_pairs_only() {
        let mut rng = StdRng::seed_from_u64(21);
        let domain = GridDomain::unit_cube(2, 1025).unwrap();
        let n = 1000;
        let data = Dataset::from_rows(planted_disc(n, &mut rng)).unwrap();
        let pairs = n * (n + 1) / 2;
        let (counted, kept) = count_pairs(data.points(), None, 200, &domain, 1);
        assert!(kept < pairs / 8, "kept {kept} of {pairs} pairs");
        let bc = BallCounter::new(&data, 200);
        assert_ball_count_at(&counted, &bc, &domain, pinning_quarters(&counted, &domain));
    }

    /// Past the worker split: 1,000–1,200 rows of three kinds (off-grid
    /// with a third in a small disc; on-grid with many repeated points;
    /// off-grid with a few rows holding NaN or ±∞), at caps from 1 to
    /// `n/2`, and past `n` on the grid. The profile on one worker is the
    /// profile on two, and both are the ball count at every pinning
    /// quarter. Each kind keeps more than two workers' worth of pairs at
    /// cap `n/2`, so the build does split. (Past `n` the off-grid profiles
    /// step at about ten thousand quarters, each a ball count of its own:
    /// seconds in a debug build, so only the on-grid rows take that cap.)
    #[test]
    fn large_inputs_count_the_same_on_one_worker_and_two() {
        let mut rng = StdRng::seed_from_u64(32);
        let domain = GridDomain::unit_cube(2, 1025).unwrap();
        for kind in 0..3 {
            let n = rng.gen_range(1000..=1200);
            let mut rows = planted_disc(n, &mut rng);
            for row in &mut rows {
                match kind {
                    // 24 × 24 grid points around (0.3, 0.3): about three
                    // rows per point.
                    1 => {
                        for c in row.iter_mut() {
                            *c = (300 + rng.gen_range(0..24)) as f64 / 1024.0;
                        }
                    }
                    2 if rng.gen::<f64>() < 0.05 => {
                        let odd = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
                        row[rng.gen_range(0..2)] = odd[rng.gen_range(0..3)];
                    }
                    _ => {}
                }
            }
            let data = Dataset::from_rows(rows).unwrap();
            let mut bc = BallCounter::new(&data, 1);
            let past_n = (kind == 1).then_some(n + 7);
            for cap in [1, 50, n / 4, n / 2].into_iter().chain(past_n) {
                let (one, kept) = count_pairs(data.points(), None, cap, &domain, 1);
                let (two, kept_two) = count_pairs(data.points(), None, cap, &domain, 2);
                assert_eq!(one, two, "kind {kind}, cap {cap}");
                assert_eq!(kept, kept_two, "kind {kind}, cap {cap}");
                if cap == n / 2 {
                    assert!(kept >= 2 * SPLIT_PAIRS, "kind {kind}: kept {kept}");
                }
                bc = bc.with_cap(cap);
                assert_ball_count_at(&one, &bc, &domain, pinning_quarters(&one, &domain));
            }
        }
    }
}
