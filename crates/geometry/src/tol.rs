//! The crate's single floating-point tolerance definition.
//!
//! Distance comparisons appear in four hot places — ball-membership counts
//! (`BallCounter::count`), breakpoint deduplication
//! (`DistanceMatrix::sorted_all_distances`), the event-grouping sweep of
//! `BallCounter::l_profile`, and the grid profile's keys, which place each
//! pair at the first quarter radius whose ball holds it ([`within_radius`])
//! — and they must all agree on when two distances are "the same".
//! Historically each site carried its own constant
//! (`r·(1+1e-12)+1e-15`, a 4-ulp dedup, and a chained group merge), so a
//! pair of distances could survive dedup as two distinct breakpoints and
//! *still* be merged into one event group by `l_profile`, making
//! `LProfile::value_at` disagree with the direct `l_value` near ties. Every
//! comparison now goes through this module, so dedup and the profile sweep
//! can never disagree about what a breakpoint is.
//!
//! One residual ambiguity is inherent to any tolerance: for a probe radius
//! `r` *itself* within the tolerance of a merged breakpoint group (closer
//! than `REL·r + ABS`, ≈ 4.5e3 ulps), the breakpoint profile answers with
//! the whole group's post-breakpoint value while a direct per-point count
//! may exclude the group's upper members. The probe and the breakpoint are
//! "the same distance" by this module's own definition, but only the
//! per-point count is a ball count: a group straddling a quarter radius can
//! move the breakpoint profile's `L` there by `t/2` between neighbouring
//! datasets, where Lemma 4.5 allows 2. What GoodRadius reads, the grid
//! profile, is the per-point count.
//!
//! The tolerance is asymmetric by design: [`within_radius`] answers "does a
//! point at distance `d` lie in the closed ball of radius `r`", inflating
//! `r` by a relative [`REL`] plus an absolute [`ABS`] to absorb the rounding
//! of an `O(d)`-term Euclidean norm. [`same_distance`] is derived from it
//! (two distances are the same iff the larger lies within the inflated
//! radius of the smaller), which is exactly what makes dedup and the
//! `l_profile` sweep consistent with membership counting.

/// Relative slack on distance comparisons (≈ 4.5e3 ulps at 1.0): large
/// enough to absorb accumulated rounding in a Euclidean norm over any
/// realistic dimension, small enough that distinct grid distances never
/// collide.
pub const REL: f64 = 1e-12;

/// Absolute slack on distance comparisons, for radii near zero where the
/// relative term vanishes.
pub const ABS: f64 = 1e-15;

/// Absolute slack for *squared*-distance comparisons (used by
/// [`Ball::contains`]); kept at its historical value, which is deliberately
/// looser than `ABS²` because squared norms accumulate error linearly in
/// the dimension.
///
/// [`Ball::contains`]: crate::ball::Ball::contains
pub const ABS_SQ: f64 = 1e-24;

/// Coarse absolute slack for the ball–ball predicate (`contains_ball`),
/// whose operands are sums of two radii and a distance.
pub const ABS_COARSE: f64 = 1e-12;

/// Whether a point at distance `d` lies within the closed ball of radius
/// `r`, up to the unified tolerance. This is THE definition every distance
/// comparison in the workspace reduces to.
#[inline]
pub fn within_radius(d: f64, r: f64) -> bool {
    d <= ball_threshold(r)
}

/// The inflated radius `r·(1+REL) + ABS`: a distance lies within the
/// closed ball of radius `r` exactly when it is at most this value. Exposed
/// so a scan can name the largest distance a ball holds (the grid
/// profile's cut) and stay bit-consistent with [`within_radius`].
#[inline]
pub fn ball_threshold(r: f64) -> f64 {
    r * (1.0 + REL) + ABS
}

/// Whether two pairwise distances are indistinguishable at the unified
/// tolerance. Symmetric, and derived from [`within_radius`] so that a pair
/// of distances kept distinct by breakpoint dedup is also kept distinct by
/// the `l_profile` sweep (and vice versa).
#[inline]
pub fn same_distance(a: f64, b: f64) -> bool {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    within_radius(hi, lo)
}

/// Whether a *squared* distance `d2` lies within a ball of *squared* radius
/// `r2` — the squared-space twin of [`within_radius`], shared by
/// `Ball::contains` and the engine's coverage scans so the two can never
/// disagree point-for-point.
#[inline]
pub fn within_radius_sq(d2: f64, r2: f64) -> bool {
    d2 <= ball_threshold_sq(r2)
}

/// The inflated squared-radius threshold `r2·(1+REL) + ABS_SQ`, exposed so
/// coverage scans can precompute it once per ball and early-exit on partial
/// squared distances while staying bit-consistent with [`within_radius_sq`].
#[inline]
pub fn ball_threshold_sq(r2: f64) -> f64 {
    r2 * (1.0 + REL) + ABS_SQ
}

/// Whether a ball of radius `outer_r` whose center is `d` away from a ball
/// of radius `inner_r` entirely contains it: `d + inner_r` must not exceed
/// `outer_r` inflated by [`REL`] plus the coarse slack [`ABS_COARSE`]
/// (ball–ball operands sum two radii and a distance, so the fine [`ABS`]
/// would be too tight). Bit-identical to the predicate `Ball::contains_ball`
/// historically inlined.
#[inline]
pub fn ball_contains_ball(d: f64, outer_r: f64, inner_r: f64) -> bool {
    d + inner_r <= outer_r * (1.0 + REL) + ABS_COARSE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn within_radius_is_closed_and_tolerant() {
        assert!(within_radius(1.0, 1.0));
        assert!(within_radius(0.0, 0.0));
        assert!(within_radius(1.0 + 5e-13, 1.0)); // inside REL
        assert!(!within_radius(1.0 + 3e-12, 1.0)); // beyond REL
        assert!(within_radius(5e-16, 0.0)); // inside ABS near zero
        assert!(!within_radius(1e-14, 0.0)); // beyond ABS near zero
    }

    #[test]
    fn same_distance_is_symmetric_and_matches_within_radius() {
        for (a, b) in [(1.0, 1.0 + 5e-13), (1.0, 1.0 + 3e-12), (0.0, 5e-16)] {
            assert_eq!(same_distance(a, b), same_distance(b, a));
            assert_eq!(same_distance(a, b), within_radius(a.max(b), a.min(b)));
        }
        assert!(same_distance(2.0, 2.0));
        assert!(!same_distance(1.0, 2.0));
    }

    #[test]
    fn ball_predicate_keeps_its_historical_form() {
        // contains: inflates the outer radius relatively + coarse slack.
        assert!(ball_contains_ball(0.5, 1.0, 0.5));
        assert!(ball_contains_ball(0.5 + 1e-13, 1.0, 0.5)); // inside slack
        assert!(!ball_contains_ball(0.5 + 1e-11, 1.0, 0.5)); // beyond slack
    }

    #[test]
    fn threshold_matches_predicate() {
        for r in [0.0, 1e-9, 0.25, 1.0, 1e6] {
            let th = ball_threshold(r);
            assert!(within_radius(th, r));
            assert!(!within_radius(f64::from_bits(th.to_bits() + 1), r));
        }
    }

    #[test]
    fn squared_threshold_matches_predicate() {
        for r2 in [0.0, 1e-9, 0.25, 1.0, 1e6] {
            let th = ball_threshold_sq(r2);
            assert!(within_radius_sq(th, r2));
            assert!(!within_radius_sq(th * (1.0 + 1e-9) + 1e-20, r2));
        }
    }
}
