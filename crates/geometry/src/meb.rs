//! Reference minimum-enclosing-ball solvers.
//!
//! These are the *non-private* references the paper measures against:
//!
//! * [`welzl_meb`] — Welzl's randomized algorithm for the minimum enclosing
//!   ball of *all* points (expected linear time for fixed dimension);
//! * [`smallest_ball_two_approx`] — the folklore 2-approximation for the
//!   smallest ball containing at least `t` points (§3, fact 3: only consider
//!   balls centred at input points);
//! * [`exhaustive_smallest_ball`] — an exact solver that enumerates every
//!   support set of at most `d + 1` points (the optimum is the minimum
//!   enclosing ball of the `t` points it covers, and such a ball is
//!   determined by at most `d + 1` of them). Exponential in `d`; intended
//!   for ground truth `r_opt` in tests and experiments at small scale, since
//!   the exact problem is NP-hard in general (§3, fact 1);
//! * [`smallest_interval_1d`] — the exact solution in dimension 1 by a
//!   sliding window over sorted values.

use crate::ball::Ball;
use crate::dataset::Dataset;
use crate::error::GeometryError;
use crate::point::Point;
use rand::seq::SliceRandom;
use rand::Rng;

/// Solves the small linear system `A x = b` by Gaussian elimination with
/// partial pivoting. Returns `None` when the system is (numerically)
/// singular.
fn solve_linear(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    for col in 0..n {
        // pivot
        let pivot = (col..n).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        for row in (col + 1)..n {
            let (pivot_rows, rest) = a.split_at_mut(row);
            let pivot_row = &pivot_rows[col];
            let target = &mut rest[0];
            let factor = target[col] / pivot_row[col];
            for (t, p) in target[col..].iter_mut().zip(&pivot_row[col..]) {
                *t -= factor * p;
            }
            b[row] -= factor * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in (row + 1)..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// The smallest ball having all of `support` on its boundary (the
/// circumsphere of the affinely independent support set), or `None` when the
/// support points are affinely dependent.
fn ball_from_support(support: &[Point]) -> Option<Ball> {
    match support.len() {
        0 => None,
        1 => Some(Ball::degenerate(support[0].clone())),
        _ => {
            let p0 = &support[0];
            let k = support.len() - 1;
            // center = p0 + sum_i lambda_i (p_i - p0); equidistance gives the
            // linear system  2 <p_i - p0, c - p0> = |p_i - p0|^2.
            let diffs: Vec<Point> = support[1..].iter().map(|p| p.sub(p0)).collect();
            let mut a = vec![vec![0.0; k]; k];
            let mut b = vec![0.0; k];
            for i in 0..k {
                for j in 0..k {
                    a[i][j] = 2.0 * diffs[i].dot(&diffs[j]);
                }
                b[i] = diffs[i].norm_squared();
            }
            let lambda = solve_linear(a, b)?;
            let mut center = p0.clone();
            for (l, d) in lambda.iter().zip(diffs.iter()) {
                center.axpy(*l, d);
            }
            let radius = center.distance(p0);
            Ball::new(center, radius).ok()
        }
    }
}

/// Minimum enclosing ball of a set of points that must all lie on the
/// boundary or inside, given a boundary (support) set. Recursive part of
/// Welzl's algorithm.
fn welzl_recurse(points: &mut Vec<Point>, support: &mut Vec<Point>, n: usize, dim: usize) -> Ball {
    if n == 0 || support.len() == dim + 1 {
        return ball_from_support(support).unwrap_or_else(|| Ball::degenerate(Point::origin(dim)));
    }
    let p = points[n - 1].clone();
    let ball = welzl_recurse(points, support, n - 1, dim);
    if ball.contains(&p) && !(support.is_empty() && n == 1) {
        return ball;
    }
    // p must be on the boundary of the minimum enclosing ball of the first n.
    support.push(p);
    let ball = welzl_recurse(points, support, n - 1, dim);
    support.pop();
    ball
}

/// Welzl's minimum enclosing ball of **all** points of the dataset.
///
/// Expected `O(n)` time for fixed dimension after a random shuffle; the
/// recursion depth is bounded by `n`, so keep `n` moderate (≲ 10⁵).
pub fn welzl_meb<R: Rng + ?Sized>(data: &Dataset, rng: &mut R) -> Result<Ball, GeometryError> {
    if data.is_empty() {
        return Err(GeometryError::EmptyDataset);
    }
    let mut pts: Vec<Point> = data.points().to_vec();
    pts.shuffle(rng);
    let n = pts.len();
    let dim = data.dim();
    let mut support = Vec::new();
    let ball = welzl_recurse(&mut pts, &mut support, n, dim);
    // Guard against numerical underestimation: inflate to cover everything.
    let max_dist = data
        .iter()
        .map(|p| ball.center().distance(p))
        .fold(0.0_f64, f64::max);
    Ball::new(ball.center().clone(), max_dist.max(ball.radius()))
}

/// The folklore 2-approximation for the smallest ball containing at least `t`
/// points: restrict centres to input points (§3, fact 3). Returns the best
/// such ball: the input point whose `t`-th nearest point (itself first) is
/// closest, the lowest index winning ties, with that distance as radius:
/// position `t − 1` of the point's distances sorted by `total_cmp`, bit for
/// bit. Each point's `t`-th smallest distance is selected in one reused
/// buffer of `n` distances: `O(n² d)` expected time and `O(n)` extra
/// memory.
pub fn smallest_ball_two_approx(data: &Dataset, t: usize) -> Result<Ball, GeometryError> {
    if data.is_empty() {
        return Err(GeometryError::EmptyDataset);
    }
    if t == 0 || t > data.len() {
        return Err(GeometryError::InvalidParameter(format!(
            "t must satisfy 1 <= t <= n (t = {t}, n = {})",
            data.len()
        )));
    }
    let (center_idx, radius) = two_approx_center(data.points(), t);
    Ball::new(data.point(center_idx).clone(), radius)
}

/// The centre index and radius of [`smallest_ball_two_approx`], for
/// non-empty `pts` and `1 ≤ t ≤ n`.
fn two_approx_center(pts: &[Point], t: usize) -> (usize, f64) {
    let mut row = vec![0.0f64; pts.len()];
    let mut best: Option<(usize, f64)> = None;
    for (i, p) in pts.iter().enumerate() {
        for (slot, q) in row.iter_mut().zip(pts) {
            *slot = p.distance(q);
        }
        // Under `total_cmp` the t-th smallest value has one bit pattern, so
        // selecting it matches reading position t − 1 of the sorted row.
        let (_, &mut r, _) = row.select_nth_unstable_by(t - 1, f64::total_cmp);
        if best.is_none_or(|(_, br)| r < br) {
            best = Some((i, r));
        }
    }
    best.expect("pts is non-empty")
}

/// Exact smallest ball containing at least `t` points, by enumerating all
/// candidate support sets of size at most `d + 1`.
///
/// The optimal ball is the minimum enclosing ball of the `t` points it
/// contains, and a minimum enclosing ball is determined by at most `d + 1`
/// points on its boundary — so enumerating `O(n^{d+1})` support sets finds
/// the optimum. This is exponential in the dimension and is meant only for
/// producing ground-truth `r_opt` on small instances (the problem is NP-hard
/// in general).
// privlint::allow(unused-pub): the exact optimum the baselines' and this crate's tests compare the approximations against
pub fn exhaustive_smallest_ball(data: &Dataset, t: usize) -> Result<Ball, GeometryError> {
    if data.is_empty() {
        return Err(GeometryError::EmptyDataset);
    }
    let n = data.len();
    if t == 0 || t > n {
        return Err(GeometryError::InvalidParameter(format!(
            "t must satisfy 1 <= t <= n (t = {t}, n = {n})"
        )));
    }
    let dim = data.dim();
    let max_support = (dim + 1).min(n);

    let mut best: Option<Ball> = None;
    let mut consider = |ball: Ball| {
        if data.count_in_ball(&ball) >= t
            && best
                .as_ref()
                // privlint::allow(raw-distance-compare): strict ordering of two candidate
                // MEB radii ("is this ball smaller"), not a membership predicate; a
                // tolerance here would make "strictly smaller" ambiguous at ties.
                .map(|b| ball.radius() < b.radius())
                .unwrap_or(true)
        {
            best = Some(ball);
        }
    };

    // Enumerate support subsets of sizes 1..=max_support via an index-vector
    // odometer (sizes are tiny: at most d+1).
    let mut indices: Vec<usize> = Vec::new();
    fn enumerate(
        data: &Dataset,
        size: usize,
        start: usize,
        indices: &mut Vec<usize>,
        consider: &mut dyn FnMut(Ball),
    ) {
        if indices.len() == size {
            let support: Vec<Point> = indices.iter().map(|&i| data.point(i).clone()).collect();
            if let Some(ball) = ball_from_support(&support) {
                consider(ball);
            }
            return;
        }
        for i in start..data.len() {
            indices.push(i);
            enumerate(data, size, i + 1, indices, consider);
            indices.pop();
        }
    }
    for size in 1..=max_support {
        enumerate(data, size, 0, &mut indices, &mut consider);
    }

    best.ok_or_else(|| {
        GeometryError::Numerical("no candidate ball covered t points (unexpected)".into())
    })
}

/// Exact smallest interval (as a 1-D ball: center + radius) containing at
/// least `t` points of a one-dimensional dataset. `O(n log n)`.
// privlint::allow(unused-pub): the exact 1-D optimum the threshold-release baseline's tests compare against
pub fn smallest_interval_1d(data: &Dataset, t: usize) -> Result<Ball, GeometryError> {
    if data.dim() != 1 {
        return Err(GeometryError::DimensionMismatch {
            expected: 1,
            actual: data.dim(),
        });
    }
    if data.is_empty() {
        return Err(GeometryError::EmptyDataset);
    }
    let n = data.len();
    if t == 0 || t > n {
        return Err(GeometryError::InvalidParameter(format!(
            "t must satisfy 1 <= t <= n (t = {t}, n = {n})"
        )));
    }
    let mut xs: Vec<f64> = data.iter().map(|p| p[0]).collect();
    xs.sort_by(f64::total_cmp);
    let mut best_lo = 0usize;
    let mut best_len = f64::INFINITY;
    for lo in 0..=(n - t) {
        let len = xs[lo + t - 1] - xs[lo];
        if len < best_len {
            best_len = len;
            best_lo = lo;
        }
    }
    let center = (xs[best_lo] + xs[best_lo + t - 1]) / 2.0;
    Ball::new(Point::new(vec![center]), best_len / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn ball_from_support_simple_cases() {
        assert!(ball_from_support(&[]).is_none());
        let single = ball_from_support(&[Point::new(vec![2.0, 3.0])]).unwrap();
        assert_eq!(single.radius(), 0.0);
        let pair =
            ball_from_support(&[Point::new(vec![0.0, 0.0]), Point::new(vec![2.0, 0.0])]).unwrap();
        assert!((pair.radius() - 1.0).abs() < 1e-9);
        assert!((pair.center()[0] - 1.0).abs() < 1e-9);
        // Equilateral-ish triangle circumcircle.
        let tri = ball_from_support(&[
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![2.0, 0.0]),
            Point::new(vec![1.0, 1.0]),
        ])
        .unwrap();
        for p in [
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![2.0, 0.0]),
            Point::new(vec![1.0, 1.0]),
        ] {
            assert!((tri.center().distance(&p) - tri.radius()).abs() < 1e-9);
        }
        // Degenerate (collinear triple) has no circumsphere in the plane.
        assert!(ball_from_support(&[
            Point::new(vec![0.0, 0.0]),
            Point::new(vec![1.0, 0.0]),
            Point::new(vec![2.0, 0.0]),
        ])
        .is_none());
    }

    #[test]
    fn welzl_covers_all_points_and_is_tight() {
        let mut rng = StdRng::seed_from_u64(4);
        let data = Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![2.0, 0.0],
            vec![1.0, 1.0],
            vec![1.0, 0.2],
            vec![0.5, 0.5],
        ])
        .unwrap();
        let ball = welzl_meb(&data, &mut rng).unwrap();
        for p in data.iter() {
            assert!(ball.contains(p));
        }
        // The diametral pair (0,0)-(2,0) forces radius >= 1; the true MEB here
        // is the circumcircle through (0,0),(2,0),(1,1) with radius 1.
        assert!(ball.radius() >= 1.0 - 1e-9);
        assert!(ball.radius() <= 1.0 + 1e-6, "radius = {}", ball.radius());
        assert!(welzl_meb(&Dataset::empty(2), &mut rng).is_err());
    }

    #[test]
    fn welzl_on_random_points_matches_farthest_point_lower_bound() {
        let mut rng = StdRng::seed_from_u64(9);
        let data = Dataset::from_rows(
            (0..200)
                .map(|_| (0..3).map(|_| rng.gen_range(-1.0..1.0)).collect())
                .collect(),
        )
        .unwrap();
        let ball = welzl_meb(&data, &mut rng).unwrap();
        for p in data.iter() {
            assert!(ball.contains(p));
        }
        // radius can never be larger than half the diameter times sqrt(d/(2(d+1)))⁻¹… keep a
        // simple sanity bound: radius <= diameter.
        assert!(ball.radius() <= data.diameter());
        assert!(ball.radius() >= data.diameter() / 2.0 - 1e-9);
    }

    #[test]
    fn two_approx_is_within_factor_two_of_exact() {
        let data = Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![1.0, 1.0],
            vec![10.0, 10.0],
        ])
        .unwrap();
        let t = 4;
        let exact = exhaustive_smallest_ball(&data, t).unwrap();
        let approx = smallest_ball_two_approx(&data, t).unwrap();
        assert!(data.count_in_ball(&exact) >= t);
        assert!(data.count_in_ball(&approx) >= t);
        assert!(approx.radius() <= 2.0 * exact.radius() + 1e-9);
        assert!(exact.radius() <= approx.radius() + 1e-9);
        // Exact optimum for the unit square is radius sqrt(2)/2.
        assert!((exact.radius() - (0.5_f64).sqrt()).abs() < 1e-6);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// Selecting each point's t-th distance in one buffer reproduces
        /// the ball read off the sorted rows bit for bit, ties included.
        #[test]
        fn two_approx_matches_the_sorted_rows_bit_for_bit(
            data in crate::ball_count::tests::tie_heavy_dataset(),
            pick in 0usize..64,
        ) {
            let t = 1 + pick % data.len();
            let (center, radius) = two_approx_center(data.points(), t);
            // Each point's sorted row, read at position t − 1; the first
            // strictly smaller radius wins.
            let mut best: Option<(usize, f64)> = None;
            for (i, p) in data.iter().enumerate() {
                let mut row: Vec<f64> = data.iter().map(|q| p.distance(q)).collect();
                row.sort_by(f64::total_cmp);
                if best.is_none_or(|(_, r)| row[t - 1] < r) {
                    best = Some((i, row[t - 1]));
                }
            }
            let (ref_center, ref_radius) = best.unwrap();
            proptest::prop_assert_eq!(center, ref_center);
            proptest::prop_assert_eq!(radius.to_bits(), ref_radius.to_bits());
            let ball = smallest_ball_two_approx(&data, t).unwrap();
            proptest::prop_assert_eq!(ball.radius().to_bits(), ref_radius.to_bits());
        }
    }

    #[test]
    fn parameter_validation() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![1.0]]).unwrap();
        assert!(smallest_ball_two_approx(&data, 0).is_err());
        assert!(smallest_ball_two_approx(&data, 3).is_err());
        assert!(exhaustive_smallest_ball(&data, 0).is_err());
        assert!(exhaustive_smallest_ball(&data, 3).is_err());
        assert!(smallest_interval_1d(&data, 0).is_err());
        assert!(smallest_interval_1d(&data, 3).is_err());
        let d2 = Dataset::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        assert!(smallest_interval_1d(&d2, 1).is_err());
    }

    #[test]
    fn smallest_interval_1d_exact() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![0.1], vec![0.2], vec![5.0], vec![5.05]])
            .unwrap();
        let b3 = smallest_interval_1d(&data, 3).unwrap();
        assert!((b3.radius() - 0.1).abs() < 1e-12);
        assert!((b3.center()[0] - 0.1).abs() < 1e-12);
        let b2 = smallest_interval_1d(&data, 2).unwrap();
        assert!((b2.radius() - 0.025).abs() < 1e-12);
        // Degenerate: t = 1 is a single point, radius 0.
        let b1 = smallest_interval_1d(&data, 1).unwrap();
        assert_eq!(b1.radius(), 0.0);
    }

    #[test]
    fn exhaustive_matches_1d_exact_solver() {
        let data = Dataset::from_rows(vec![vec![0.0], vec![0.3], vec![0.35], vec![2.0], vec![2.2]])
            .unwrap();
        for t in 1..=5 {
            let a = exhaustive_smallest_ball(&data, t).unwrap();
            let b = smallest_interval_1d(&data, t).unwrap();
            assert!(
                (a.radius() - b.radius()).abs() < 1e-9,
                "t={t}: {} vs {}",
                a.radius(),
                b.radius()
            );
        }
    }
}
