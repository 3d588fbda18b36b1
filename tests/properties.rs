//! Property-based tests (proptest) on the core invariants the paper's
//! analysis relies on, run against the public API only.

use privcluster::dp::util::{log_star, tower};
use privcluster::dp::PrivacyParams;
use privcluster::geometry::ball_count::BallCounter;
use privcluster::geometry::{
    smallest_ball_two_approx, AxisAlignedBox, Ball, Dataset, GridDomain, Point,
};
use proptest::prelude::*;

fn dataset_strategy(max_n: usize, dim: usize) -> impl Strategy<Value = Dataset> {
    prop::collection::vec(prop::collection::vec(0.0f64..1.0, dim..=dim), 2..max_n)
        .prop_map(|rows| Dataset::from_rows(rows).expect("rows share dimension"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 4.5: replacing one row changes L(r, ·) by at most 2, at every radius.
    #[test]
    fn l_function_has_sensitivity_two(
        data in dataset_strategy(24, 2),
        replacement in prop::collection::vec(0.0f64..1.0, 2..=2),
        row_selector in 0usize..24,
        t_selector in 1usize..10,
        radius in 0.0f64..2.0,
    ) {
        let row = row_selector % data.len();
        let t = 1 + t_selector % data.len();
        let neighbour = data.replace_row(row, Point::new(replacement)).unwrap();
        let a = BallCounter::new(&data, t).l_value(radius);
        let b = BallCounter::new(&neighbour, t).l_value(radius);
        prop_assert!((a - b).abs() <= 2.0 + 1e-9);
    }

    /// L(·, S) is non-decreasing in the radius and bounded by t.
    #[test]
    fn l_function_is_monotone_and_capped(
        data in dataset_strategy(20, 2),
        t_selector in 1usize..10,
        r1 in 0.0f64..2.0,
        r2 in 0.0f64..2.0,
    ) {
        let t = 1 + t_selector % data.len();
        let counter = BallCounter::new(&data, t);
        let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
        prop_assert!(counter.l_value(lo) <= counter.l_value(hi) + 1e-9);
        prop_assert!(counter.l_value(hi) <= t as f64 + 1e-9);
        prop_assert!(counter.l_value(lo) >= 0.0);
    }

    /// The 2-approximation really covers t points and is at most twice the
    /// radius of any ball covering t points centred anywhere we can test
    /// cheaply (here: the returned ball doubles as its own witness).
    #[test]
    fn two_approx_covers_t_points(
        data in dataset_strategy(20, 2),
        t_selector in 1usize..10,
    ) {
        let t = 1 + t_selector % data.len();
        let ball = smallest_ball_two_approx(&data, t).unwrap();
        prop_assert!(data.count_in_ball(&ball) >= t);
    }

    /// Snapping onto the grid moves a point by at most half a grid step per
    /// coordinate and is idempotent.
    #[test]
    fn grid_snapping_is_close_and_idempotent(
        coords in prop::collection::vec(-0.2f64..1.2, 3..=3),
        size_selector in 2u64..1000,
    ) {
        let domain = GridDomain::unit_cube(3, size_selector.max(2)).unwrap();
        let p = Point::new(coords);
        let snapped = domain.snap(&p);
        prop_assert!(domain.contains(&snapped));
        let resnapped = domain.snap(&snapped);
        prop_assert_eq!(resnapped.coords(), snapped.coords());
        let clamped = p.clamp_coords(0.0, 1.0);
        for j in 0..3 {
            prop_assert!((snapped[j] - clamped[j]).abs() <= domain.grid_step() / 2.0 + 1e-9);
        }
    }

    /// A box always contains its clamped points and its bounding ball
    /// contains the box's corners.
    #[test]
    fn box_clamping_and_bounding_ball(
        lower in prop::collection::vec(0.0f64..0.5, 2..=2),
        extent in prop::collection::vec(0.01f64..0.5, 2..=2),
        probe in prop::collection::vec(-1.0f64..2.0, 2..=2),
    ) {
        let upper: Vec<f64> = lower.iter().zip(extent.iter()).map(|(l, e)| l + e).collect();
        let bx = AxisAlignedBox::new(lower.clone(), upper.clone()).unwrap();
        let clamp = |(p, (l, u)): (&f64, (&f64, &f64))| p.clamp(*l, *u);
        let clamped = Point::new(probe.iter().zip(lower.iter().zip(&upper)).map(clamp).collect());
        prop_assert!(bx.contains(&clamped));
        let ball = bx.bounding_ball();
        prop_assert!(ball.contains(&Point::new(lower)));
        prop_assert!(ball.contains(&Point::new(upper)));
    }

    /// Splitting a privacy budget never exceeds it under basic composition.
    #[test]
    fn budget_splitting_is_conservative(
        eps in 0.01f64..8.0,
        delta in 1e-12f64..1e-2,
        parts in 1usize..12,
    ) {
        let budget = PrivacyParams::new(eps, delta).unwrap();
        let split = vec![budget.scale(1.0 / parts as f64).unwrap(); parts];
        let eps_sum: f64 = split.iter().map(|p| p.epsilon()).sum();
        let delta_sum: f64 = split.iter().map(|p| p.delta()).sum();
        prop_assert!(eps_sum <= eps * (1.0 + 1e-9));
        prop_assert!(delta_sum <= delta * (1.0 + 1e-9));
    }

    /// Balls scaled by 2 around any member contain the original ball
    /// (the doubling fact the 2-approximation rests on).
    #[test]
    fn doubling_fact_holds(
        center in prop::collection::vec(0.0f64..1.0, 2..=2),
        radius in 0.01f64..0.5,
        offset in prop::collection::vec(-1.0f64..1.0, 2..=2),
    ) {
        let ball = Ball::new(Point::new(center.clone()), radius).unwrap();
        // Construct a member of the ball from the offset direction.
        let off = Point::new(offset);
        let norm = off.norm();
        let member = if norm < 1e-9 {
            ball.center().clone()
        } else {
            ball.center().add(&off.scale(radius.min(norm) / norm * 0.99))
        };
        prop_assert!(ball.contains(&member));
        let doubled = Ball::new(member, 2.0 * radius).unwrap();
        prop_assert!(doubled.contains_ball(&ball));
    }

    /// tower and log_star are inverse-ish and log_star is tiny for any u64.
    #[test]
    fn log_star_is_tiny(x in 1u64..u64::MAX) {
        prop_assert!(log_star(x as f64) <= 5);
    }

    #[test]
    fn tower_inverts_log_star(j in 1u32..5) {
        prop_assert_eq!(log_star(tower(j)), j);
    }
}
