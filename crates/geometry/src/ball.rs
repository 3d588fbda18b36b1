//! Euclidean balls.
//!
//! The 1-cluster problem (Definition 1.2) asks for a center `c` and radius
//! `r` such that the ball of radius `r` around `c` contains at least `t − Δ`
//! input points. [`Ball`] is that output type, shared by the paper's
//! algorithm, all baselines, and the reference solvers.

use crate::error::GeometryError;
use crate::point::Point;
use crate::tol;

/// A closed Euclidean ball `{x : ‖x − center‖₂ ≤ radius}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Ball {
    center: Point,
    radius: f64,
}

impl Ball {
    /// Creates a ball; the radius must be finite and non-negative.
    pub fn new(center: Point, radius: f64) -> Result<Self, GeometryError> {
        if !radius.is_finite() || radius < 0.0 {
            return Err(GeometryError::InvalidParameter(format!(
                "ball radius must be finite and non-negative, got {radius}"
            )));
        }
        if !center.is_finite() {
            return Err(GeometryError::Numerical(
                "ball center has non-finite coordinates".into(),
            ));
        }
        Ok(Ball { center, radius })
    }

    /// The degenerate ball of radius zero around a point.
    pub fn degenerate(center: Point) -> Self {
        Ball {
            center,
            radius: 0.0,
        }
    }

    /// Ball center.
    pub fn center(&self) -> &Point {
        &self.center
    }

    /// Ball radius.
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.center.dim()
    }

    /// Whether the (closed) ball contains `p`.
    ///
    /// The unified tolerance ([`tol::within_radius_sq`]) absorbs
    /// floating-point rounding so that points lying exactly on the boundary
    /// (e.g. the support points returned by Welzl's algorithm) are counted
    /// as inside.
    pub fn contains(&self, p: &Point) -> bool {
        let d2 = self.center.distance_squared(p);
        tol::within_radius_sq(d2, self.radius * self.radius)
    }

    /// Whether this ball entirely contains `other`
    /// ([`tol::ball_contains_ball`] at the unified coarse tolerance).
    // privlint::allow(unused-pub): the predicate the facade's property test `doubling_fact_holds` states the paper's doubling fact with
    pub fn contains_ball(&self, other: &Ball) -> bool {
        tol::ball_contains_ball(
            self.center.distance(&other.center),
            self.radius,
            other.radius,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_radius() {
        assert!(Ball::new(Point::origin(2), -1.0).is_err());
        assert!(Ball::new(Point::origin(2), f64::NAN).is_err());
        assert!(Ball::new(Point::new(vec![f64::NAN]), 1.0).is_err());
        let b = Ball::new(Point::origin(2), 2.0).unwrap();
        assert_eq!(b.radius(), 2.0);
        assert_eq!(b.dim(), 2);
    }

    #[test]
    fn containment_is_closed_with_tolerance() {
        let b = Ball::new(Point::origin(2), 1.0).unwrap();
        assert!(b.contains(&Point::new(vec![1.0, 0.0])));
        assert!(b.contains(&Point::new(vec![0.5, 0.5])));
        assert!(!b.contains(&Point::new(vec![1.0, 0.1])));
        let d = Ball::degenerate(Point::new(vec![3.0]));
        assert!(d.contains(&Point::new(vec![3.0])));
        assert!(!d.contains(&Point::new(vec![3.0001])));
    }

    #[test]
    fn ball_ball_relations() {
        let big = Ball::new(Point::origin(2), 10.0).unwrap();
        let small = Ball::new(Point::new(vec![3.0, 0.0]), 2.0).unwrap();
        let far = Ball::new(Point::new(vec![20.0, 0.0]), 1.0).unwrap();
        assert!(big.contains_ball(&small));
        assert!(!small.contains_ball(&big));
        assert!(!big.contains_ball(&far));
    }

    #[test]
    fn doubling_a_ball_around_any_member_covers_it() {
        // The paper's fact 3 (§3): a ball of radius 2r around any point of a
        // radius-r ball B contains all of B.
        let b = Ball::new(Point::new(vec![1.0, 1.0]), 1.0).unwrap();
        let member = Point::new(vec![1.7, 1.7]); // inside b
        assert!(b.contains(&member));
        let doubled = Ball::new(member, 2.0).unwrap();
        assert!(doubled.contains_ball(&b));
    }
}
