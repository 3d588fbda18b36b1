//! Axis-aligned boxes (hyper-rectangles).
//!
//! `GoodCenter` repeatedly works with axis-aligned boxes: the randomly
//! shifted boxes `B_j` in the Johnson–Lindenstrauss image (steps 3–7), the
//! per-axis intervals `Î_i` in the rotated basis (step 9), and the bounding
//! box of the final candidate set whose bounding sphere `C` truncates the
//! points fed to `NoisyAVG` (step 10).

use crate::ball::Ball;
use crate::error::GeometryError;
use crate::point::Point;

/// A closed axis-aligned box `∏_i [lower_i, upper_i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisAlignedBox {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl AxisAlignedBox {
    /// Creates a box from lower/upper corner coordinates.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Result<Self, GeometryError> {
        if lower.len() != upper.len() {
            return Err(GeometryError::DimensionMismatch {
                expected: lower.len(),
                actual: upper.len(),
            });
        }
        if lower.is_empty() {
            return Err(GeometryError::InvalidParameter(
                "box must have at least one dimension".into(),
            ));
        }
        for (l, u) in lower.iter().zip(upper.iter()) {
            if !(l.is_finite() && u.is_finite()) {
                return Err(GeometryError::Numerical(
                    "box corners must be finite".into(),
                ));
            }
            if l > u {
                return Err(GeometryError::InvalidParameter(format!(
                    "box lower corner exceeds upper corner ({l} > {u})"
                )));
            }
        }
        Ok(AxisAlignedBox { lower, upper })
    }

    /// The unit cube `[0,1]^d`, which the paper identifies with `X^d`.
    pub fn unit_cube(dim: usize) -> Self {
        AxisAlignedBox {
            lower: vec![0.0; dim],
            upper: vec![1.0; dim],
        }
    }

    /// Ambient dimension.
    pub fn dim(&self) -> usize {
        self.lower.len()
    }

    /// Lower corner.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper corner.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// The center of the box.
    pub fn center(&self) -> Point {
        Point::new(
            self.lower
                .iter()
                .zip(self.upper.iter())
                .map(|(l, u)| (l + u) / 2.0)
                .collect(),
        )
    }

    /// Euclidean diameter (length of the main diagonal).
    pub fn diameter(&self) -> f64 {
        self.lower
            .iter()
            .zip(self.upper.iter())
            .map(|(l, u)| (u - l) * (u - l))
            .sum::<f64>()
            .sqrt()
    }

    /// Whether the (closed) box contains `p`.
    pub fn contains(&self, p: &Point) -> bool {
        debug_assert_eq!(p.dim(), self.dim());
        p.coords()
            .iter()
            .zip(self.lower.iter().zip(self.upper.iter()))
            .all(|(c, (l, u))| *c >= *l - 1e-12 && *c <= *u + 1e-12)
    }

    /// The smallest ball containing the box: centred at the box center with
    /// radius half the diagonal. This is the bounding sphere `C` used in
    /// step 10 of `GoodCenter` to give a *deterministic* diameter bound.
    pub fn bounding_ball(&self) -> Ball {
        Ball::new(self.center(), self.diameter() / 2.0)
            .expect("box center and diameter are finite by construction")
    }

    /// Returns the box grown by `margin` on every side (in every axis).
    pub fn expanded(&self, margin: f64) -> AxisAlignedBox {
        AxisAlignedBox {
            lower: self.lower.iter().map(|l| l - margin).collect(),
            upper: self.upper.iter().map(|u| u + margin).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(AxisAlignedBox::new(vec![0.0], vec![1.0, 2.0]).is_err());
        assert!(AxisAlignedBox::new(vec![], vec![]).is_err());
        assert!(AxisAlignedBox::new(vec![1.0], vec![0.0]).is_err());
        assert!(AxisAlignedBox::new(vec![f64::NAN], vec![1.0]).is_err());
        assert!(AxisAlignedBox::new(vec![0.0, 0.0], vec![1.0, 2.0]).is_ok());
    }

    #[test]
    fn unit_cube() {
        let c = AxisAlignedBox::unit_cube(3);
        assert_eq!(c.dim(), 3);
        assert!(c.contains(&Point::splat(3, 0.5)));
        assert!(!c.contains(&Point::splat(3, 1.5)));
    }

    #[test]
    fn geometry_quantities() {
        let b = AxisAlignedBox::new(vec![0.0, 0.0], vec![3.0, 4.0]).unwrap();
        assert_eq!(b.center().coords(), &[1.5, 2.0]);
        assert!((b.diameter() - 5.0).abs() < 1e-12);
        let ball = b.bounding_ball();
        assert!((ball.radius() - 2.5).abs() < 1e-12);
        assert!(ball.contains(&Point::new(vec![0.0, 0.0])));
        assert!(ball.contains(&Point::new(vec![3.0, 4.0])));
    }

    #[test]
    fn expansion() {
        let a = AxisAlignedBox::new(vec![0.0, 0.0], vec![2.0, 2.0]).unwrap();
        let grown = a.expanded(1.0);
        assert_eq!(grown.lower(), &[-1.0, -1.0]);
        assert_eq!(grown.upper(), &[3.0, 3.0]);
    }
}
