//! The discretized domain `X^d`.
//!
//! The paper (Remark 3.3) identifies `X^d` with the real `d`-dimensional unit
//! cube quantized with grid step `1/(|X| − 1)`, and notes the results extend
//! to arbitrary axis length `L` and grid step `ℓ` by replacing `|X|` with
//! `L/ℓ`. [`GridDomain`] captures exactly that: a finite, totally ordered set
//! `X ⊆ R` of equally spaced values, raised to the power `d`.
//!
//! The domain matters for privacy in two places:
//!
//! * the candidate radii of `GoodRadius` are the half-grid values
//!   `{0, ℓ/2, 2ℓ/2, …, ⌈|X| ℓ √d⌉}` (Algorithm 1, step 4), exposed here as
//!   [`GridDomain::radius_grid_len`] / [`GridDomain::radius_from_index`];
//! * the lower bound (§5) shows the dependence on `|X|` is unavoidable, so
//!   the library refuses to work with an "infinite" (non-discretized) domain.

use crate::error::GeometryError;
use crate::point::Point;

/// A finite uniform grid domain `X^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct GridDomain {
    dim: usize,
    size: u64,
    min: f64,
    max: f64,
}

impl GridDomain {
    /// The canonical domain of the paper: the unit cube `[0,1]^d` with
    /// `|X| = size` equally spaced values per axis (grid step `1/(size−1)`).
    pub fn unit_cube(dim: usize, size: u64) -> Result<Self, GeometryError> {
        Self::new(dim, size, 0.0, 1.0)
    }

    /// A general axis range `[min, max]` with `size` grid values per axis.
    pub fn new(dim: usize, size: u64, min: f64, max: f64) -> Result<Self, GeometryError> {
        if dim == 0 {
            return Err(GeometryError::InvalidParameter(
                "domain dimension must be at least 1".into(),
            ));
        }
        if size < 2 {
            return Err(GeometryError::InvalidParameter(format!(
                "domain must have at least 2 grid values per axis, got {size}"
            )));
        }
        if !(min.is_finite() && max.is_finite()) || min >= max {
            return Err(GeometryError::InvalidParameter(format!(
                "domain axis range [{min}, {max}] is invalid"
            )));
        }
        Ok(GridDomain {
            dim,
            size,
            min,
            max,
        })
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// `|X|`: the number of grid values per axis.
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Smallest axis value.
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest axis value.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Axis length `L = max − min`.
    pub fn axis_length(&self) -> f64 {
        self.max - self.min
    }

    /// Grid step `ℓ = L / (|X| − 1)`.
    pub fn grid_step(&self) -> f64 {
        self.axis_length() / (self.size - 1) as f64
    }

    /// The largest possible distance between two domain points: `L √d`.
    pub fn diameter(&self) -> f64 {
        self.axis_length() * (self.dim as f64).sqrt()
    }

    /// Snaps a real point onto the nearest grid point of `X^d` (clamping into
    /// the axis range first).
    pub fn snap(&self, p: &Point) -> Point {
        let step = self.grid_step();
        Point::new(
            p.coords()
                .iter()
                .map(|&c| {
                    let clamped = c.clamp(self.min, self.max);
                    let idx = ((clamped - self.min) / step).round();
                    self.min + idx * step
                })
                .collect(),
        )
    }

    /// Whether `p` lies (up to floating point tolerance) on the grid.
    pub fn contains(&self, p: &Point) -> bool {
        if p.dim() != self.dim {
            return false;
        }
        let step = self.grid_step();
        p.coords().iter().all(|&c| {
            if c < self.min - 1e-9 || c > self.max + 1e-9 {
                return false;
            }
            let idx = (c - self.min) / step;
            (idx - idx.round()).abs() < 1e-6
        })
    }

    /// Number of candidate radii in `GoodRadius`'s solution set
    /// `{0, ℓ/2, 2·ℓ/2, …, ⌈L√d⌉}` (Algorithm 1, step 4 and its footnote).
    ///
    /// The grid of radii has step `ℓ/2` and spans `[0, L√d]`, hence
    /// `⌈2 L √d / ℓ⌉ + 1 = ⌈2(|X|−1)√d⌉ + 1` values.
    pub fn radius_grid_len(&self) -> u64 {
        let steps = (2.0 * (self.size - 1) as f64 * (self.dim as f64).sqrt()).ceil() as u64;
        steps + 1
    }

    /// The radius corresponding to index `i` of the radius grid: `i · ℓ/2`.
    pub fn radius_from_index(&self, i: u64) -> f64 {
        i as f64 * self.grid_step() / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validation() {
        assert!(GridDomain::unit_cube(0, 16).is_err());
        assert!(GridDomain::unit_cube(2, 1).is_err());
        assert!(GridDomain::new(2, 16, 1.0, 0.0).is_err());
        assert!(GridDomain::new(2, 16, f64::NAN, 1.0).is_err());
        assert!(GridDomain::unit_cube(2, 16).is_ok());
    }

    #[test]
    fn grid_quantities() {
        let d = GridDomain::unit_cube(4, 11).unwrap();
        assert_eq!(d.dim(), 4);
        assert_eq!(d.size(), 11);
        assert!((d.grid_step() - 0.1).abs() < 1e-12);
        assert!((d.axis_length() - 1.0).abs() < 1e-12);
        assert!((d.diameter() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn snapping_and_membership() {
        let d = GridDomain::unit_cube(2, 11).unwrap();
        let p = Point::new(vec![0.234, 1.9]);
        let s = d.snap(&p);
        assert!((s[0] - 0.2).abs() < 1e-12);
        assert!((s[1] - 1.0).abs() < 1e-12);
        assert!(d.contains(&s));
        assert!(!d.contains(&Point::new(vec![0.234, 0.5])));
        assert!(!d.contains(&Point::new(vec![0.2])));
        assert!(!d.contains(&Point::new(vec![0.2, 1.5])));
    }

    #[test]
    fn radius_grid() {
        let d = GridDomain::unit_cube(1, 11).unwrap();
        // grid step 0.1, radius step 0.05, max radius 1.0 => 21 values (0..=20)
        assert_eq!(d.radius_grid_len(), 21);
        assert!((d.radius_from_index(0) - 0.0).abs() < 1e-12);
        assert!((d.radius_from_index(20) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn general_axis_ranges_follow_remark_3_3() {
        let d = GridDomain::new(3, 101, -5.0, 5.0).unwrap();
        assert!((d.grid_step() - 0.1).abs() < 1e-12);
        assert!((d.axis_length() - 10.0).abs() < 1e-12);
        let snapped = d.snap(&Point::new(vec![-7.0, 0.04, 4.96]));
        assert!((snapped[0] + 5.0).abs() < 1e-12);
        assert!((snapped[1] - 0.0).abs() < 1e-12);
        assert!((snapped[2] - 5.0).abs() < 1e-12);
    }
}
