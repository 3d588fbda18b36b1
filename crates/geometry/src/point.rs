//! Points in `R^d`.
//!
//! The paper works with datasets of points in the `d`-dimensional Euclidean
//! space (identified with the unit cube quantized by the grid `X^d`). A
//! [`Point`] is a thin, owned wrapper over a `Vec<f64>` with the vector-space
//! and metric operations the algorithms need. We intentionally avoid pulling
//! in an array/tensor crate: every operation used by the paper is a dense
//! O(d) loop, and keeping the representation a plain `Vec<f64>` keeps the
//! public API dependency-free.

use std::ops::{Index, IndexMut};

/// A point (equivalently, a vector) in `R^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    coords: Vec<f64>,
}

impl Point {
    /// Creates a point from its coordinates.
    pub fn new(coords: Vec<f64>) -> Self {
        Point { coords }
    }

    /// The origin of `R^d`.
    pub fn origin(dim: usize) -> Self {
        Point {
            coords: vec![0.0; dim],
        }
    }

    /// A point with every coordinate equal to `value`.
    pub fn splat(dim: usize, value: f64) -> Self {
        Point {
            coords: vec![value; dim],
        }
    }

    /// The `i`-th standard basis vector of `R^d`, scaled by `scale`.
    pub fn unit(dim: usize, i: usize, scale: f64) -> Self {
        let mut coords = vec![0.0; dim];
        coords[i] = scale;
        Point { coords }
    }

    /// Dimension `d` of the ambient space.
    pub fn dim(&self) -> usize {
        self.coords.len()
    }

    /// Coordinates as a slice.
    pub fn coords(&self) -> &[f64] {
        &self.coords
    }

    /// Returns `true` when every coordinate is finite.
    pub fn is_finite(&self) -> bool {
        self.coords.iter().all(|c| c.is_finite())
    }

    /// Euclidean (L2) norm.
    pub fn norm(&self) -> f64 {
        self.coords.iter().map(|c| c * c).sum::<f64>().sqrt()
    }

    /// Squared Euclidean norm.
    pub fn norm_squared(&self) -> f64 {
        self.coords.iter().map(|c| c * c).sum::<f64>()
    }

    /// Euclidean distance to another point.
    ///
    /// # Panics
    /// Panics in debug builds if the dimensions differ.
    pub fn distance(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dim(), other.dim(), "distance between mismatched dims");
        self.distance_squared(other).sqrt()
    }

    /// Squared Euclidean distance to another point.
    pub fn distance_squared(&self, other: &Point) -> f64 {
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| {
                let d = a - b;
                d * d
            })
            .sum()
    }

    /// Inner product `<self, other>`.
    pub fn dot(&self, other: &Point) -> f64 {
        debug_assert_eq!(self.dim(), other.dim());
        self.coords
            .iter()
            .zip(other.coords.iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Coordinate-wise addition.
    pub fn add(&self, other: &Point) -> Point {
        debug_assert_eq!(self.dim(), other.dim());
        Point::new(
            self.coords
                .iter()
                .zip(other.coords.iter())
                .map(|(a, b)| a + b)
                .collect(),
        )
    }

    /// Coordinate-wise subtraction (`self - other`).
    pub fn sub(&self, other: &Point) -> Point {
        debug_assert_eq!(self.dim(), other.dim());
        Point::new(
            self.coords
                .iter()
                .zip(other.coords.iter())
                .map(|(a, b)| a - b)
                .collect(),
        )
    }

    /// Scalar multiplication.
    pub fn scale(&self, s: f64) -> Point {
        Point::new(self.coords.iter().map(|c| c * s).collect())
    }

    /// In-place addition of `other` scaled by `s` (`self += s * other`).
    pub fn axpy(&mut self, s: f64, other: &Point) {
        debug_assert_eq!(self.dim(), other.dim());
        for (a, b) in self.coords.iter_mut().zip(other.coords.iter()) {
            *a += s * b;
        }
    }

    /// Clamps every coordinate into `[lo, hi]`.
    pub fn clamp_coords(&self, lo: f64, hi: f64) -> Point {
        Point::new(self.coords.iter().map(|c| c.clamp(lo, hi)).collect())
    }
}

impl Index<usize> for Point {
    type Output = f64;
    fn index(&self, i: usize) -> &f64 {
        &self.coords[i]
    }
}

impl IndexMut<usize> for Point {
    fn index_mut(&mut self, i: usize) -> &mut f64 {
        &mut self.coords[i]
    }
}

impl From<Vec<f64>> for Point {
    fn from(coords: Vec<f64>) -> Self {
        Point::new(coords)
    }
}

impl From<&[f64]> for Point {
    fn from(coords: &[f64]) -> Self {
        Point::new(coords.to_vec())
    }
}

impl AsRef<[f64]> for Point {
    fn as_ref(&self) -> &[f64] {
        &self.coords
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        assert_eq!(Point::origin(3).coords(), &[0.0, 0.0, 0.0]);
        assert_eq!(Point::splat(2, 1.5).coords(), &[1.5, 1.5]);
        assert_eq!(Point::unit(3, 1, 2.0).coords(), &[0.0, 2.0, 0.0]);
    }

    #[test]
    fn norms_and_distances() {
        let a = Point::new(vec![3.0, 4.0]);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert!((a.norm_squared() - 25.0).abs() < 1e-12);

        let b = Point::new(vec![0.0, 0.0]);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        assert!((a.distance_squared(&b) - 25.0).abs() < 1e-12);
    }

    #[test]
    fn vector_space_operations() {
        let a = Point::new(vec![1.0, 2.0]);
        let b = Point::new(vec![3.0, -1.0]);
        assert_eq!(a.add(&b).coords(), &[4.0, 1.0]);
        assert_eq!(a.sub(&b).coords(), &[-2.0, 3.0]);
        assert_eq!(a.scale(2.0).coords(), &[2.0, 4.0]);
        assert!((a.dot(&b) - 1.0).abs() < 1e-12);

        let mut c = a.clone();
        c.axpy(2.0, &b);
        assert_eq!(c.coords(), &[7.0, 0.0]);
    }

    #[test]
    fn clamp_and_finiteness() {
        let a = Point::new(vec![-1.0, 0.5, 2.0]);
        assert_eq!(a.clamp_coords(0.0, 1.0).coords(), &[0.0, 0.5, 1.0]);
        assert!(a.is_finite());
        assert!(!Point::new(vec![f64::NAN]).is_finite());
        assert!(!Point::new(vec![f64::INFINITY]).is_finite());
    }

    #[test]
    fn indexing_and_conversions() {
        let mut a = Point::from(vec![1.0, 2.0]);
        a[0] = 5.0;
        assert_eq!(a[0], 5.0);
        let s: &[f64] = a.as_ref();
        assert_eq!(s, &[5.0, 2.0]);
        let b = Point::from(&[1.0, 1.0][..]);
        assert_eq!(b.dim(), 2);
    }
}
