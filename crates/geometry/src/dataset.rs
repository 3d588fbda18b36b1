//! Datasets: ordered collections of points from `R^d`.
//!
//! The paper's databases `S ∈ (X^d)^n` are ordered multisets of points. A
//! [`Dataset`] stores the points and enforces that all of them share the
//! same dimension. Neighbouring datasets (differing in one row,
//! Definition 1.1) are built with [`Dataset::replace_row`], so that
//! sensitivity tests and the statistical privacy smoke tests can construct
//! neighbouring pairs conveniently.

use crate::ball::Ball;
use crate::error::GeometryError;
use crate::point::Point;

/// An ordered collection of `n` points in `R^d`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    points: Vec<Point>,
    dim: usize,
}

impl Dataset {
    /// Builds a dataset from points, checking that all dimensions agree.
    pub fn new(points: Vec<Point>) -> Result<Self, GeometryError> {
        if points.is_empty() {
            return Err(GeometryError::EmptyDataset);
        }
        let dim = points[0].dim();
        if let Some(bad) = points.iter().find(|p| p.dim() != dim) {
            return Err(GeometryError::DimensionMismatch {
                expected: dim,
                actual: bad.dim(),
            });
        }
        Ok(Dataset { points, dim })
    }

    /// Builds a dataset from raw coordinate vectors.
    pub fn from_rows(rows: Vec<Vec<f64>>) -> Result<Self, GeometryError> {
        Self::new(rows.into_iter().map(Point::new).collect())
    }

    /// An empty dataset of a declared dimension (useful as an accumulator).
    pub fn empty(dim: usize) -> Self {
        Dataset {
            points: Vec::new(),
            dim,
        }
    }

    /// Number of points `n`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the dataset has no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The points as a slice.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Returns the `i`-th point.
    pub fn point(&self, i: usize) -> &Point {
        &self.points[i]
    }

    /// Iterator over the points.
    pub fn iter(&self) -> impl Iterator<Item = &Point> {
        self.points.iter()
    }

    /// Appends a point (used by generators and aggregation pipelines).
    pub fn push(&mut self, p: Point) -> Result<(), GeometryError> {
        if p.dim() != self.dim {
            return Err(GeometryError::DimensionMismatch {
                expected: self.dim,
                actual: p.dim(),
            });
        }
        self.points.push(p);
        Ok(())
    }

    /// Returns a copy of the dataset with row `i` replaced by `p` — i.e. a
    /// neighbouring dataset in the sense of Definition 1.1.
    pub fn replace_row(&self, i: usize, p: Point) -> Result<Self, GeometryError> {
        if p.dim() != self.dim {
            return Err(GeometryError::DimensionMismatch {
                expected: self.dim,
                actual: p.dim(),
            });
        }
        if i >= self.len() {
            return Err(GeometryError::InvalidParameter(format!(
                "row index {i} out of range for dataset of size {}",
                self.len()
            )));
        }
        let mut points = self.points.clone();
        points[i] = p;
        Ok(Dataset {
            points,
            dim: self.dim,
        })
    }

    /// Subset of the dataset given by indices (order preserved, duplicates allowed).
    pub fn select(&self, indices: &[usize]) -> Dataset {
        Dataset {
            points: indices.iter().map(|&i| self.points[i].clone()).collect(),
            dim: self.dim,
        }
    }

    /// Returns the subset of points satisfying the predicate, with their
    /// original indices.
    pub fn filter_with_indices<F: Fn(&Point) -> bool>(&self, pred: F) -> (Dataset, Vec<usize>) {
        let mut pts = Vec::new();
        let mut idx = Vec::new();
        for (i, p) in self.points.iter().enumerate() {
            if pred(p) {
                pts.push(p.clone());
                idx.push(i);
            }
        }
        (
            Dataset {
                points: pts,
                dim: self.dim,
            },
            idx,
        )
    }

    /// Number of points inside `ball` — the paper's `B_r(center)`.
    pub fn count_in_ball(&self, ball: &Ball) -> usize {
        self.points.iter().filter(|p| ball.contains(p)).count()
    }

    /// Coordinate-wise (exact, non-private) mean of the points.
    pub fn mean(&self) -> Result<Point, GeometryError> {
        if self.is_empty() {
            return Err(GeometryError::EmptyDataset);
        }
        let mut acc = Point::origin(self.dim);
        for p in &self.points {
            acc.axpy(1.0, p);
        }
        Ok(acc.scale(1.0 / self.len() as f64))
    }

    /// Diameter (largest pairwise distance); `O(n^2 d)`.
    pub fn diameter(&self) -> f64 {
        let mut best = 0.0_f64;
        for i in 0..self.points.len() {
            for j in (i + 1)..self.points.len() {
                best = best.max(self.points[i].distance(&self.points[j]));
            }
        }
        best
    }

    /// Splits the dataset into `k` consecutive blocks of size `block`, dropping
    /// any remainder. Used by the sample-and-aggregate pipeline (Algorithm SA).
    pub fn chunks(&self, block: usize) -> Vec<Dataset> {
        assert!(block > 0, "block size must be positive");
        self.points
            .chunks_exact(block)
            .map(|c| Dataset {
                points: c.to_vec(),
                dim: self.dim,
            })
            .collect()
    }
}

impl<'a> IntoIterator for &'a Dataset {
    type Item = &'a Point;
    type IntoIter = std::slice::Iter<'a, Point>;
    fn into_iter(self) -> Self::IntoIter {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Dataset {
        Dataset::from_rows(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![0.0, 1.0],
            vec![5.0, 5.0],
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates_dimensions() {
        assert!(matches!(
            Dataset::new(vec![]),
            Err(GeometryError::EmptyDataset)
        ));
        let err = Dataset::from_rows(vec![vec![0.0, 0.0], vec![1.0]]);
        assert!(matches!(
            err,
            Err(GeometryError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        ));
    }

    #[test]
    fn basic_accessors() {
        let ds = sample();
        assert_eq!(ds.len(), 4);
        assert_eq!(ds.dim(), 2);
        assert!(!ds.is_empty());
        assert_eq!(ds.point(3).coords(), &[5.0, 5.0]);
        assert_eq!(ds.iter().count(), 4);
        assert_eq!((&ds).into_iter().count(), 4);
    }

    #[test]
    fn push_checks_dimension() {
        let mut ds = Dataset::empty(2);
        assert!(ds.push(Point::new(vec![1.0, 2.0])).is_ok());
        assert!(ds.push(Point::new(vec![1.0])).is_err());
        assert_eq!(ds.len(), 1);
    }

    #[test]
    fn neighbouring_semantics() {
        let ds = sample();
        let swapped = ds.replace_row(0, Point::new(vec![9.0, 9.0])).unwrap();
        assert_eq!(swapped.len(), ds.len());
        assert_eq!(swapped.point(0).coords(), &[9.0, 9.0]);
        assert_eq!(&swapped.points()[1..], &ds.points()[1..]);
        assert!(ds.replace_row(10, Point::origin(2)).is_err());
        assert!(ds.replace_row(0, Point::origin(3)).is_err());
    }

    #[test]
    fn counting_and_statistics() {
        let ds = sample();
        let ball = Ball::new(Point::new(vec![0.0, 0.0]), 1.5).unwrap();
        assert_eq!(ds.count_in_ball(&ball), 3);
        let mean = ds.mean().unwrap();
        assert!((mean[0] - 1.5).abs() < 1e-12);
        assert!((mean[1] - 1.5).abs() < 1e-12);
        assert!((ds.diameter() - Point::new(vec![5.0, 5.0]).norm()).abs() < 1e-9);
    }

    #[test]
    fn selection_and_filtering() {
        let ds = sample();
        let sel = ds.select(&[0, 3]);
        assert_eq!(sel.len(), 2);
        assert_eq!(sel.point(1).coords(), &[5.0, 5.0]);
        let (near, idx) = ds.filter_with_indices(|p| p.norm() < 2.0);
        assert_eq!(near.len(), 3);
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn chunking_for_sample_and_aggregate() {
        let ds = Dataset::from_rows((0..10).map(|i| vec![i as f64]).collect()).unwrap();
        let blocks = ds.chunks(3);
        assert_eq!(blocks.len(), 3);
        assert!(blocks.iter().all(|b| b.len() == 3));
        assert_eq!(blocks[2].point(0).coords(), &[6.0]);
    }
}
