//! Random orthonormal bases (Lemma 4.9).
//!
//! Step 8 of `GoodCenter` draws a random orthonormal basis `Z = (z_1,…,z_d)`
//! of `R^d`; Lemma 4.9 guarantees that, with probability `1 − β`, for every
//! pair of input points the projection of their difference on each basis
//! vector has length at most `2 √(ln(dm/β)/d) · ‖x − y‖₂`. We sample such a
//! basis by orthonormalizing a `d × d` matrix of i.i.d. Gaussians (the
//! resulting distribution is Haar on the orthogonal group up to sign, which
//! is all the lemma needs).

use crate::error::GeometryError;
use crate::linalg::Matrix;
use crate::point::Point;
use rand::Rng;

/// A (random) orthonormal basis of `R^d`.
#[derive(Debug, Clone)]
pub struct OrthonormalBasis {
    basis: Matrix, // rows are the basis vectors
}

impl OrthonormalBasis {
    /// Samples a uniformly random orthonormal basis of `R^d`.
    pub fn random<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Result<Self, GeometryError> {
        if dim == 0 {
            return Err(GeometryError::InvalidParameter(
                "basis dimension must be at least 1".into(),
            ));
        }
        // Resample in the (probability-zero, but numerically possible) event
        // of a rank deficiency.
        for _ in 0..8 {
            let mut m = Matrix::gaussian(dim, dim, rng);
            if m.gram_schmidt_rows() == dim {
                return Ok(OrthonormalBasis { basis: m });
            }
        }
        Err(GeometryError::Numerical(
            "failed to sample a full-rank Gaussian matrix".into(),
        ))
    }

    /// The identity (standard) basis; useful for tests and for the
    /// deterministic variants of GoodCenter used in diagnostics.
    pub fn identity(dim: usize) -> Self {
        let mut m = Matrix::zeros(dim, dim);
        for i in 0..dim {
            m.set(i, i, 1.0);
        }
        OrthonormalBasis { basis: m }
    }

    /// Ambient dimension `d`.
    pub fn dim(&self) -> usize {
        self.basis.rows()
    }

    /// The `i`-th basis vector.
    pub fn vector(&self, i: usize) -> Point {
        Point::new(self.basis.row(i).to_vec())
    }

    /// Projects a point onto basis vector `i` (returns the scalar coordinate
    /// `⟨p, z_i⟩`).
    pub fn project(&self, p: &Point, i: usize) -> f64 {
        self.basis
            .row(i)
            .iter()
            .zip(p.coords().iter())
            .map(|(a, b)| a * b)
            .sum()
    }

    /// Reconstructs a point from its coordinates in this basis
    /// (`Σ_i c_i z_i`).
    pub fn from_coordinates(&self, coords: &[f64]) -> Result<Point, GeometryError> {
        if coords.len() != self.dim() {
            return Err(GeometryError::DimensionMismatch {
                expected: self.dim(),
                actual: coords.len(),
            });
        }
        let mut out = Point::origin(self.dim());
        for (i, &c) in coords.iter().enumerate() {
            out.axpy(c, &self.vector(i));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// All coordinates of `p` in `basis`.
    fn coordinates(basis: &OrthonormalBasis, p: &Point) -> Vec<f64> {
        (0..basis.dim()).map(|i| basis.project(p, i)).collect()
    }

    #[test]
    fn invalid_dimension_rejected() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(OrthonormalBasis::random(0, &mut rng).is_err());
    }

    #[test]
    fn random_basis_is_orthonormal_and_preserves_norms() {
        let mut rng = StdRng::seed_from_u64(11);
        let d = 12;
        let basis = OrthonormalBasis::random(d, &mut rng).unwrap();
        assert_eq!(basis.dim(), d);
        for i in 0..d {
            for j in 0..d {
                let dot = basis.vector(i).dot(&basis.vector(j));
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((dot - expected).abs() < 1e-9);
            }
        }
        // Rotations preserve Euclidean norms.
        let p = Point::new((0..d).map(|i| (i as f64) - 3.5).collect());
        let coords = coordinates(&basis, &p);
        let rotated_norm = coords.iter().map(|c| c * c).sum::<f64>().sqrt();
        assert!((rotated_norm - p.norm()).abs() < 1e-9);
    }

    #[test]
    fn identity_basis_projection_is_the_coordinate() {
        let basis = OrthonormalBasis::identity(3);
        let p = Point::new(vec![1.0, 2.0, 3.0]);
        assert_eq!(basis.project(&p, 1), 2.0);
        assert_eq!(coordinates(&basis, &p), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn coordinates_round_trip() {
        let mut rng = StdRng::seed_from_u64(3);
        let basis = OrthonormalBasis::random(5, &mut rng).unwrap();
        let p = Point::new(vec![0.3, -2.0, 1.0, 4.0, -0.5]);
        let coords = coordinates(&basis, &p);
        let back = basis.from_coordinates(&coords).unwrap();
        assert!(back.distance(&p) < 1e-9);
        assert!(basis.from_coordinates(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn lemma_4_9_projection_bound_holds_with_margin() {
        // For random rotations, projections of a fixed difference vector onto
        // each basis direction should typically have length about
        // ‖x−y‖/√d; Lemma 4.9's bound 2√(ln(dm/β)/d)·‖x−y‖ should hold with
        // large margin for a single pair.
        let mut rng = StdRng::seed_from_u64(2024);
        let d = 64;
        let x = Point::splat(d, 1.0);
        let y = Point::origin(d);
        let diff = x.sub(&y);
        let beta: f64 = 0.01;
        let bound = 2.0 * ((d as f64 * 2.0 / beta).ln() / d as f64).sqrt() * diff.norm();
        let mut violations = 0;
        for _ in 0..20 {
            let basis = OrthonormalBasis::random(d, &mut rng).unwrap();
            for i in 0..d {
                if basis.project(&diff, i).abs() > bound {
                    violations += 1;
                }
            }
        }
        assert_eq!(
            violations, 0,
            "projection bound violated {violations} times"
        );
    }
}
