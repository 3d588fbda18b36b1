//! The Johnson–Lindenstrauss transform (Lemma 4.10).
//!
//! `GoodCenter` projects the input points from `R^d` into `R^k` with
//! `k = 46·log(2n/β)` using the map `f(x) = (1/√k) A x`, where `A` is a
//! `k × d` matrix of i.i.d. standard Gaussians. Lemma 4.10 guarantees that,
//! with probability at least `1 − 2n² exp(−η²k/8)`, all pairwise squared
//! distances are preserved up to a factor `1 ± η`.

use crate::dataset::Dataset;
use crate::error::GeometryError;
use crate::linalg::Matrix;
use crate::point::Point;
use rand::Rng;

/// A sampled Johnson–Lindenstrauss projection `R^d → R^k`.
#[derive(Debug, Clone)]
pub struct JlTransform {
    /// The already-scaled projection matrix `(1/√k) A`.
    matrix: Matrix,
    input_dim: usize,
    output_dim: usize,
}

impl JlTransform {
    /// Samples a JL transform from `R^{input_dim}` to `R^{output_dim}`.
    pub fn sample<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        rng: &mut R,
    ) -> Result<Self, GeometryError> {
        if input_dim == 0 || output_dim == 0 {
            return Err(GeometryError::InvalidParameter(
                "JL dimensions must be positive".into(),
            ));
        }
        let mut matrix = Matrix::gaussian(output_dim, input_dim, rng);
        matrix.scale_in_place(1.0 / (output_dim as f64).sqrt());
        Ok(JlTransform {
            matrix,
            input_dim,
            output_dim,
        })
    }

    /// The identity embedding (used when the target dimension is at least the
    /// source dimension, where projecting would only lose information).
    pub fn identity(dim: usize) -> Self {
        let mut matrix = Matrix::zeros(dim, dim);
        for i in 0..dim {
            matrix.set(i, i, 1.0);
        }
        JlTransform {
            matrix,
            input_dim: dim,
            output_dim: dim,
        }
    }

    /// The sub-quadratic backend's target dimension, `k = ⌈8 ln(n + 2)⌉`
    /// capped at the source dimension. Deliberately smaller than the
    /// paper's choice `⌈46 ln(2n/β)⌉` — and
    /// deliberately **below** what Lemma 4.10 needs for a vanishing
    /// failure bound (at η = 1/2 the lemma gives `2n² e^{−k/32}`, which
    /// only drops below `n^{−1/2}` for `k ≳ 80 ln n`). At this `k` the
    /// distortion control is heuristic; the backend's *binding* accuracy
    /// contract is its explicit additive slack in projected space (see the
    /// backend module's approximation-contract docs), not a JL guarantee.
    /// Callers who need Lemma 4.10's bound should set
    /// `ProjectedConfig::target_dim` explicitly (e.g. to the paper's
    /// `⌈46 ln(2n/β)⌉`) and pay the larger build.
    pub fn backend_target_dim(n: usize, source_dim: usize) -> usize {
        let k = (8.0 * ((n + 2) as f64).ln()).ceil() as usize;
        k.clamp(1, source_dim.max(1))
    }

    /// Source dimension `d`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Target dimension `k`.
    pub fn output_dim(&self) -> usize {
        self.output_dim
    }

    /// Projects a single point.
    pub fn project(&self, p: &Point) -> Result<Point, GeometryError> {
        Ok(Point::new(self.matrix.matvec(p.coords())?))
    }

    /// Projects every point of a dataset.
    pub fn project_dataset(&self, data: &Dataset) -> Result<Dataset, GeometryError> {
        let mut projected = Vec::with_capacity(data.len());
        for p in data.iter() {
            projected.push(self.project(p)?);
        }
        Dataset::new(projected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dimension_validation() {
        let mut rng = StdRng::seed_from_u64(1);
        assert!(JlTransform::sample(0, 4, &mut rng).is_err());
        assert!(JlTransform::sample(4, 0, &mut rng).is_err());
        let t = JlTransform::sample(10, 4, &mut rng).unwrap();
        assert_eq!(t.input_dim(), 10);
        assert_eq!(t.output_dim(), 4);
        assert!(t.project(&Point::origin(3)).is_err());
    }

    #[test]
    fn identity_transform_is_exact() {
        let t = JlTransform::identity(3);
        let p = Point::new(vec![1.0, -2.0, 0.5]);
        assert_eq!(t.project(&p).unwrap(), p);
    }

    #[test]
    fn distances_preserved_within_constant_factor() {
        // The paper uses η = 1/2, i.e. distances preserved within ×(1 ± 1/2)
        // on the squared scale. With k = 256 and 20 points this holds with
        // overwhelming probability.
        let mut rng = StdRng::seed_from_u64(99);
        let d = 512;
        let k = 256;
        let n = 20;
        let data = Dataset::from_rows(
            (0..n)
                .map(|_| {
                    (0..d)
                        .map(|_| crate::linalg::standard_normal(&mut rng))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let t = JlTransform::sample(d, k, &mut rng).unwrap();
        let proj = t.project_dataset(&data).unwrap();
        for i in 0..n {
            for j in (i + 1)..n {
                let orig = data.point(i).distance_squared(data.point(j));
                let new = proj.point(i).distance_squared(proj.point(j));
                let ratio = new / orig;
                assert!(
                    ratio > 0.5 && ratio < 1.5,
                    "pair ({i},{j}) distorted by {ratio}"
                );
            }
        }
    }

    #[test]
    fn expected_squared_norm_is_preserved() {
        // E‖f(x)‖² = ‖x‖², check empirically over many fresh transforms.
        let mut rng = StdRng::seed_from_u64(123);
        let x = Point::splat(64, 1.0);
        let mut acc = 0.0;
        let trials = 300;
        for _ in 0..trials {
            let t = JlTransform::sample(64, 16, &mut rng).unwrap();
            acc += t.project(&x).unwrap().norm_squared();
        }
        let mean = acc / trials as f64;
        let expected = x.norm_squared();
        assert!(
            (mean - expected).abs() / expected < 0.1,
            "mean {mean} vs expected {expected}"
        );
    }
}
