//! The interior-point problem (Definition 5.1).
//!
//! An algorithm solves the interior-point problem on a totally ordered domain
//! `X` if, given a database `D ∈ X^n`, it outputs a value `x` with
//! `min D ≤ x ≤ max D` (the output need not be a member of `D`). Privately
//! solving it requires `n ≥ Ω(log*|X|)` (Theorem 5.2, \[BNSV15\]); Algorithm 3
//! reduces it to the 1-cluster problem, which is how the paper shows the
//! 1-cluster dependence on `|X|` is unavoidable.

use privcluster_geometry::Dataset;

/// A 1-dimensional interior-point instance over a grid `X`.
#[derive(Debug, Clone)]
pub struct InteriorPointInstance {
    /// The database (1-dimensional points, values in `[0, 1]`).
    pub data: Dataset,
    /// The true minimum of the database.
    pub min: f64,
    /// The true maximum of the database.
    pub max: f64,
}

impl InteriorPointInstance {
    /// Wraps a 1-dimensional dataset.
    pub fn new(data: Dataset) -> Self {
        assert_eq!(data.dim(), 1, "interior-point instances are 1-dimensional");
        assert!(!data.is_empty(), "instance must be non-empty");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for p in data.iter() {
            min = min.min(p[0]);
            max = max.max(p[0]);
        }
        InteriorPointInstance { data, min, max }
    }

    /// A "two far camps" hard-ish instance: half the points at `lo`, half at
    /// `hi`. Any interior point must fall between the camps, so blatantly
    /// non-private strategies (like outputting a fixed quantile of a few
    /// records) are easy to audit against.
    // privlint::allow(unused-pub): the facade surface `tests/prelude_surface.rs` pins
    pub fn two_camps(n: usize, lo: f64, hi: f64) -> Self {
        assert!(n >= 2 && lo < hi);
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            rows.push(vec![if i % 2 == 0 { lo } else { hi }]);
        }
        Self::new(Dataset::from_rows(rows).expect("1-d rows"))
    }

    /// Whether `x` solves the instance.
    pub fn solved_by(&self, x: f64) -> bool {
        is_interior_point(&self.data, x)
    }
}

/// Whether `x` is an interior point of the (1-dimensional) database.
pub fn is_interior_point(data: &Dataset, x: f64) -> bool {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for p in data.iter() {
        min = min.min(p[0]);
        max = max.max(p[0]);
    }
    (min..=max).contains(&x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interior_point_checks() {
        let data = Dataset::from_rows(vec![vec![0.2], vec![0.8], vec![0.5]]).unwrap();
        assert!(is_interior_point(&data, 0.2));
        assert!(is_interior_point(&data, 0.5));
        assert!(is_interior_point(&data, 0.8));
        assert!(!is_interior_point(&data, 0.1));
        assert!(!is_interior_point(&data, 0.9));
    }

    #[test]
    fn two_camps_instance() {
        let inst = InteriorPointInstance::two_camps(10, 0.1, 0.9);
        assert_eq!(inst.data.len(), 10);
        assert_eq!(inst.min, 0.1);
        assert_eq!(inst.max, 0.9);
        assert!(inst.solved_by(0.5));
        assert!(!inst.solved_by(0.05));
    }

    #[test]
    #[should_panic(expected = "1-dimensional")]
    fn rejects_multidimensional_data() {
        let data = Dataset::from_rows(vec![vec![0.0, 0.0]]).unwrap();
        let _ = InteriorPointInstance::new(data);
    }
}
