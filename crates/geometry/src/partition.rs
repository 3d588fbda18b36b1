//! Randomly shifted interval and box partitions.
//!
//! `GoodCenter` partitions each axis of the (projected) space into randomly
//! shifted intervals of a fixed length (step 3a: offsets `a_i ∈ [0, 300r)`),
//! and takes the product partition into axis-aligned boxes `B_j` (step 4).
//! The same machinery is reused in the rotated-basis stage (step 9a, with
//! deterministic zero shift). The key property, used in Lemma 4.12, is that a
//! set of diameter `w` is contained in a single cell of a randomly shifted
//! partition of width `W` with probability at least `1 − w/W` per axis.

use crate::box_region::AxisAlignedBox;
use crate::dataset::Dataset;
use crate::error::GeometryError;
use crate::point::Point;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// A partition of the real line into half-open intervals
/// `[shift + j·width, shift + (j+1)·width)`, `j ∈ Z`.
#[derive(Debug, Clone, PartialEq)]
pub struct ShiftedIntervalPartition {
    width: f64,
    shift: f64,
}

impl ShiftedIntervalPartition {
    /// Creates a partition with the given cell width and shift.
    pub fn new(width: f64, shift: f64) -> Result<Self, GeometryError> {
        if !(width.is_finite() && width > 0.0) {
            return Err(GeometryError::InvalidParameter(format!(
                "interval width must be positive and finite, got {width}"
            )));
        }
        if !shift.is_finite() {
            return Err(GeometryError::InvalidParameter(
                "interval shift must be finite".into(),
            ));
        }
        Ok(ShiftedIntervalPartition { width, shift })
    }

    /// Creates a partition with a shift drawn uniformly from `[0, width)`.
    pub fn random<R: Rng + ?Sized>(width: f64, rng: &mut R) -> Result<Self, GeometryError> {
        if !(width.is_finite() && width > 0.0) {
            return Err(GeometryError::InvalidParameter(format!(
                "interval width must be positive and finite, got {width}"
            )));
        }
        let shift = rng.gen_range(0.0..width);
        Self::new(width, shift)
    }

    /// Cell width.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// Cell shift.
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Index of the cell containing `x`.
    pub fn cell_index(&self, x: f64) -> i64 {
        ((x - self.shift) / self.width).floor() as i64
    }

    /// The half-open interval `[lo, hi)` of cell `j`.
    pub fn cell_bounds(&self, j: i64) -> (f64, f64) {
        let lo = self.shift + j as f64 * self.width;
        (lo, lo + self.width)
    }

    /// Whether two values fall in the same cell.
    pub fn same_cell(&self, x: f64, y: f64) -> bool {
        self.cell_index(x) == self.cell_index(y)
    }

    /// Probability (over a uniformly random shift) that an interval of length
    /// `span` is split by a cell boundary: `min(span/width, 1)`.
    pub fn split_probability(&self, span: f64) -> f64 {
        (span / self.width).clamp(0.0, 1.0)
    }
}

/// A product partition of `R^k` into axis-aligned boxes, one shifted interval
/// partition per axis (the `{B_j}` of GoodCenter step 4).
#[derive(Debug, Clone)]
pub struct BoxPartition {
    axes: Vec<ShiftedIntervalPartition>,
}

impl BoxPartition {
    /// Builds a box partition from per-axis interval partitions.
    pub fn new(axes: Vec<ShiftedIntervalPartition>) -> Result<Self, GeometryError> {
        if axes.is_empty() {
            return Err(GeometryError::InvalidParameter(
                "box partition needs at least one axis".into(),
            ));
        }
        Ok(BoxPartition { axes })
    }

    /// A partition of `R^dim` into cubes of side `width` with independent
    /// uniformly random per-axis shifts (GoodCenter step 3a).
    pub fn random_cubes<R: Rng + ?Sized>(
        dim: usize,
        width: f64,
        rng: &mut R,
    ) -> Result<Self, GeometryError> {
        let axes = (0..dim)
            .map(|_| ShiftedIntervalPartition::random(width, rng))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(axes)
    }

    /// A partition into axis-aligned cubes of side `width` with zero shift.
    pub fn aligned_cubes(dim: usize, width: f64) -> Result<Self, GeometryError> {
        let axes = (0..dim)
            .map(|_| ShiftedIntervalPartition::new(width, 0.0))
            .collect::<Result<Vec<_>, _>>()?;
        Self::new(axes)
    }

    /// Number of axes `k`.
    pub fn dim(&self) -> usize {
        self.axes.len()
    }

    /// The per-axis partitions.
    pub fn axes(&self) -> &[ShiftedIntervalPartition] {
        &self.axes
    }

    /// The integer index vector of the cell containing `p`.
    pub fn cell_of(&self, p: &Point) -> Vec<i64> {
        self.cells_of(std::slice::from_ref(p))
    }

    /// The axis-aligned box of a cell index vector.
    pub fn cell_box(&self, index: &[i64]) -> Result<AxisAlignedBox, GeometryError> {
        if index.len() != self.dim() {
            return Err(GeometryError::DimensionMismatch {
                expected: self.dim(),
                actual: index.len(),
            });
        }
        let mut lower = Vec::with_capacity(self.dim());
        let mut upper = Vec::with_capacity(self.dim());
        for (axis, &j) in self.axes.iter().zip(index.iter()) {
            let (lo, hi) = axis.cell_bounds(j);
            lower.push(lo);
            upper.push(hi);
        }
        AxisAlignedBox::new(lower, upper)
    }

    /// Histogram of cell occupancies: maps occupied cell indices to the number
    /// of dataset points they contain. Only non-empty cells are materialized,
    /// so the cost is `O(n k)` regardless of how many cells the partition has.
    pub fn histogram(&self, data: &Dataset) -> HashMap<Vec<i64>, usize> {
        let mut hist: HashMap<Vec<i64>, usize> = HashMap::new();
        for p in data.iter() {
            *hist.entry(self.cell_of(p)).or_insert(0) += 1;
        }
        hist
    }

    /// The cell index vectors of `points`, one after another in one buffer:
    /// point `i`'s [`BoxPartition::cell_of`] is `cells[i·k..(i + 1)·k]`.
    pub fn cells_of(&self, points: &[Point]) -> Vec<i64> {
        let mut cells = Vec::with_capacity(points.len() * self.dim());
        for p in points {
            debug_assert_eq!(p.dim(), self.dim());
            cells.extend(
                self.axes
                    .iter()
                    .zip(p.coords())
                    .map(|(axis, &c)| axis.cell_index(c)),
            );
        }
        cells
    }

    /// Number of distinct occupied cells among `points`, counted up to
    /// `limit`: once more than `limit` are seen it stops and returns
    /// `limit + 1`. `O(n k)` with one allocation for every point's cell
    /// indices ([`BoxPartition::cells_of`]), no dataset required. The
    /// projected geometry backend probes candidate cell widths with this
    /// while it searches for the finest grid whose bucket count fits its
    /// budget.
    pub fn occupied_cell_count(&self, points: &[Point], limit: usize) -> usize {
        let cells = self.cells_of(points);
        let mut seen: HashSet<&[i64]> = HashSet::new();
        for cell in cells.chunks_exact(self.dim()) {
            if seen.insert(cell) && seen.len() > limit {
                break;
            }
        }
        seen.len()
    }

    /// The occupancy of the fullest cell — GoodCenter's query
    /// `q(S) = max_j |f(S) ∩ B_j|` (step 5). Returns 0 for an empty dataset.
    pub fn max_cell_count(&self, data: &Dataset) -> usize {
        self.histogram(data).values().copied().max().unwrap_or(0)
    }

    /// The fullest cell together with its occupancy.
    pub fn heaviest_cell(&self, data: &Dataset) -> Option<(Vec<i64>, usize)> {
        self.histogram(data)
            .into_iter()
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn interval_partition_validation() {
        assert!(ShiftedIntervalPartition::new(0.0, 0.0).is_err());
        assert!(ShiftedIntervalPartition::new(-1.0, 0.0).is_err());
        assert!(ShiftedIntervalPartition::new(1.0, f64::NAN).is_err());
        let mut rng = StdRng::seed_from_u64(1);
        assert!(ShiftedIntervalPartition::random(-1.0, &mut rng).is_err());
        let p = ShiftedIntervalPartition::random(2.0, &mut rng).unwrap();
        assert!(p.shift() >= 0.0 && p.shift() < 2.0);
    }

    #[test]
    fn interval_indexing_and_bounds() {
        let p = ShiftedIntervalPartition::new(1.0, 0.25).unwrap();
        assert_eq!(p.cell_index(0.25), 0);
        assert_eq!(p.cell_index(1.2), 0);
        assert_eq!(p.cell_index(1.3), 1);
        assert_eq!(p.cell_index(0.0), -1);
        let (lo, hi) = p.cell_bounds(0);
        assert!((lo - 0.25).abs() < 1e-12);
        assert!((hi - 1.25).abs() < 1e-12);
        assert!(p.same_cell(0.3, 1.0));
        assert!(!p.same_cell(0.3, 1.3));
        assert!((p.split_probability(0.5) - 0.5).abs() < 1e-12);
        assert_eq!(p.split_probability(5.0), 1.0);
    }

    #[test]
    fn random_shift_split_probability_matches_theory() {
        // An interval of length w is split by a random partition of width W
        // with probability w/W. Check empirically: w = 1, W = 4 => 25%.
        let mut rng = StdRng::seed_from_u64(77);
        let trials = 20_000;
        let mut splits = 0;
        for _ in 0..trials {
            let p = ShiftedIntervalPartition::random(4.0, &mut rng).unwrap();
            if !p.same_cell(10.0, 11.0) {
                splits += 1;
            }
        }
        let rate = splits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn box_partition_cells_and_boxes() {
        let bp = BoxPartition::aligned_cubes(2, 1.0).unwrap();
        assert_eq!(bp.dim(), 2);
        assert_eq!(bp.axes().len(), 2);
        let p = Point::new(vec![1.5, -0.5]);
        let cell = bp.cell_of(&p);
        assert_eq!(cell, vec![1, -1]);
        let bx = bp.cell_box(&cell).unwrap();
        assert!(bx.contains(&p));
        assert_eq!(bx.lower(), &[1.0, -1.0]);
        assert_eq!(bx.upper(), &[2.0, 0.0]);
        assert!(bp.cell_box(&[0]).is_err());
        assert!(BoxPartition::new(vec![]).is_err());
    }

    #[test]
    fn histogram_and_heaviest_cell() {
        let bp = BoxPartition::aligned_cubes(2, 1.0).unwrap();
        let data = Dataset::from_rows(vec![
            vec![0.1, 0.1],
            vec![0.2, 0.3],
            vec![0.9, 0.9],
            vec![5.5, 5.5],
        ])
        .unwrap();
        let hist = bp.histogram(&data);
        assert_eq!(hist.len(), 2);
        assert_eq!(hist[&vec![0, 0]], 3);
        assert_eq!(hist[&vec![5, 5]], 1);
        assert_eq!(bp.max_cell_count(&data), 3);
        let (cell, count) = bp.heaviest_cell(&data).unwrap();
        assert_eq!(cell, vec![0, 0]);
        assert_eq!(count, 3);
    }

    #[test]
    fn cluster_lands_in_single_random_box_with_expected_probability() {
        // GoodCenter's analysis: a set of diameter w survives a random cube
        // partition of side W on all k axes with probability >= (1 - w/W)^k.
        let mut rng = StdRng::seed_from_u64(2);
        let k = 4;
        let w = 1.0;
        let side = 8.0;
        let cluster = Dataset::from_rows(
            (0..20)
                .map(|i| {
                    (0..k)
                        .map(|j| 3.0 + ((i * 7 + j) % 10) as f64 * (w / 10.0))
                        .collect()
                })
                .collect(),
        )
        .unwrap();
        let trials = 4000;
        let mut contained = 0;
        for _ in 0..trials {
            let bp = BoxPartition::random_cubes(k, side, &mut rng).unwrap();
            if bp.max_cell_count(&cluster) == cluster.len() {
                contained += 1;
            }
        }
        let rate = contained as f64 / trials as f64;
        let lower_bound = (1.0 - w / side).powi(k as i32);
        assert!(
            rate >= lower_bound - 0.05,
            "rate {rate} below theoretical bound {lower_bound}"
        );
    }
}
