//! Randomly shifted interval and box partitions.
//!
//! `GoodCenter` partitions each axis of the (projected) space into randomly
//! shifted intervals of a fixed length (step 3a: offsets `a_i ∈ [0, 300r)`),
//! and takes the product partition into axis-aligned boxes `B_j` (step 4).
//! The same machinery is reused in the rotated-basis stage (step 9a, with
//! deterministic zero shift). The key property, used in Lemma 4.12, is that a
//! set of diameter `w` is contained in a single cell of a randomly shifted
//! partition of width `W` with probability at least `1 − w/W` per axis.
//!
//! `CellIds` is the one pass over a partition's cells: it computes every
//! point's cell and numbers the cells in order of first appearance. GoodCenter's
//! histogram and heavy-box query count over its numbers, and the projected
//! geometry backend picks its cell width and its buckets with it.

use crate::box_region::AxisAlignedBox;
use crate::dataset::Dataset;
use crate::error::GeometryError;
use crate::point::Point;
use rand::Rng;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;
use std::sync::OnceLock;

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

    /// Index of the cell containing `x`: `⌊(x − shift)/width⌋`, saturated at
    /// the ends of `i64`, and 0 when `x` is NaN. It equals
    /// `((x − shift)/width).floor() as i64` for every `x`, but calls no libm
    /// function (`floor_to_i64`).
    pub fn cell_index(&self, x: f64) -> i64 {
        floor_to_i64((x - self.shift) / self.width)
    }

    /// The half-open interval `[lo, hi)` of cell `j`.
    pub fn cell_bounds(&self, j: i64) -> (f64, f64) {
        let lo = self.shift + j as f64 * self.width;
        (lo, lo + self.width)
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
    /// one key each, so the cost is `O(n k)` regardless of how many cells the
    /// partition has (`CellIds`).
    pub fn histogram(&self, data: &Dataset) -> HashMap<Vec<i64>, usize> {
        let cells = CellIds::of(self, data.points());
        cells
            .occupancies()
            .into_iter()
            .enumerate()
            .map(|(j, count)| (cells.cell(j).to_vec(), count))
            .collect()
    }

    /// The occupancy of the fullest cell — GoodCenter's query
    /// `q(S) = max_j |f(S) ∩ B_j|` (step 5). Returns 0 for an empty dataset.
    pub fn max_cell_count(&self, data: &Dataset) -> usize {
        let cells = CellIds::of(self, data.points());
        cells.occupancies().into_iter().max().unwrap_or(0)
    }
}

/// `v.floor() as i64` for every `f64` `v`, without libm: baseline x86-64
/// has no rounding instruction, so `f64::floor` is a function call there.
/// `v as i64` truncates toward zero, saturating at both ends and mapping NaN
/// to 0. The truncation rounded up exactly when it lies above `v`, and the
/// floor is then one less, saturated at `i64::MIN` (which every `v` below
/// −2⁶³ floors to as well). Below 2⁵² in magnitude the truncation is exact
/// as an `f64`; from 2⁵² on every `f64` is an integer.
fn floor_to_i64(v: f64) -> i64 {
    let t = v as i64;
    if (t as f64) > v {
        t.saturating_sub(1)
    } else {
        t
    }
}

/// Every point's cell under a [`BoxPartition`], with the cells numbered
/// `0, 1, …` in order of first appearance.
///
/// One pass over the points: each point's cell indices are looked up in an
/// open-addressing table of cell numbers, probed linearly from a
/// multiplicative mix of the indices ([`cell_hash`]) and compared exactly,
/// so the numbers never depend on the hash. The mix is keyed once per
/// process from the standard library's random hasher keys, as a `HashMap`'s
/// SipHash is, so no input can be built in advance to collide.
///
/// Memory: 4 bytes per point numbered (its cell number), and per distinct
/// cell its `k` indices, its first point and fewer than four 4-byte table
/// slots (the table starts at 16 slots and doubles once over half full):
/// `8·k + 24` bytes. [`CellIds::number`] reuses the buffers.
#[derive(Debug, Default)]
pub(crate) struct CellIds {
    /// Point `i`'s cell number.
    ids: Vec<u32>,
    /// Cell number `j`'s first point.
    firsts: Vec<usize>,
    /// Cell number `j`'s indices: `cells[j·k..(j + 1)·k]`.
    cells: Vec<i64>,
    /// Cell numbers by slot, [`EMPTY`] where vacant; a power of two, at
    /// least twice the number of cells.
    table: Vec<u32>,
    /// The partition's dimension `k`.
    dim: usize,
}

/// A vacant slot of [`CellIds`]'s table.
const EMPTY: u32 = u32::MAX;

/// The table's size before the first cell.
const MIN_SLOTS: usize = 16;

impl CellIds {
    /// Every cell of `points` under `partition`, numbered.
    pub(crate) fn of(partition: &BoxPartition, points: &[Point]) -> Self {
        let mut cells = CellIds::default();
        cells.number(partition, points, usize::MAX);
        cells
    }

    /// Numbers the cells of `points` under `partition` in order of first
    /// appearance and returns how many there are. Once more than `limit`
    /// appear it stops and returns `limit + 1`; only the points before the
    /// first point of that cell then have numbers. `O(n·k)`.
    pub(crate) fn number(
        &mut self,
        partition: &BoxPartition,
        points: &[Point],
        limit: usize,
    ) -> usize {
        let k = partition.dim();
        self.dim = k;
        self.ids.clear();
        self.firsts.clear();
        self.cells.clear();
        self.table.clear();
        self.table.resize(MIN_SLOTS, EMPTY);
        let key = hash_key();
        let mut cell = vec![0i64; k];
        for (i, p) in points.iter().enumerate() {
            debug_assert_eq!(p.dim(), k);
            for ((index, axis), &x) in cell.iter_mut().zip(&partition.axes).zip(p.coords()) {
                *index = axis.cell_index(x);
            }
            let id = match self.find(key, &cell) {
                Ok(id) => id,
                Err(_) if self.firsts.len() == limit => return limit + 1,
                Err(slot) => self.insert(key, slot, i, &cell),
            };
            self.ids.push(id);
        }
        self.firsts.len()
    }

    /// The indices of cell number `j`.
    pub(crate) fn cell(&self, j: usize) -> &[i64] {
        &self.cells[j * self.dim..(j + 1) * self.dim]
    }

    /// Each numbered point's cell number, and each cell's first point.
    pub(crate) fn into_ids_and_firsts(self) -> (Vec<u32>, Vec<usize>) {
        (self.ids, self.firsts)
    }

    /// How many numbered points each cell holds, by cell number.
    pub(crate) fn occupancies(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.firsts.len()];
        for &id in &self.ids {
            counts[id as usize] += 1;
        }
        counts
    }

    /// The number of `cell`, or the vacant slot where it belongs. The probe
    /// starts at the top bits of the cell's hash.
    fn find(&self, key: u64, cell: &[i64]) -> Result<u32, usize> {
        let mask = self.table.len() - 1;
        let mut slot = (cell_hash(key, cell) >> (64 - self.table.len().trailing_zeros())) as usize;
        loop {
            match self.table[slot] {
                EMPTY => return Err(slot),
                id if same_cell(self.cell(id as usize), cell) => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Gives `cell`, first seen at point `first`, the next number and puts
    /// it in the vacant `slot`; doubles the table once it is over half full.
    fn insert(&mut self, key: u64, slot: usize, first: usize, cell: &[i64]) -> u32 {
        let id = u32::try_from(self.firsts.len()).expect("fewer than 2³² cells");
        self.firsts.push(first);
        self.cells.extend_from_slice(cell);
        self.table[slot] = id;
        if 2 * self.firsts.len() > self.table.len() {
            let slots = 2 * self.table.len();
            self.table.clear();
            self.table.resize(slots, EMPTY);
            for j in 0..self.firsts.len() {
                if let Err(slot) = self.find(key, self.cell(j)) {
                    self.table[slot] = j as u32;
                }
            }
        }
        id
    }
}

/// A multiplicative mix of a cell's indices, started from `key`. Its last
/// step is a multiplication, so its top bits depend on every bit of the
/// indices.
fn cell_hash(key: u64, cell: &[i64]) -> u64 {
    cell.iter().fold(key, |h, &c| {
        (h.rotate_left(5) ^ c as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    })
}

/// `a == b` for two cells of one partition, without a `memcmp` call.
fn same_cell(a: &[i64], b: &[i64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x == y)
}

/// [`cell_hash`]'s key, drawn once per process.
fn hash_key() -> u64 {
    static KEY: OnceLock<u64> = OnceLock::new();
    *KEY.get_or_init(|| RandomState::new().hash_one(0u64))
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
            if p.cell_index(10.0) != p.cell_index(11.0) {
                splits += 1;
            }
        }
        let rate = splits as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
    }

    /// Point `p`'s cell under `partition`, floored through libm.
    fn libm_cell_of(partition: &BoxPartition, p: &Point) -> Vec<i64> {
        partition
            .axes()
            .iter()
            .zip(p.coords())
            .map(|(axis, &x)| ((x - axis.shift()) / axis.width()).floor() as i64)
            .collect()
    }

    #[test]
    fn floor_without_libm_is_floor_as_i64() {
        let two = |e: i32| 2f64.powi(e);
        let mut values = vec![
            0.0,
            0.5,
            f64::NAN,
            f64::INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            two(52),
            two(53),
            two(62),
            two(63),
            two(64),
            1e300,
        ];
        for m in [1.0, 2.0, 3.0, 1e6, two(51), two(52) - 1.0, two(62), two(63)] {
            // One ulp below the integer `m`, `m` itself and one ulp above.
            values.extend([
                f64::from_bits(m.to_bits() - 1),
                m,
                f64::from_bits(m.to_bits() + 1),
            ]);
        }
        let negated: Vec<f64> = values.iter().map(|v| -v).collect();
        values.extend(negated);
        let mut rng = StdRng::seed_from_u64(33);
        values.extend((0..1_000_000).map(|_| f64::from_bits(rng.gen::<u64>())));
        for v in values {
            assert_eq!(
                floor_to_i64(v),
                v.floor() as i64,
                "{v:e} ({:#x})",
                v.to_bits()
            );
        }
    }

    #[test]
    fn box_partition_cells_and_boxes() {
        let bp = BoxPartition::aligned_cubes(2, 1.0).unwrap();
        assert_eq!(bp.dim(), 2);
        assert_eq!(bp.axes().len(), 2);
        let p = Point::new(vec![1.5, -0.5]);
        let cell = libm_cell_of(&bp, &p);
        assert_eq!(cell, vec![1, -1]);
        let bx = bp.cell_box(&cell).unwrap();
        assert!(bx.contains(&p));
        assert_eq!(bx.lower(), &[1.0, -1.0]);
        assert_eq!(bx.upper(), &[2.0, 0.0]);
        assert!(bp.cell_box(&[0]).is_err());
        assert!(BoxPartition::new(vec![]).is_err());
    }

    #[test]
    fn histogram_and_max_cell_count() {
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

        // Against one `Vec<i64>` key per point, on random data: rows on a
        // coarse grid (shared cells), anywhere, copies of earlier rows, or
        // holding a NaN or an infinite coordinate.
        let mut rng = StdRng::seed_from_u64(5);
        for case in 0..200 {
            let dim = 1 + case % 4;
            let n = rng.gen_range(0..300);
            let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n);
            for _ in 0..n {
                let mut row: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                match rng.gen_range(0..6) {
                    0 => row.iter_mut().for_each(|c| *c = (*c * 2.0).floor() / 2.0),
                    1 if !rows.is_empty() => row = rows[rng.gen_range(0..rows.len())].clone(),
                    2 => {
                        row[rng.gen_range(0..dim)] =
                            [f64::NAN, f64::INFINITY, -f64::INFINITY][case % 3]
                    }
                    _ => {}
                }
                rows.push(row);
            }
            let data = Dataset::new(rows.into_iter().map(Point::new).collect())
                .unwrap_or_else(|_| Dataset::empty(dim));
            let bp = BoxPartition::random_cubes(dim, rng.gen_range(0.05..2.0), &mut rng).unwrap();
            let mut per_point: HashMap<Vec<i64>, usize> = HashMap::new();
            for p in data.iter() {
                *per_point.entry(libm_cell_of(&bp, p)).or_insert(0) += 1;
            }
            assert_eq!(bp.histogram(&data), per_point, "case {case}");
            let fullest = per_point.values().copied().max().unwrap_or(0);
            assert_eq!(bp.max_cell_count(&data), fullest, "case {case}");
        }
    }

    #[test]
    fn cell_numbers_follow_first_appearance_and_stop_past_the_limit() {
        let bp = BoxPartition::aligned_cubes(2, 1.0).unwrap();
        let points: Vec<Point> = [[0.5, 0.5], [3.5, 0.5], [0.2, 0.9], [7.0, 7.0], [3.1, 0.0]]
            .into_iter()
            .map(|c| Point::new(c.to_vec()))
            .collect();
        let mut cells = CellIds::default();
        assert_eq!(cells.number(&bp, &points, 3), 3);
        assert_eq!(cells.ids, [0, 1, 0, 2, 1]);
        assert_eq!(cells.firsts, [0, 1, 3]);
        assert_eq!(cells.cell(2), &[7, 7]);
        assert_eq!(cells.occupancies(), vec![2, 2, 1]);
        // Past the limit it stops at the first point of the extra cell.
        assert_eq!(cells.number(&bp, &points, 2), 3);
        assert_eq!(cells.ids, [0, 1, 0]);
        assert_eq!(cells.number(&bp, &points, 1), 2);
        assert_eq!(cells.ids, [0]);
        // Enough cells to double the table several times.
        let line: Vec<Point> = (0..1000)
            .map(|i| Point::new(vec![(i % 700) as f64, 0.0]))
            .collect();
        assert_eq!(cells.number(&bp, &line, usize::MAX), 700);
        assert!(cells
            .ids
            .iter()
            .enumerate()
            .all(|(i, &id)| id as usize == i % 700));
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
