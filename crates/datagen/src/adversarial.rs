//! Adversarial and illustrative instances from the paper's own text.

use privcluster_geometry::{Dataset, Point};

/// The sensitivity example of §3.1: the unit vector `e₁` together with `t/2`
/// copies of the origin and `t/2` copies of `2·e₁`, embedded in `R^dim`.
/// Replacing the single `e₁` by another copy of `2·e₁` changes the naive
/// max-count score by `Ω(t)`, which is why GoodRadius averages the `t`
/// largest counts instead.
///
/// Returns the dataset and its neighbour (differing only in that first row).
// privlint::allow(unused-pub): the paper's §3.1 instance the GoodRadius sensitivity tests compare neighbours on
pub fn sensitivity_example(t: usize, dim: usize) -> (Dataset, Dataset) {
    assert!(t >= 2, "the example needs t >= 2");
    assert!(dim >= 1, "dimension must be at least 1");
    let e1 = Point::unit(dim, 0, 1.0);
    let two_e1 = Point::unit(dim, 0, 2.0);
    let zero = Point::origin(dim);
    let mut rows = vec![e1];
    rows.extend(std::iter::repeat_n(zero, t / 2));
    rows.extend(std::iter::repeat_n(two_e1.clone(), t / 2));
    let original = Dataset::new(rows).expect("rows share dimension");
    let neighbour = original
        .replace_row(0, two_e1)
        .expect("row 0 exists and dimensions match");
    (original, neighbour)
}

/// The Figure-1 instance: two clusters placed so that the per-axis "heavy"
/// intervals of the failed first attempt (§3.2) intersect in an empty region.
/// Half the points sit near `(lo, hi, lo, hi, …)` and half near
/// `(hi, lo, hi, lo, …)`; on every axis both clusters project onto heavy
/// intervals, but no axis-aligned intersection of per-axis-chosen intervals
/// needs to contain any point.
pub fn no_majority_pair(per_cluster: usize, dim: usize, lo: f64, hi: f64) -> Dataset {
    assert!(dim >= 2, "the Figure-1 construction needs d >= 2");
    assert!(lo < hi, "lo must be below hi");
    let jitter = (hi - lo) * 0.01;
    let mut rows = Vec::with_capacity(2 * per_cluster);
    for i in 0..per_cluster {
        let eps = jitter * (i as f64 % 7.0) / 7.0;
        rows.push(
            (0..dim)
                .map(|j| if j % 2 == 0 { lo + eps } else { hi - eps })
                .collect::<Vec<f64>>(),
        );
        rows.push(
            (0..dim)
                .map(|j| if j % 2 == 0 { hi - eps } else { lo + eps })
                .collect::<Vec<f64>>(),
        );
    }
    Dataset::from_rows(rows).expect("rows share dimension")
}

#[cfg(test)]
mod tests {
    use super::*;
    use privcluster_geometry::BallCounter;

    #[test]
    fn sensitivity_example_matches_paper_description() {
        let t = 10;
        let (s, s_neighbour) = sensitivity_example(t, 3);
        assert_eq!(s.len(), 1 + t);
        assert_eq!(&s.points()[1..], &s_neighbour.points()[1..]);
        // In S, the radius-1 ball around e1 contains all 11 points.
        let bc = BallCounter::new(&s, t);
        assert_eq!(bc.count(0, 1.0), 1 + t);
        assert_eq!(bc.max_capped_count(1.0), t);
        // In the neighbour there is no input-centred radius-1 ball with more
        // than t/2 + 1 points.
        let bc2 = BallCounter::new(&s_neighbour, t);
        assert_eq!(bc2.max_capped_count(1.0), t / 2 + 1);
        // The naive max-count therefore jumps by Ω(t) between neighbours...
        let naive_gap = bc.max_capped_count(1.0) as i64 - bc2.max_capped_count(1.0) as i64;
        assert!(naive_gap >= (t / 2 - 1) as i64);
        // ...while the averaged L changes by at most 2 (Lemma 4.5).
        let l_gap = (bc.l_value(1.0) - bc2.l_value(1.0)).abs();
        assert!(l_gap <= 2.0 + 1e-9, "L gap = {l_gap}");
    }

    #[test]
    fn figure_one_instance_has_empty_central_box() {
        let data = no_majority_pair(50, 2, 0.1, 0.9);
        assert_eq!(data.len(), 100);
        // Per-axis, both the low band and the high band are heavy.
        let low_band = |x: f64| (0.05..0.2).contains(&x);
        let high_band = |x: f64| (0.8..0.95).contains(&x);
        let heavy_x_low = data.iter().filter(|p| low_band(p[0])).count();
        let heavy_y_low = data.iter().filter(|p| low_band(p[1])).count();
        assert_eq!(heavy_x_low, 50);
        assert_eq!(heavy_y_low, 50);
        // But the box (low, low) is empty — the Figure 1 failure.
        let both_low = data
            .iter()
            .filter(|p| low_band(p[0]) && low_band(p[1]))
            .count();
        assert_eq!(both_low, 0);
        let _ = high_band; // bands are symmetric; low suffices for the check
    }

    #[test]
    #[should_panic(expected = "needs d >= 2")]
    fn figure_one_requires_two_dimensions() {
        let _ = no_majority_pair(10, 1, 0.0, 1.0);
    }
}
