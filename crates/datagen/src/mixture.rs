//! Mixtures of several clusters.
//!
//! Used by the k-clustering heuristic experiment (Observation 3.5) and by the
//! Table-1 comparison: when the points are split between several small balls
//! so that none contains a majority, the private-aggregation baseline
//! \[NRS07\] degrades to "an uninformative center chosen almost at random"
//! (§1.2), while the 1-cluster algorithm still finds one of the balls.

use crate::cluster::uniform_background;
use privcluster_geometry::{Ball, Dataset, GridDomain, Point};
use rand::Rng;

/// A generated mixture instance with its ground truth.
#[derive(Debug, Clone)]
pub struct MixtureInstance {
    /// The dataset (component points in component order, background last).
    pub data: Dataset,
    /// The ground-truth component balls.
    pub components: Vec<Ball>,
    /// Sizes of the components, aligned with `components`.
    pub component_sizes: Vec<usize>,
}

impl MixtureInstance {
    /// The fraction of points covered by at least one of `balls`.
    pub fn coverage(&self, balls: &[Ball]) -> f64 {
        let covered = self
            .data
            .iter()
            .filter(|p| balls.iter().any(|b| b.contains(p)))
            .count();
        covered as f64 / self.data.len() as f64
    }
}

/// Generates `k` Gaussian clusters of `per_cluster` points each (standard
/// deviation `sigma`), with centres separated by at least `4·sigma·√d`, plus
/// `background` uniform points.
pub fn gaussian_mixture<R: Rng + ?Sized>(
    domain: &GridDomain,
    k: usize,
    per_cluster: usize,
    sigma: f64,
    background: usize,
    rng: &mut R,
) -> MixtureInstance {
    assert!(k >= 1, "need at least one component");
    assert!(sigma > 0.0 && sigma.is_finite(), "sigma must be positive");
    let dim = domain.dim();
    let min_sep = 4.0 * sigma * (dim as f64).sqrt();
    let margin = (4.0 * sigma).min(domain.axis_length() / 4.0);

    // Rejection-sample well-separated centres (falls back to accepting after
    // many failures so pathological parameters still terminate).
    let mut centers: Vec<Point> = Vec::with_capacity(k);
    let mut attempts = 0usize;
    while centers.len() < k {
        let c = Point::new(
            (0..dim)
                .map(|_| rng.gen_range((domain.min() + margin)..(domain.max() - margin)))
                .collect(),
        );
        attempts += 1;
        if attempts > 10_000 || centers.iter().all(|e| e.distance(&c) >= min_sep) {
            centers.push(c);
        }
    }

    let mut points = Vec::with_capacity(k * per_cluster + background);
    for c in &centers {
        for _ in 0..per_cluster {
            let p = Point::new(
                c.coords()
                    .iter()
                    .map(|x| x + sigma * privcluster_geometry::linalg::standard_normal(rng))
                    .collect(),
            );
            points.push(domain.snap(&p.clamp_coords(domain.min(), domain.max())));
        }
    }
    points.extend(uniform_background(domain, background, rng));
    let data = Dataset::new(points).expect("points share the domain dimension");
    let radius = 3.0 * sigma * (dim as f64).sqrt() + domain.grid_step();
    let components = centers
        .into_iter()
        .map(|c| Ball::new(c, radius).expect("positive radius"))
        .collect();
    MixtureInstance {
        data,
        components,
        component_sizes: vec![per_cluster; k],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn mixture_has_expected_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(2, 4096).unwrap();
        let m = gaussian_mixture(&domain, 4, 100, 0.005, 50, &mut rng);
        assert_eq!(m.data.len(), 450);
        assert_eq!(m.components.len(), 4);
        assert_eq!(m.component_sizes.iter().sum::<usize>(), 400);
        // No component holds a majority of all points.
        for &s in &m.component_sizes {
            assert!((s as f64) < 0.51 * m.data.len() as f64);
        }
    }

    #[test]
    fn ground_truth_balls_cover_their_components() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(3, 4096).unwrap();
        let m = gaussian_mixture(&domain, 3, 200, 0.004, 0, &mut rng);
        // Together the component balls should cover nearly all points.
        assert!(m.coverage(&m.components) > 0.98);
        // Each ball individually covers roughly one component's share.
        for b in &m.components {
            let c = m.data.count_in_ball(b);
            assert!(c >= 190, "component ball covers only {c}");
            assert!(c <= 230, "component ball covers too many: {c}");
        }
    }

    #[test]
    fn components_are_well_separated() {
        let mut rng = StdRng::seed_from_u64(3);
        let domain = GridDomain::unit_cube(2, 4096).unwrap();
        let m = gaussian_mixture(&domain, 5, 50, 0.003, 0, &mut rng);
        for i in 0..m.components.len() {
            for j in (i + 1)..m.components.len() {
                let d = m.components[i].center().distance(m.components[j].center());
                assert!(d > 2.0 * 0.003, "centres {i} and {j} too close: {d}");
            }
        }
    }

    #[test]
    fn coverage_of_empty_ball_list_is_zero() {
        let mut rng = StdRng::seed_from_u64(4);
        let domain = GridDomain::unit_cube(2, 64).unwrap();
        let m = gaussian_mixture(&domain, 2, 20, 0.01, 5, &mut rng);
        assert_eq!(m.coverage(&[]), 0.0);
    }
}
