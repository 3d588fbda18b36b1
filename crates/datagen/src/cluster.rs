//! Planted single-cluster instances.
//!
//! The canonical 1-cluster workload: `t` points drawn from a small region
//! (a ball of known radius, or a Gaussian with known standard deviation)
//! placed inside the unit cube, plus `n − t` background points drawn
//! uniformly from the cube. Because the planting is known, every experiment
//! can compare the private output against the ground-truth cluster without
//! solving the (NP-hard) smallest-enclosing-ball problem.

use privcluster_geometry::{Ball, Dataset, GridDomain, Point};
use rand::Rng;

/// A generated instance together with its ground truth.
#[derive(Debug, Clone)]
pub struct PlantedCluster {
    /// The full dataset (cluster points first, then background).
    pub data: Dataset,
    /// The ball the cluster points were drawn from (ground truth, not the
    /// optimal enclosing ball, but an upper bound on it).
    pub planted_ball: Ball,
    /// Number of planted cluster points (`t`).
    pub cluster_size: usize,
    /// Indices of the cluster points inside `data`.
    pub cluster_indices: Vec<usize>,
}

impl PlantedCluster {
    /// How many of the planted points a candidate ball captured.
    pub fn captured(&self, ball: &Ball) -> usize {
        self.cluster_indices
            .iter()
            .filter(|&&i| ball.contains(self.data.point(i)))
            .count()
    }
}

fn random_unit_vector<R: Rng + ?Sized>(dim: usize, rng: &mut R) -> Point {
    loop {
        let v = Point::new(
            (0..dim)
                .map(|_| privcluster_geometry::linalg::standard_normal(rng))
                .collect(),
        );
        let n = v.norm();
        if n > 1e-9 {
            return v.scale(1.0 / n);
        }
    }
}

fn random_point_in_ball<R: Rng + ?Sized>(center: &Point, radius: f64, rng: &mut R) -> Point {
    let dim = center.dim();
    let dir = random_unit_vector(dim, rng);
    // Radius with density proportional to r^(d-1) => uniform in the ball.
    let u: f64 = rng.gen::<f64>();
    let r = radius * u.powf(1.0 / dim as f64);
    center.add(&dir.scale(r))
}

/// `count` points drawn uniformly from the domain's cube and snapped to its
/// grid.
pub fn uniform_background<R: Rng + ?Sized>(
    domain: &GridDomain,
    count: usize,
    rng: &mut R,
) -> Vec<Point> {
    (0..count)
        .map(|_| {
            let p = Point::new(
                (0..domain.dim())
                    .map(|_| rng.gen_range(domain.min()..domain.max()))
                    .collect(),
            );
            domain.snap(&p)
        })
        .collect()
}

/// Plants `cluster_size` points uniformly inside a ball of radius
/// `cluster_radius` centred at a random location (kept away from the cube
/// boundary), plus `n − cluster_size` uniform background points.
///
/// # Panics
/// Panics if `cluster_size > n` or `cluster_radius` is not positive.
pub fn planted_ball_cluster<R: Rng + ?Sized>(
    domain: &GridDomain,
    n: usize,
    cluster_size: usize,
    cluster_radius: f64,
    rng: &mut R,
) -> PlantedCluster {
    assert!(cluster_size <= n, "cluster_size must be at most n");
    assert!(
        cluster_radius > 0.0 && cluster_radius.is_finite(),
        "cluster radius must be positive"
    );
    let dim = domain.dim();
    let margin = cluster_radius.min(domain.axis_length() / 4.0);
    let center = Point::new(
        (0..dim)
            .map(|_| rng.gen_range((domain.min() + margin)..(domain.max() - margin)))
            .collect(),
    );
    let mut points = Vec::with_capacity(n);
    for _ in 0..cluster_size {
        points.push(domain.snap(&random_point_in_ball(&center, cluster_radius, rng)));
    }
    points.extend(uniform_background(domain, n - cluster_size, rng));
    let data = Dataset::new(points).expect("generated points share the domain dimension");
    // Snapping may push points slightly outside the sampled ball; widen by a
    // grid step so the reported ball really covers its points.
    let planted_ball =
        Ball::new(center, cluster_radius + domain.grid_step()).expect("radius positive");
    PlantedCluster {
        data,
        planted_ball,
        cluster_size,
        cluster_indices: (0..cluster_size).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_background_stays_in_domain() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(3, 1024).unwrap();
        let pts = uniform_background(&domain, 500, &mut rng);
        assert_eq!(pts.len(), 500);
        for p in &pts {
            assert!(domain.contains(p), "{:?} not on grid", p.coords());
        }
    }

    #[test]
    fn planted_ball_cluster_ground_truth_is_consistent() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(4, 4096).unwrap();
        let inst = planted_ball_cluster(&domain, 1000, 200, 0.05, &mut rng);
        assert_eq!(inst.data.len(), 1000);
        assert_eq!(inst.cluster_size, 200);
        // Every planted point lies in the reported ball.
        assert_eq!(inst.captured(&inst.planted_ball), 200);
        // The ball of the same radius contains at least the cluster.
        assert!(inst.data.count_in_ball(&inst.planted_ball) >= 200);
    }

    #[test]
    fn cluster_is_much_tighter_than_background() {
        let mut rng = StdRng::seed_from_u64(4);
        let domain = GridDomain::unit_cube(2, 4096).unwrap();
        let inst = planted_ball_cluster(&domain, 400, 100, 0.02, &mut rng);
        let cluster = inst.data.select(&inst.cluster_indices);
        let everything_diameter = inst.data.diameter();
        assert!(cluster.diameter() <= 0.05);
        assert!(everything_diameter > 0.5);
    }

    #[test]
    #[should_panic(expected = "cluster_size must be at most n")]
    fn oversized_cluster_panics() {
        let mut rng = StdRng::seed_from_u64(5);
        let domain = GridDomain::unit_cube(2, 64).unwrap();
        let _ = planted_ball_cluster(&domain, 10, 20, 0.1, &mut rng);
    }
}
