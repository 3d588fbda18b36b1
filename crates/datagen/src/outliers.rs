//! Inliers-plus-outliers instances for the outlier-screening application
//! (§1.1): a dominant, tight inlier cloud (say 90% of the data) and a small
//! number of far-away outliers. A 1-cluster call with `t ≈ 0.9·n` yields a
//! ball that screens the outliers, after which downstream private analyses
//! enjoy a much smaller global sensitivity.

use crate::cluster::uniform_background;
use privcluster_geometry::{Ball, Dataset, GridDomain, Point};
use rand::Rng;

/// A generated outlier instance with its ground truth.
#[derive(Debug, Clone)]
pub struct OutlierInstance {
    /// The dataset: inliers first, outliers last.
    pub data: Dataset,
    /// Ball from which inliers were drawn.
    pub inlier_ball: Ball,
    /// Number of inliers.
    pub inlier_count: usize,
    /// Indices of the outliers inside `data`.
    pub outlier_indices: Vec<usize>,
}

/// Generates `inlier_count` points uniformly in a ball of radius
/// `inlier_radius` around a random centre, plus `outlier_count` points spread
/// uniformly over the whole domain (so they are far from the inlier cloud
/// with overwhelming probability when `inlier_radius` is small).
pub fn inliers_with_outliers<R: Rng + ?Sized>(
    domain: &GridDomain,
    inlier_count: usize,
    outlier_count: usize,
    inlier_radius: f64,
    rng: &mut R,
) -> OutlierInstance {
    assert!(
        inlier_radius > 0.0 && inlier_radius.is_finite(),
        "inlier radius must be positive"
    );
    let planted = crate::cluster::planted_ball_cluster(
        domain,
        inlier_count,
        inlier_count,
        inlier_radius,
        rng,
    );
    let mut points: Vec<Point> = planted.data.points().to_vec();
    points.extend(uniform_background(domain, outlier_count, rng));
    let data = Dataset::new(points).expect("points share the domain dimension");
    OutlierInstance {
        data,
        inlier_ball: planted.planted_ball,
        inlier_count,
        outlier_indices: (inlier_count..inlier_count + outlier_count).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// How many of the points at `indices` `ball` contains.
    fn inside(inst: &OutlierInstance, ball: &Ball, indices: impl Iterator<Item = usize>) -> usize {
        indices
            .filter(|&i| ball.contains(inst.data.point(i)))
            .count()
    }

    #[test]
    fn instance_shape_and_ground_truth() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(2, 4096).unwrap();
        let inst = inliers_with_outliers(&domain, 900, 100, 0.03, &mut rng);
        assert_eq!(inst.data.len(), 1000);
        assert_eq!(inst.inlier_count, 900);
        assert_eq!(inst.outlier_indices.len(), 100);
        let outliers = inst.outlier_indices.iter().copied();
        // Inlier ball contains every inlier...
        assert_eq!(inside(&inst, &inst.inlier_ball, 0..900), 900);
        // ...and very few of the uniformly scattered "outliers" (a ball of
        // radius ~0.03 covers < 1% of the unit square).
        assert!(inside(&inst, &inst.inlier_ball, outliers) <= 3);
    }

    #[test]
    fn screening_with_a_double_radius_ball_keeps_outliers_out() {
        let mut rng = StdRng::seed_from_u64(2);
        let domain = GridDomain::unit_cube(3, 4096).unwrap();
        let inst = inliers_with_outliers(&domain, 500, 20, 0.02, &mut rng);
        let ball = &inst.inlier_ball;
        let screen = Ball::new(ball.center().clone(), 2.0 * ball.radius()).unwrap();
        assert_eq!(inside(&inst, &screen, 0..500), 500);
        assert!(inside(&inst, &screen, inst.outlier_indices.iter().copied()) <= 2);
    }
}
