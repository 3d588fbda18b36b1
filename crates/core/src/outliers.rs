//! Outlier screening (§1.1, "Outlier detection").
//!
//! A 1-cluster call with `t ≈ 0.9·n` yields a ball containing most of the
//! data; the predicate "is the point inside the ball" then screens outliers
//! before any further private analysis. Two benefits, both from the paper's
//! introduction:
//!
//! * downstream analyses are not skewed by the outliers, and
//! * the effective domain shrinks from the whole cube to the found ball, so
//!   sensitivity-scaled noise (e.g. for a mean) drops from `Θ(√d·L)` to
//!   `Θ(ball diameter)` — often a dramatic accuracy win, demonstrated by
//!   [`screened_noisy_mean`] and the `outlier_detection` example.

use crate::error::ClusterError;
use crate::one_cluster::OneClusterOutcome;
use privcluster_dp::noisy_avg::{noisy_average, NoisyAvgConfig, NoisyAvgOutcome};
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{Ball, Dataset, Point};
use rand::Rng;

/// An outlier-screening predicate induced by a (privately released) ball.
#[derive(Debug, Clone)]
pub struct OutlierScreen {
    ball: Ball,
}

impl OutlierScreen {
    /// Builds a screen from any ball.
    pub fn new(ball: Ball) -> Self {
        OutlierScreen { ball }
    }

    /// Builds a screen from a 1-cluster outcome.
    pub fn from_outcome(outcome: &OneClusterOutcome) -> Self {
        OutlierScreen {
            ball: outcome.ball.clone(),
        }
    }

    /// The screening ball.
    pub fn ball(&self) -> &Ball {
        &self.ball
    }

    /// The predicate `h` of the paper: 1 inside the ball, 0 outside.
    pub fn is_inlier(&self, p: &Point) -> bool {
        self.ball.contains(p)
    }

    /// Splits a dataset into (inlier indices, outlier indices).
    pub fn partition(&self, data: &Dataset) -> (Vec<usize>, Vec<usize>) {
        let mut inliers = Vec::new();
        let mut outliers = Vec::new();
        for (i, p) in data.iter().enumerate() {
            if self.is_inlier(p) {
                inliers.push(i);
            } else {
                outliers.push(i);
            }
        }
        (inliers, outliers)
    }
}

/// Releases a noisy mean of the screened (inlier) points, with noise scaled
/// to the *ball's* diameter rather than the domain's. Because the screen is
/// itself a privately released object, applying it is post-processing, and
/// the mean release below consumes exactly the `privacy` budget passed here.
pub fn screened_noisy_mean<R: Rng + ?Sized>(
    data: &Dataset,
    screen: &OutlierScreen,
    privacy: PrivacyParams,
    rng: &mut R,
) -> Result<NoisyAvgOutcome, ClusterError> {
    if data.is_empty() {
        return Err(ClusterError::InvalidParameter("dataset is empty".into()));
    }
    let inliers: Vec<Point> = data
        .iter()
        .filter(|p| screen.is_inlier(p))
        .cloned()
        .collect();
    let cfg = NoisyAvgConfig::new(
        privacy.epsilon(),
        privacy.delta(),
        2.0 * screen.ball().radius(),
    )?;
    noisy_average(&inliers, data.dim(), screen.ball().center(), &cfg, rng)
        .map_err(ClusterError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use privcluster_datagen::inliers_with_outliers;
    use privcluster_geometry::GridDomain;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn screen_partitions_points_by_the_ball() {
        let ball = Ball::new(Point::new(vec![0.5, 0.5]), 0.1).unwrap();
        let screen = OutlierScreen::new(ball);
        let data =
            Dataset::from_rows(vec![vec![0.5, 0.5], vec![0.55, 0.5], vec![0.9, 0.9]]).unwrap();
        assert!(screen.is_inlier(data.point(0)));
        assert!(!screen.is_inlier(data.point(2)));
        let (inl, out) = screen.partition(&data);
        assert_eq!(inl, vec![0, 1]);
        assert_eq!(out, vec![2]);
        assert_eq!(screen.ball().radius(), 0.1);
    }

    #[test]
    fn screened_mean_is_far_more_accurate_than_domain_scaled_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
        let inst = inliers_with_outliers(&domain, 3_000, 60, 0.02, &mut rng);
        let privacy = PrivacyParams::new(1.0, 1e-6).unwrap();

        // Screen with the (ground-truth) inlier ball doubled, standing in for
        // a 1-cluster output.
        let ball = &inst.inlier_ball;
        let doubled = Ball::new(ball.center().clone(), 2.0 * ball.radius()).unwrap();
        let screen = OutlierScreen::new(doubled);
        let screened = screened_noisy_mean(&inst.data, &screen, privacy, &mut rng).unwrap();

        // Reference: the true mean of the inliers.
        let true_mean = inst
            .data
            .select(&(0..inst.inlier_count).collect::<Vec<_>>())
            .mean()
            .unwrap();
        let screened_err = screened.average.distance(&true_mean);

        // Naive DP mean over the whole cube: noise scaled to the domain
        // diameter (and the outliers drag the estimate too).
        let cfg = NoisyAvgConfig::new(1.0, 1e-6, domain.diameter()).unwrap();
        let all: Vec<Point> = inst.data.iter().cloned().collect();
        let naive = noisy_average(&all, 2, &Point::splat(2, 0.5), &cfg, &mut rng).unwrap();
        let naive_err = naive.average.distance(&true_mean);

        assert!(
            screened_err < naive_err,
            "screened error {screened_err} not smaller than naive {naive_err}"
        );
        assert!(
            screened_err < 0.05,
            "screened error too large: {screened_err}"
        );
    }

    #[test]
    fn empty_data_is_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        let screen = OutlierScreen::new(Ball::new(Point::origin(2), 1.0).unwrap());
        let empty = Dataset::empty(2);
        assert!(screened_noisy_mean(
            &empty,
            &screen,
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            &mut rng
        )
        .is_err());
    }
}
