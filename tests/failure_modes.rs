//! Failure-injection integration tests: the library must fail loudly and
//! precisely on invalid inputs and infeasible parameter regimes rather than
//! silently fabricating a cluster.

use privcluster::core::{ClusterError, GoodCenterConfig, GoodRadiusConfig};
use privcluster::lowerbound::{int_point, InteriorPointInstance};
use privcluster::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn privacy() -> PrivacyParams {
    PrivacyParams::new(1.0, 1e-6).unwrap()
}

#[test]
fn one_cluster_rejects_t_larger_than_n() {
    let mut rng = StdRng::seed_from_u64(1);
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let data = Dataset::from_rows(vec![vec![0.5, 0.5]; 50]).unwrap();
    let params = OneClusterParams::new(domain, 100, privacy(), 0.1).unwrap();
    assert!(matches!(
        one_cluster(&data, &params, &mut rng),
        Err(ClusterError::InvalidParameter(_))
    ));
}

#[test]
fn one_cluster_rejects_pure_dp_budgets() {
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let pure = PrivacyParams::pure(1.0).unwrap();
    assert!(OneClusterParams::new(domain, 10, pure, 0.1).is_err());
}

#[test]
fn strict_mode_names_the_required_cluster_size() {
    let mut rng = StdRng::seed_from_u64(2);
    let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
    let instance = planted_ball_cluster(&domain, 300, 30, 0.02, &mut rng);
    let params = OneClusterParams::new(domain, 30, privacy(), 0.1)
        .unwrap()
        .strict();
    match one_cluster(&instance.data, &params, &mut rng) {
        Err(ClusterError::ClusterTooSmall {
            requested_t,
            required_t,
        }) => {
            assert_eq!(requested_t, 30);
            assert!(required_t > 30.0);
        }
        other => panic!("expected ClusterTooSmall, got {other:?}"),
    }
}

#[test]
fn good_center_reports_center_not_found_under_tight_budgets() {
    let mut rng = StdRng::seed_from_u64(3);
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let instance = planted_ball_cluster(&domain, 80, 15, 0.02, &mut rng);
    let tight = PrivacyParams::new(0.1, 1e-10).unwrap();
    let result = privcluster::core::good_center(
        &instance.data,
        0.08,
        15,
        tight,
        0.05,
        &GoodCenterConfig::practical(),
        &mut rng,
    );
    assert!(matches!(result, Err(ClusterError::CenterNotFound(_))));
}

#[test]
fn good_radius_rejects_dimension_mismatch_and_bad_beta() {
    let mut rng = StdRng::seed_from_u64(4);
    let domain3 = GridDomain::unit_cube(3, 1 << 10).unwrap();
    let data2 = Dataset::from_rows(vec![vec![0.1, 0.2]; 20]).unwrap();
    assert!(privcluster::core::good_radius(
        &data2,
        &domain3,
        5,
        privacy(),
        0.1,
        &GoodRadiusConfig::default(),
        &mut rng
    )
    .is_err());
    let domain2 = GridDomain::unit_cube(2, 1 << 10).unwrap();
    assert!(privcluster::core::good_radius(
        &data2,
        &domain2,
        5,
        privacy(),
        1.5,
        &GoodRadiusConfig::default(),
        &mut rng
    )
    .is_err());
}

#[test]
fn exact_inputs_past_the_profile_limit_are_refused_not_a_panic() {
    let mut rng = StdRng::seed_from_u64(8);
    let domain = GridDomain::unit_cube(1, 1 << 10).unwrap();
    let n = privcluster::geometry::grid_profile::MAX_EXACT_POINTS + 1;
    let data =
        Dataset::from_rows((0..n).map(|i| vec![(i % 1000) as f64 / 1000.0]).collect()).unwrap();
    let radius = privcluster::core::good_radius(
        &data,
        &domain,
        100,
        privacy(),
        0.1,
        &GoodRadiusConfig::default(),
        &mut rng,
    );
    assert!(
        matches!(&radius, Err(ClusterError::InvalidParameter(m)) if m.contains("65536")),
        "{radius:?}"
    );
    let params = OneClusterParams::new(domain, 100, privacy(), 0.1).unwrap();
    assert!(matches!(
        one_cluster(&data, &params, &mut rng),
        Err(ClusterError::InvalidParameter(_))
    ));
}

#[test]
fn k_cluster_with_more_rounds_than_data_stops_rather_than_fails() {
    let mut rng = StdRng::seed_from_u64(5);
    let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
    let mixture = gaussian_mixture(&domain, 1, 1_500, 0.004, 0, &mut rng);
    let params =
        OneClusterParams::new(domain, 1_000, PrivacyParams::new(8.0, 1e-4).unwrap(), 0.1).unwrap();
    let out = k_cluster(&mixture.data, 5, &params, &mut rng).unwrap();
    assert!(!out.completed);
    assert!(!out.balls.is_empty());
}

#[test]
fn sample_and_aggregate_rejects_degenerate_block_configurations() {
    let mut rng = StdRng::seed_from_u64(6);
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let data = Dataset::from_rows(vec![vec![0.5, 0.5]; 100]).unwrap();
    // Block size so large that fewer than two blocks fit.
    let config = SaConfig {
        block_size: 50,
        alpha: 0.8,
        output_domain: domain,
        privacy: privacy(),
        beta: 0.1,
    };
    assert!(matches!(
        sample_and_aggregate(&data, &MeanAnalysis, &config, &mut rng),
        Err(ClusterError::InvalidParameter(_))
    ));
}

#[test]
fn intpoint_rejects_inconsistent_parameters() {
    let mut rng = StdRng::seed_from_u64(7);
    let instance = InteriorPointInstance::two_camps(200, 0.2, 0.8);
    let domain = GridDomain::unit_cube(1, 1 << 10).unwrap();
    // inner_n larger than the instance.
    assert!(int_point(&instance, &domain, 500, 50, 4.0, privacy(), 0.1, &mut rng).is_err());
    // w below 1.
    assert!(int_point(&instance, &domain, 100, 50, 0.5, privacy(), 0.1, &mut rng).is_err());
}

#[test]
fn baseline_solvers_refuse_out_of_scope_instances() {
    use privcluster::baselines::{ExponentialGridSolver, OneClusterSolver, ThresholdReleaseSolver};
    let mut rng = StdRng::seed_from_u64(8);
    let fine_domain = GridDomain::unit_cube(3, 1 << 12).unwrap();
    let instance = planted_ball_cluster(&fine_domain, 100, 50, 0.05, &mut rng);
    // The EM baseline refuses a grid it cannot enumerate.
    assert!(ExponentialGridSolver::default()
        .solve(&instance.data, &fine_domain, 50, privacy(), 0.1, 1)
        .is_err());
    // The threshold-release baseline refuses d > 1.
    assert!(ThresholdReleaseSolver::default()
        .solve(&instance.data, &fine_domain, 50, privacy(), 0.1, 1)
        .is_err());
}
