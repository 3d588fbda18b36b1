//! Smoke test for the facade's public surface: every name the crate-level
//! quick-start doctest (and the README) relies on must stay reachable
//! through `privcluster::prelude::*`, so refactors of the member crates
//! cannot silently break the facade.
//!
//! These tests are almost entirely compile-time assertions: if a re-export
//! disappears or changes shape, this file stops compiling.

use privcluster::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The quick-start doctest's exact vocabulary, exercised end to end on a
/// small instance.
#[test]
fn prelude_supports_the_quick_start_vocabulary() {
    let mut rng = StdRng::seed_from_u64(7);
    let domain = GridDomain::unit_cube(2, 1 << 12).unwrap();
    let instance = planted_ball_cluster(&domain, 600, 300, 0.02, &mut rng);
    let params =
        OneClusterParams::new(domain, 300, PrivacyParams::new(2.0, 1e-5).unwrap(), 0.1).unwrap();
    let found = one_cluster(&instance.data, &params, &mut rng).unwrap();
    // `captured` must keep accepting the found ball.
    let _captured: usize = instance.captured(&found.ball);
}

/// Every item the prelude promises, pinned by name. A rename or removal in a
/// member crate turns into a compile error here rather than a downstream
/// surprise.
#[test]
fn prelude_exposes_every_promised_name() {
    // privcluster_core
    let _: fn(
        &Dataset,
        &OneClusterParams,
        &mut StdRng,
    )
        -> Result<privcluster::core::OneClusterOutcome, privcluster::core::ClusterError> =
        one_cluster::<StdRng>;
    let _ = good_radius::<StdRng>;
    let _ = good_radius_with_index::<StdRng>;
    let _ = one_cluster_with_index::<StdRng>;
    let _ = good_center::<StdRng>;
    let _ = k_cluster::<StdRng>;
    let _ = k_cluster_with_index::<StdRng>;
    let _ = screened_noisy_mean::<StdRng>;
    let _ = GoodRadiusConfig::default();
    let _ = GoodCenterConfig::default();
    let _ = OutlierScreen::from_outcome;

    // privcluster_datagen
    let _ = planted_ball_cluster::<StdRng>;
    let _ = gaussian_mixture::<StdRng>;
    let _ = geo_hotspots::<StdRng>;
    let _ = inliers_with_outliers::<StdRng>;

    // privcluster_dp
    let _ = PrivacyParams::new(1.0, 1e-6).unwrap();

    // privcluster_geometry
    let _ = GridDomain::unit_cube(2, 4).unwrap();
    let _ = Point::new(vec![0.0, 0.0]);
    let _ = Ball::new(Point::new(vec![0.0, 0.0]), 1.0).unwrap();
    let _ = Dataset::from_rows(vec![vec![0.0, 0.0]]).unwrap();
    let _ = GeometryIndex::build(&Dataset::from_rows(vec![vec![0.0, 0.0]]).unwrap());

    // privcluster_agg
    let _ = sample_and_aggregate::<MeanAnalysis, StdRng>;
    let _config_type_is_public = |c: SaConfig| c;

    // privcluster_baselines
    fn assert_solver<S: OneClusterSolver>(_: &S) {}
    assert_solver(&PrivClusterSolver::default());

    // privcluster_engine
    let engine = Engine::new(EngineConfig {
        threads: 1,
        cache_capacity: 4,
        ..EngineConfig::default()
    });
    assert!(engine.dataset_names().is_empty());
    let _request_type_is_public = |r: QueryRequest| r;
    let _ = Query::GoodRadius { t: 1, beta: 0.1 };
    let _ = CompositionMode::Basic;
    // An in-memory engine reports an honest durability posture.
    let durability: DurabilityStatus = engine.durability();
    assert!(!durability.journaled);
    assert!(!durability.recovered);
    assert_eq!(durability.journal_seq, 0);

    // privcluster_store
    let _config_type_is_public = |c: StoreConfig| c;
    let _open_is_reachable: fn(
        StoreConfig,
    ) -> Result<
        (Store, privcluster::store::RecoveryReport),
        privcluster::store::StoreError,
    > = Store::open;
}

/// The facade's module re-exports (used by the integration tests and the
/// experiment binaries) stay available.
#[test]
fn facade_modules_are_reachable() {
    let _ = privcluster::core::ClusterError::InvalidParameter("x".into());
    let _ = privcluster::dp::util::log_star(16.0);
    let _ = privcluster::geometry::GeometryError::InvalidParameter("x".into());
    let _ = privcluster::baselines::NonPrivateTwoApprox;
    let _ = privcluster::lowerbound::InteriorPointInstance::two_camps(4, 0.1, 0.9);
    let _ = privcluster::report::Summary::of(&[1.0, 2.0]).unwrap();
    let _ = privcluster::agg::MedianAnalysis;
    let _ = privcluster::engine::EngineError::UnknownDataset("x".into());
    let _ = privcluster::store::StoreError::Corrupt("x".into());
    assert_eq!(privcluster::store::crc32(b"123456789"), 0xCBF4_3926);
}
