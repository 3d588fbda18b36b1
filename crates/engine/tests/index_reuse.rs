//! The shared per-dataset geometry index removes the matrix build from
//! the repeated-query path, and serving never fills the `n × n` sorted
//! distance rows.
//!
//! `privcluster_geometry::distance::debug_build_count()` counts every
//! `DistanceMatrix` build in the process and `debug_rows_build_count()`
//! every fill of a matrix's sorted rows (debug builds only). This file
//! holds exactly **one** test so nothing else in the binary races the
//! counters: registration and re-registration build one index each, and
//! GoodRadius / OneCluster / KCluster queries — cached or not, batched or
//! not — must perform **zero** further builds and **zero** row fills (the
//! `L` profile recomputes its pair distances from the kept points).

use privcluster_datagen::planted_ball_cluster;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{Engine, EngineConfig, Query, QueryRequest};
use privcluster_geometry::distance::{debug_build_count, debug_rows_build_count};
use privcluster_geometry::GridDomain;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn request(seed: u64, query: Query) -> QueryRequest {
    QueryRequest {
        dataset: "reuse".into(),
        version: None,
        seed,
        // Roomy per-query ε: algorithmic success, not accuracy, is at stake.
        privacy: PrivacyParams::new(4.0, 1e-6).unwrap(),
        query,
    }
}

#[test]
fn repeated_queries_never_rebuild_the_distance_matrix() {
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 0, // no caching: every query truly executes
        ..EngineConfig::default()
    });
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let inst = planted_ball_cluster(&domain, 300, 150, 0.02, &mut rng);
    let next = planted_ball_cluster(&domain, 300, 150, 0.02, &mut rng);

    let rows_before = debug_rows_build_count();
    let before_registration = debug_build_count();
    engine
        .register_dataset(
            "reuse",
            inst.data,
            domain.clone(),
            PrivacyParams::new(1e6, 0.4).unwrap(),
            CompositionMode::Basic,
        )
        .unwrap();
    // Version 2 under the same name: a fresh index, still no row fill.
    engine
        .reregister_dataset("reuse", next.data, domain)
        .unwrap();
    let after_registration = debug_build_count();
    if cfg!(debug_assertions) {
        assert_eq!(
            after_registration,
            before_registration + 2,
            "registration and re-registration build one index each"
        );
    }

    // A mixed stream of repeated queries: distinct seeds (so nothing could
    // be served by a cache even if one were on), all three index-aware
    // query kinds, sequential and batched execution.
    for seed in 0..4u64 {
        engine
            .query(&request(seed, Query::GoodRadius { t: 150, beta: 0.1 }))
            .unwrap();
    }
    engine
        .query(&request(
            100,
            Query::OneCluster {
                t: 150,
                beta: 0.1,
                paper_constants: false,
            },
        ))
        .unwrap();
    let batch: Vec<QueryRequest> = (200..208u64)
        .map(|seed| request(seed, Query::GoodRadius { t: 150, beta: 0.1 }))
        .collect();
    for result in engine.run_batch(&batch) {
        result.unwrap();
    }
    // KCluster rounds past the first run on the *uncovered remainder*, a
    // different dataset, so they legitimately rebuild; k = 1 exercises the
    // index-served round only.
    engine
        .query(&request(
            300,
            Query::KCluster {
                k: 1,
                t: 120,
                beta: 0.1,
            },
        ))
        .unwrap();

    assert_eq!(
        debug_build_count(),
        after_registration,
        "the repeated-query path must perform zero DistanceMatrix builds"
    );
    assert_eq!(
        debug_rows_build_count(),
        rows_before,
        "registration and serving must fill zero sorted distance rows"
    );
}
