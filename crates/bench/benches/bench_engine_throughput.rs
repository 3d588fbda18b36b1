//! Engine batch throughput (queries/sec) at 1, 2, and 4 worker threads,
//! plus the repeated-query scenario the shared per-dataset geometry index
//! exists for.
//!
//! The batch workload is 8 seeded GoodRadius queries against one registered
//! dataset; each bench iteration builds a fresh engine so cache hits and
//! budget exhaustion cannot leak across iterations. The repeated-query
//! group then contrasts that per-iteration `O(n² d)` setup cost with a
//! long-lived engine whose index was built once at registration: fresh
//! seeds defeat the result cache, so the difference is purely the
//! `DistanceMatrix`/`LProfile` rebuild the index removes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use privcluster_datagen::planted_ball_cluster;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{BackendChoice, Engine, EngineConfig, Query, QueryRequest};
use privcluster_geometry::GridDomain;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

const BATCH: usize = 8;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3))
}

fn fresh_engine(threads: usize) -> Engine {
    let engine = Engine::new(EngineConfig {
        threads,
        cache_capacity: 0, // disable caching: measure execution, not replay
        ..EngineConfig::default()
    });
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(42);
    let inst = planted_ball_cluster(&domain, 500, 250, 0.02, &mut rng);
    engine
        .register_dataset(
            "bench",
            inst.data,
            domain,
            // Roomy budget: throughput, not enforcement, is being measured.
            PrivacyParams::new(1e6, 0.5).unwrap(),
            CompositionMode::Basic,
        )
        .unwrap();
    engine
}

fn workload_from(first_seed: u64) -> Vec<QueryRequest> {
    (first_seed..first_seed + BATCH as u64)
        .map(|seed| QueryRequest {
            dataset: "bench".into(),
            version: None,
            seed,
            privacy: PrivacyParams::new(1.0, 1e-8).unwrap(),
            query: Query::GoodRadius { t: 250, beta: 0.1 },
        })
        .collect()
}

fn workload() -> Vec<QueryRequest> {
    workload_from(0)
}

fn bench_engine_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_batch_8_queries");
    let requests = workload();
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let engine = fresh_engine(threads);
                    let out = engine.run_batch(&requests);
                    assert!(out.iter().all(|r| r.is_ok()));
                    out.len()
                })
            },
        );
    }
    group.finish();
}

/// Repeated queries against one registered dataset: `rebuild_per_batch`
/// registers a fresh dataset every iteration (paying the `O(n² d)` index
/// build each time — the old per-query cost model), `shared_index` reuses
/// one long-lived engine whose index was built once. Fresh, never-repeated
/// seeds keep the result cache out of the picture in both arms.
fn bench_engine_repeated_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_repeated_8_queries");

    group.bench_function("rebuild_per_batch", |b| {
        let mut next_seed = 0u64;
        b.iter(|| {
            let engine = fresh_engine(1);
            let requests = workload_from(next_seed);
            next_seed += BATCH as u64;
            let out = engine.run_batch(&requests);
            assert!(out.iter().all(|r| r.is_ok()));
            out.len()
        })
    });

    group.bench_function("shared_index", |b| {
        let engine = fresh_engine(1);
        let mut next_seed = 0u64;
        b.iter(|| {
            let requests = workload_from(next_seed);
            next_seed += BATCH as u64;
            let out = engine.run_batch(&requests);
            assert!(out.iter().all(|r| r.is_ok()));
            out.len()
        })
    });

    group.finish();
}

/// Exact vs projected backend at a scale where the exact matrix still fits
/// (n = 2000: 32 MB; at the 50k CI-smoke scale it would be 20 GB and could
/// not run at all). One iteration = register the dataset with the forced
/// backend + an 8-query GoodRadius batch, so the measurement covers
/// exactly the work the backend choice changes: the one-time geometry
/// build (`O(n² d)` matrix + `O(n² log n)` profile vs `O(n log n)` build
/// + `O(B² log B)` profile) plus profile-served queries.
fn bench_engine_backend_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_backend_register_and_8_queries");
    let n = 2000usize;
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let inst = planted_ball_cluster(&domain, n, n / 2, 0.02, &mut rng);
    let requests: Vec<QueryRequest> = (0..BATCH as u64)
        .map(|seed| QueryRequest {
            dataset: "bench".into(),
            version: None,
            seed,
            privacy: PrivacyParams::new(1.0, 1e-8).unwrap(),
            query: Query::GoodRadius {
                t: n / 2,
                beta: 0.1,
            },
        })
        .collect();
    for (label, choice) in [
        ("exact", BackendChoice::Exact),
        ("projected", BackendChoice::Projected),
    ] {
        group.bench_function(label, |b| {
            b.iter(|| {
                let engine = Engine::new(EngineConfig {
                    threads: 1,
                    cache_capacity: 0,
                    ..EngineConfig::default()
                });
                engine
                    .register_dataset_with_backend(
                        "bench",
                        inst.data.clone(),
                        domain.clone(),
                        PrivacyParams::new(1e6, 0.5).unwrap(),
                        CompositionMode::Basic,
                        choice,
                    )
                    .unwrap();
                let out = engine.run_batch(&requests);
                assert!(out.iter().all(|r| r.is_ok()));
                out.len()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_engine_throughput, bench_engine_repeated_queries, bench_engine_backend_scaling
}
criterion_main!(benches);
