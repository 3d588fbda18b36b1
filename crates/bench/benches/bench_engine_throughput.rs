//! Engine batch throughput (queries/sec) at 1, 2, and 4 worker threads,
//! plus the repeated-query scenario the shared per-dataset geometry index
//! exists for.
//!
//! The batch workload is 8 seeded GoodRadius queries against one registered
//! dataset; each bench iteration builds a fresh engine so cache hits and
//! budget exhaustion cannot leak across iterations. The repeated-query
//! group then contrasts that per-iteration setup cost with a long-lived
//! engine whose index was built once at registration: fresh seeds defeat
//! the result cache, so the difference is purely the
//! `DistanceMatrix`/`LProfile` rebuild the index removes.
//!
//! Two groups take the batch's set-up apart: `engine_register_exact` times
//! an exact-backend registration alone, and `engine_first_l_profile` the
//! first `L` profile a fresh exact index builds for GoodRadius (its grid
//! profile), the work a batch's first query on a new dataset waits for.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use privcluster_datagen::planted_ball_cluster;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{BackendChoice, Engine, EngineConfig, Query, QueryRequest};
use privcluster_geometry::{Dataset, GeometryIndex, GridDomain};
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

/// A planted-cluster dataset of `n` points (half of them in the cluster)
/// on the benches' 2-D grid domain.
fn planted(n: usize, seed: u64) -> (Dataset, GridDomain) {
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let inst = planted_ball_cluster(&domain, n, n / 2, 0.02, &mut rng);
    (inst.data, domain)
}

fn fresh_engine(threads: usize) -> Engine {
    let engine = Engine::new(EngineConfig {
        threads,
        cache_capacity: 0, // disable caching: measure execution, not replay
        ..EngineConfig::default()
    });
    let (data, domain) = planted(500, 42);
    engine
        .register_dataset(
            "bench",
            data,
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

/// One exact-backend registration on a fresh engine, at n = 500 and 1,000
/// and 1, 2 and 4 worker threads. Creating the engine and cloning the
/// dataset are set-up, outside the timed routine.
fn bench_engine_register_exact(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_register_exact");
    group.sample_size(30);
    for n in [500usize, 1000] {
        let (data, domain) = planted(n, 42);
        for threads in [1usize, 2, 4] {
            group.bench_function(
                BenchmarkId::new(format!("n{n}"), format!("t{threads}")),
                |b| {
                    b.iter_batched(
                        || {
                            let engine = Engine::new(EngineConfig {
                                threads,
                                cache_capacity: 0,
                                ..EngineConfig::default()
                            });
                            (engine, data.clone())
                        },
                        |(engine, data)| {
                            engine
                                .register_dataset_with_backend(
                                    "bench",
                                    data,
                                    domain.clone(),
                                    PrivacyParams::new(1e6, 0.5).unwrap(),
                                    CompositionMode::Basic,
                                    BackendChoice::Exact,
                                )
                                .unwrap()
                        },
                        BatchSize::PerIteration,
                    )
                },
            );
        }
    }
    group.finish();
}

/// The first `grid_profile(t, domain)` of a fresh exact index (n = 1,000,
/// t = n/2): the pair-counting pass and sweep the first GoodRadius query on
/// a newly registered dataset waits for. The index is built in set-up with
/// 1, 2 or 4 threads; the profile build itself runs on the calling thread.
fn bench_first_l_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_first_l_profile");
    let n = 1000usize;
    let (data, domain) = planted(n, 42);
    for threads in [1usize, 2, 4] {
        group.bench_function(
            BenchmarkId::new(format!("n{n}"), format!("t{threads}")),
            |b| {
                b.iter_batched(
                    || GeometryIndex::build(&data, threads),
                    |index| index.grid_profile(n / 2, &domain).segment_starts().len(),
                    BatchSize::PerIteration,
                )
            },
        );
    }
    group.finish();
}

/// Repeated queries against one registered dataset: `rebuild_per_batch`
/// registers a fresh dataset every iteration (paying the `O(n² d)` index
/// and profile build each time — the old per-query cost model),
/// `shared_index` reuses one long-lived engine whose index was built once.
/// Fresh, never-repeated seeds keep the result cache out of the picture in
/// both arms.
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

/// Exact vs projected backend at a scale where the exact profile's pair
/// list still fits (n = 2000: 32 MB; at the 50k CI-smoke scale it would be
/// 20 GB and could not run at all). One iteration = register the dataset
/// with the forced backend + an 8-query GoodRadius batch, so the
/// measurement covers exactly the work the backend choice changes: the
/// one-time geometry build (`O(n d)` point copy + `O(n² d + n² log n)`
/// profile vs `O(n log n)` build + `O(B² log B)` profile) plus
/// profile-served queries.
fn bench_engine_backend_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_backend_register_and_8_queries");
    let n = 2000usize;
    let (data, domain) = planted(n, 7);
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
                        data.clone(),
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
    targets = bench_engine_throughput, bench_engine_register_exact, bench_first_l_profile,
        bench_engine_repeated_queries, bench_engine_backend_scaling
}
criterion_main!(benches);
