//! Engine batch throughput (queries/sec) at 1, 2, and 4 worker threads,
//! plus the repeated-query scenario the shared per-dataset geometry index
//! exists for.
//!
//! The batch workload is 8 seeded GoodRadius queries against one registered
//! dataset; each bench iteration builds a fresh engine so cache hits and
//! budget exhaustion cannot leak across iterations. The repeated-query
//! group then contrasts that per-iteration setup cost with a long-lived
//! engine whose index was built once at registration: fresh seeds defeat
//! the result cache, so the difference is purely the index and
//! grid-profile rebuild the registered index removes.
//!
//! Two groups take the batch's set-up apart: `engine_register_exact` times
//! an exact-backend registration alone, and `engine_first_l_profile` the
//! first `L` profile a fresh exact index builds for GoodRadius (its grid
//! profile), the work a batch's first query on a new dataset waits for; its
//! `projected_n20000` row does the same on a fresh projected backend, whose
//! build `engine_projected_build` times. `engine_warm_good_radius` times
//! what every later query pays: one GoodRadius run against a profile
//! already cached. `engine_parse_register` times the wire parse of a
//! registration line before any of that.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use privcluster_core::{good_radius_with_index, GoodRadiusConfig};
use privcluster_datagen::planted_ball_cluster;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{BackendChoice, Engine, EngineConfig, Query, QueryRequest, Request};
use privcluster_geometry::{Dataset, GeometryBackend, GeometryIndex, GridDomain, ProjectedBackend};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
/// a newly registered dataset waits for. The index is built in set-up; the
/// profile build runs on the calling thread. `projected_n20000` is the same
/// first build on a fresh projected backend of `projected_large(20_000)`
/// with t = n/4, the service benchmark's `projected-large` cap.
fn bench_first_l_profile(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_first_l_profile");
    let n = 1000usize;
    let (data, domain) = planted(n, 42);
    group.bench_function(format!("n{n}"), |b| {
        b.iter_batched(
            || GeometryIndex::build(&data),
            |index| index.grid_profile(n / 2, &domain).segment_starts().len(),
            BatchSize::PerIteration,
        )
    });
    let n = 20_000usize;
    let (data, domain) = projected_large(n, 42);
    group.bench_function(format!("projected_n{n}"), |b| {
        b.iter_batched(
            || ProjectedBackend::build_default(&data),
            |backend| backend.grid_profile(n / 4, &domain).segment_starts().len(),
            BatchSize::PerIteration,
        )
    });
    group.finish();
}

/// `ProjectedBackend::build_default` of `projected_large(20_000)`: the
/// projection, the search for the finest cell width within the bucket
/// budget, and the bucketing a projected registration pays.
fn bench_projected_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_projected_build");
    let n = 20_000usize;
    let (data, _) = projected_large(n, 42);
    group.bench_function(format!("n{n}"), |b| {
        b.iter(|| ProjectedBackend::build_default(&data).len())
    });
    group.finish();
}

/// `n` points shaped like the service benchmark's `projected-large`
/// datasets: two discs of radius 0.04 holding 45% of the points each, the
/// rest uniform in the unit square, all snapped to its 1,025-value grid and
/// sorted by x then y.
fn projected_large(n: usize, seed: u64) -> (Dataset, GridDomain) {
    let domain = GridDomain::unit_cube(2, 1025).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let centers: Vec<[f64; 2]> = (0..2)
        .map(|_| [0.2 + 0.6 * rng.gen::<f64>(), 0.2 + 0.6 * rng.gen::<f64>()])
        .collect();
    let per_disc = n * 45 / 100;
    let mut points: Vec<[f64; 2]> = (0..n)
        .map(|i| {
            let p = match centers.get(i / per_disc) {
                Some(center) => loop {
                    let dx = (2.0 * rng.gen::<f64>() - 1.0) * 0.04;
                    let dy = (2.0 * rng.gen::<f64>() - 1.0) * 0.04;
                    if dx * dx + dy * dy <= 0.04 * 0.04 {
                        break [center[0] + dx, center[1] + dy];
                    }
                },
                None => [rng.gen::<f64>(), rng.gen::<f64>()],
            };
            p.map(|c| (c.clamp(0.0, 1.0) * 1024.0).round() / 1024.0)
        })
        .collect();
    points.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    let rows = points.iter().map(|p| p.to_vec()).collect();
    (Dataset::from_rows(rows).unwrap(), domain)
}

/// `n` off-grid points in the unit square, a third of them uniform in a
/// disc of radius 0.08 and the rest uniform, on a 1,025-value grid: the
/// shape of the service benchmark's `exact-cold` datasets, where every
/// pairwise distance is distinct.
fn off_grid(n: usize, seed: u64) -> (Dataset, GridDomain) {
    let domain = GridDomain::unit_cube(2, 1025).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let center = [0.2 + 0.6 * rng.gen::<f64>(), 0.2 + 0.6 * rng.gen::<f64>()];
    let rows = (0..n)
        .map(|i| {
            if i >= n / 3 {
                return vec![rng.gen::<f64>(), rng.gen::<f64>()];
            }
            loop {
                let dx = (2.0 * rng.gen::<f64>() - 1.0) * 0.08;
                let dy = (2.0 * rng.gen::<f64>() - 1.0) * 0.08;
                if dx * dx + dy * dy <= 0.08 * 0.08 {
                    return vec![center[0] + dx, center[1] + dy];
                }
            }
        })
        .collect();
    (Dataset::from_rows(rows).unwrap(), domain)
}

/// One warm GoodRadius query on the exact backend (n = 1,000 off-grid
/// points, t = 200, ε = 4, a fresh seed each time) with the grid profile
/// built in set-up: the quality's segments and the piecewise exponential
/// mechanism over them, which is what a query pays once its dataset's
/// profile is cached.
fn bench_warm_good_radius(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_warm_good_radius");
    let (n, t) = (1000usize, 200usize);
    let (data, domain) = off_grid(n, 42);
    let index = GeometryIndex::build(&data);
    let _ = index.grid_profile(t, &domain);
    let privacy = PrivacyParams::new(4.0, 1e-8).unwrap();
    let config = GoodRadiusConfig::default();
    let mut seed = 0u64;
    group.bench_function(format!("exact_n{n}_t{t}"), |b| {
        b.iter(|| {
            seed += 1;
            let mut rng = StdRng::seed_from_u64(seed);
            good_radius_with_index(&data, &domain, t, privacy, 0.1, &config, &index, &mut rng)
                .unwrap()
                .radius
        })
    });
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

/// A `register` line shaped like the service benchmark's: `n` 2-D points
/// sorted by x then y, each coordinate written with `{:?}`, either on the
/// 1,025-value grid of [0, 1] (`projected-large`) or anywhere in it
/// (`exact-cold`).
fn register_line(n: usize, on_grid: bool) -> String {
    let mut rng = StdRng::seed_from_u64(25);
    let mut points: Vec<[f64; 2]> = (0..n)
        .map(|_| {
            let p = [rng.gen::<f64>(), rng.gen::<f64>()];
            if on_grid {
                p.map(|c| (c * 1024.0).round() / 1024.0)
            } else {
                p
            }
        })
        .collect();
    points.sort_by(|a, b| a[0].total_cmp(&b[0]).then(a[1].total_cmp(&b[1])));
    let rows: Vec<String> = points
        .iter()
        .map(|p| format!("[{:?},{:?}]", p[0], p[1]))
        .collect();
    format!(
        "{{\"op\":\"register\",\"dataset\":\"pl0\",\"domain\":{{\"dim\":2,\"size\":1025}},\
         \"budget\":{{\"epsilon\":1048576.0,\"delta\":0.5}},\"points\":[{}]}}",
        rows.join(",")
    )
}

/// `Request::parse` of one `register` line: 20,000 on-grid points (a
/// 0.5 MB line) and 1,000 off-grid points.
fn bench_parse_register(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_parse_register");
    for (label, n, on_grid) in [
        ("n20000_on_grid", 20_000, true),
        ("n1000_off_grid", 1_000, false),
    ] {
        let line = register_line(n, on_grid);
        group.bench_function(label, |b| b.iter(|| Request::parse(&line).unwrap()));
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_engine_throughput, bench_engine_register_exact, bench_first_l_profile,
        bench_projected_build, bench_warm_good_radius, bench_engine_repeated_queries,
        bench_engine_backend_scaling, bench_parse_register
}
criterion_main!(benches);
