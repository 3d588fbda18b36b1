//! The telemetry plane's in-engine contract: counter totals and histogram
//! counts are invariant under the worker pool's thread count —
//! observability never depends on scheduling.
//!
//! The wire half of the contract (the `{"cmd":"metrics"}` round-trip and
//! the passivity of scrapes against the golden transcript) runs through
//! the server's dispatcher, in `crates/server/tests/service_smoke.rs`.

use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{Engine, EngineConfig, Query, QueryRequest};
use privcluster_geometry::{Dataset, GridDomain};
use privcluster_obs::MetricsSnapshot;

/// A small deterministic engine with one registered dataset.
fn engine_with_dataset(threads: usize) -> Engine {
    let engine = Engine::new(EngineConfig {
        threads,
        cache_capacity: 32,
        ..EngineConfig::default()
    });
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let rows: Vec<Vec<f64>> = (0..200)
        .map(|i| {
            vec![
                0.3 + 0.0005 * (i % 11) as f64,
                0.6 - 0.0005 * (i % 7) as f64,
            ]
        })
        .collect();
    engine
        .register_dataset(
            "surface",
            Dataset::from_rows(rows).unwrap(),
            domain,
            PrivacyParams::new(6.0, 1e-4).unwrap(),
            CompositionMode::Basic,
        )
        .unwrap();
    engine
}

fn batch(seeds: std::ops::Range<u64>) -> Vec<QueryRequest> {
    seeds
        .map(|seed| QueryRequest {
            dataset: "surface".into(),
            version: None,
            seed,
            privacy: PrivacyParams::new(0.4, 1e-7).unwrap(),
            query: Query::GoodRadius { t: 100, beta: 0.1 },
        })
        .collect()
}

/// Counter totals and histogram counts per engine are a function of the
/// workload alone, never of how the pool scheduled it.
#[test]
fn counters_are_thread_count_invariant() {
    // (rendered counter series, admission count, execute count) per run.
    type Summary = (Vec<(String, u64)>, u64, u64);
    let mut summaries: Vec<Summary> = Vec::new();
    for threads in [1usize, 2, 4] {
        let engine = engine_with_dataset(threads);
        let requests = batch(0..8);
        for result in engine.run_batch(&requests) {
            result.unwrap();
        }
        // Second pass over the same seeds: all cache hits, zero charge.
        for result in engine.run_batch(&requests) {
            result.unwrap();
        }
        let snapshot: MetricsSnapshot = engine.metrics_snapshot();
        let counters: Vec<(String, u64)> = snapshot
            .counters
            .iter()
            .map(|(id, v)| (id.render(), *v))
            .collect();
        let admission = snapshot.histogram("admission_seconds").unwrap();
        let execute = snapshot.histogram("execute_seconds").unwrap();
        // Every recorded observation landed in exactly one bucket.
        assert_eq!(admission.buckets.iter().sum::<u64>(), admission.count);
        assert_eq!(execute.buckets.iter().sum::<u64>(), execute.count);
        summaries.push((counters, admission.count, execute.count));
    }
    let (baseline, admissions, executions) = &summaries[0];
    assert_eq!(
        baseline
            .iter()
            .find(|(name, _)| name == "queries_total")
            .unwrap()
            .1,
        16
    );
    assert_eq!(*admissions, 16, "one admission timing per query");
    assert_eq!(*executions, 8, "cache hits never re-execute");
    for (counters, admission_count, execute_count) in &summaries[1..] {
        assert_eq!(counters, baseline, "counter totals depend on thread count");
        assert_eq!(admission_count, admissions);
        assert_eq!(execute_count, executions);
    }
}
