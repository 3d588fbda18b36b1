//! Backend selection is deterministic, threshold-driven, and produces
//! bit-identical query results at every worker-thread count.

use privcluster_datagen::planted_ball_cluster;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{
    BackendChoice, Engine, EngineConfig, Query, QueryRequest, Request, StoreConfig,
};
use privcluster_geometry::{BackendKind, Dataset, GridDomain};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine(threads: usize, exact_max: usize) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_capacity: 0, // every query truly executes
        exact_backend_max_points: exact_max,
    })
}

fn data(n: usize) -> (Dataset, GridDomain) {
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(21);
    let inst = planted_ball_cluster(&domain, n, n / 2, 0.02, &mut rng);
    (inst.data, domain)
}

#[test]
fn auto_selection_follows_the_size_threshold() {
    let engine = engine(1, 100);
    let budget = PrivacyParams::new(100.0, 1e-4).unwrap();
    let (small, domain) = data(100); // exactly at the threshold: exact
    let status = engine
        .register_dataset("small", small, domain, budget, CompositionMode::Basic)
        .unwrap();
    assert_eq!(status.backend, BackendKind::Exact);
    let (large, domain) = data(101); // one past the threshold: projected
    let status = engine
        .register_dataset("large", large, domain, budget, CompositionMode::Basic)
        .unwrap();
    assert_eq!(status.backend, BackendKind::Projected);

    // Explicit overrides beat the threshold in both directions.
    let (forced_proj, domain) = data(60);
    let status = engine
        .register_dataset_with_backend(
            "forced_proj",
            forced_proj,
            domain,
            budget,
            CompositionMode::Basic,
            BackendChoice::Projected,
        )
        .unwrap();
    assert_eq!(status.backend, BackendKind::Projected);
    let (forced_exact, domain) = data(200);
    let status = engine
        .register_dataset_with_backend(
            "forced_exact",
            forced_exact,
            domain,
            budget,
            CompositionMode::Basic,
            BackendChoice::Exact,
        )
        .unwrap();
    assert_eq!(status.backend, BackendKind::Exact);
}

/// An exact backend packs a profile's pairs into 32 bits, so it takes at
/// most 65,536 points: a synthetic 65,537-point registration asking for it
/// is refused before anything reaches the journal.
#[test]
fn an_exact_backend_past_its_point_bound_is_refused_before_the_journal() {
    let dir = std::env::temp_dir().join(format!("privcluster-exact-bound-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("journal.pcsj");
    let store = StoreConfig::journal_only(journal.clone());
    let engine = Engine::open(EngineConfig::default(), store).unwrap();
    let bytes = std::fs::metadata(&journal).unwrap().len();
    let line = r#"{"op":"register","dataset":"big","domain":{"dim":2,"size":1024},"budget":{"epsilon":1.0,"delta":1e-6},"backend":"exact","synthetic":{"kind":"planted_ball","n":65537,"cluster_size":1000,"cluster_radius":0.05,"seed":7}}"#;
    let Ok(Request::Register(r)) = Request::parse(line) else {
        panic!("a register request");
    };
    let data = r.source.materialize(&r.domain).unwrap();
    assert_eq!(data.len(), 65_537);
    let refused = engine
        .register_dataset_with_backend(r.dataset, data, r.domain, r.budget, r.mode, r.backend);
    assert_eq!(refused.unwrap_err().kind(), "invalid_query");
    assert_eq!(engine.durability().journal_seq, 0);
    assert_eq!(std::fs::metadata(&journal).unwrap().len(), bytes);
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn projected_backend_results_are_bit_identical_across_thread_counts() {
    // The same projected-backend dataset registered into engines with 1, 2
    // and 4 worker threads must answer every query family identically —
    // backend builds and per-query RNG streams are both deterministic, so
    // thread count can never leak into released values.
    let requests: Vec<QueryRequest> = vec![
        QueryRequest {
            dataset: "d".into(),
            version: None,
            seed: 11,
            privacy: PrivacyParams::new(2.0, 1e-6).unwrap(),
            query: Query::GoodRadius { t: 150, beta: 0.1 },
        },
        QueryRequest {
            dataset: "d".into(),
            version: None,
            seed: 12,
            privacy: PrivacyParams::new(2.0, 1e-6).unwrap(),
            query: Query::OneCluster {
                t: 150,
                beta: 0.1,
                paper_constants: false,
            },
        },
        QueryRequest {
            dataset: "d".into(),
            version: None,
            seed: 13,
            privacy: PrivacyParams::new(2.0, 1e-6).unwrap(),
            query: Query::KCluster {
                k: 2,
                t: 100,
                beta: 0.1,
            },
        },
    ];
    let mut transcripts = Vec::new();
    for threads in [1usize, 2, 4] {
        let engine = engine(threads, 100);
        let (dataset, domain) = data(300); // above the threshold: projected
        let status = engine
            .register_dataset(
                "d",
                dataset,
                domain,
                PrivacyParams::new(100.0, 1e-4).unwrap(),
                CompositionMode::Basic,
            )
            .unwrap();
        assert_eq!(status.backend, BackendKind::Projected);
        let batch: Vec<_> = engine
            .run_batch(&requests)
            .into_iter()
            .map(|r| r.expect("projected queries succeed").value)
            .collect();
        transcripts.push(batch);
    }
    assert_eq!(transcripts[0], transcripts[1], "1 vs 2 threads diverged");
    assert_eq!(transcripts[0], transcripts[2], "1 vs 4 threads diverged");
}
