//! The PR's load-bearing acceptance test: budget enforcement across
//! adaptive queries.
//!
//! A dataset is registered with a total budget of (ε = 1, δ = 1e-6); the
//! test then issues distinct queries until the accountant refuses, and
//! verifies that
//!
//! 1. the composed spend of all *granted* queries stays within the budget
//!    under the dataset's selected composition theorem,
//! 2. identical repeat queries are served from the cache with zero
//!    additional spend,
//! 3. once refused, further fresh queries stay refused while cached
//!    replays keep working.

use privcluster_datagen::planted_ball_cluster;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::{basic_composition, PrivacyParams};
use privcluster_engine::{Engine, EngineConfig, EngineError, Query, QueryRequest};
use privcluster_geometry::{Dataset, GridDomain};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn engine_with_budget(mode: CompositionMode) -> Engine {
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 64,
        ..EngineConfig::default()
    });
    let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    let inst = planted_ball_cluster(&domain, 500, 250, 0.02, &mut rng);
    engine
        .register_dataset(
            "guarded",
            inst.data,
            domain,
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            mode,
        )
        .unwrap();
    engine
}

fn request(seed: u64) -> QueryRequest {
    QueryRequest {
        dataset: "guarded".into(),
        version: None,
        seed,
        privacy: PrivacyParams::new(0.3, 1e-8).unwrap(),
        query: Query::GoodRadius { t: 250, beta: 0.1 },
    }
}

#[test]
fn budget_is_enforced_under_basic_composition() {
    let engine = engine_with_budget(CompositionMode::Basic);

    // Issue fresh ε = 0.3 queries until the accountant refuses.
    let mut granted: Vec<PrivacyParams> = Vec::new();
    let mut refused_at = None;
    for seed in 0..10 {
        match engine.query(&request(seed)) {
            Ok(response) => {
                assert!(!response.cached);
                granted.push(response.charged.expect("fresh query must be charged"));
            }
            Err(EngineError::BudgetExhausted { .. }) => {
                refused_at = Some(seed);
                break;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    // ⌊1.0 / 0.3⌋ = 3 grants, then refusal.
    assert_eq!(granted.len(), 3);
    assert_eq!(refused_at, Some(3));

    // Composed spend of the granted queries is within the declared budget.
    let spend = basic_composition(&granted).unwrap();
    assert!(
        spend.epsilon() <= 1.0 + 1e-9,
        "spent ε = {}",
        spend.epsilon()
    );
    assert!(spend.delta() <= 1e-6 + 1e-15, "spent δ = {}", spend.delta());

    // The engine's own status agrees.
    let status = engine.status("guarded").unwrap();
    assert_eq!(status.granted, 3);
    assert_eq!(status.refused, 1);
    let reported = status.spent.unwrap();
    assert!((reported.epsilon() - spend.epsilon()).abs() < 1e-12);
    assert!(reported.epsilon() <= status.budget.epsilon() + 1e-9);

    // Identical repeats of a granted query: served from cache, zero spend.
    let replay = engine.query(&request(0)).unwrap();
    assert!(replay.cached);
    assert!(replay.charged.is_none());
    let status_after = engine.status("guarded").unwrap();
    assert_eq!(status_after.granted, 3, "cache hit must not charge");
    assert!(
        (status_after.spent.unwrap().epsilon() - reported.epsilon()).abs() < 1e-15,
        "cache hit changed the composed spend"
    );

    // Fresh queries keep being refused; cached replays keep working.
    assert!(matches!(
        engine.query(&request(99)),
        Err(EngineError::BudgetExhausted { .. })
    ));
    assert!(engine.query(&request(1)).unwrap().cached);
}

#[test]
fn advanced_composition_admits_more_small_queries() {
    let mode = CompositionMode::Advanced { delta_prime: 5e-7 };
    let engine = engine_with_budget(mode);
    let small = |seed: u64| QueryRequest {
        dataset: "guarded".into(),
        version: None,
        seed,
        privacy: PrivacyParams::new(0.02, 1e-10).unwrap(),
        query: Query::GoodRadius { t: 250, beta: 0.1 },
    };

    let mut granted = 0usize;
    for seed in 0..5_000 {
        match engine.query(&small(seed)) {
            Ok(_) => granted += 1,
            Err(EngineError::BudgetExhausted { .. }) => break,
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    // Basic composition alone would cap at ⌊1.0 / 0.02⌋ = 50.
    assert!(
        granted > 50,
        "advanced composition should admit more than the basic 50, got {granted}"
    );

    // The composed spend the engine reports under its selected theorem
    // stays within the declared budget.
    let status = engine.status("guarded").unwrap();
    assert_eq!(status.granted, granted);
    let spent = status.spent.unwrap();
    assert!(
        spent.epsilon() <= 1.0 + 1e-9,
        "spent ε = {}",
        spent.epsilon()
    );
    assert!(spent.delta() <= 1e-6 + 1e-15, "spent δ = {}", spent.delta());
}

#[test]
fn refusals_leave_no_trace_in_the_spend() {
    let engine = engine_with_budget(CompositionMode::Basic);
    // A query bidding more than the whole budget is refused outright.
    let oversized = QueryRequest {
        dataset: "guarded".into(),
        version: None,
        seed: 0,
        privacy: PrivacyParams::new(2.0, 1e-8).unwrap(),
        query: Query::GoodRadius { t: 250, beta: 0.1 },
    };
    assert!(matches!(
        engine.query(&oversized),
        Err(EngineError::BudgetExhausted { .. })
    ));
    let status = engine.status("guarded").unwrap();
    assert_eq!(status.granted, 0);
    assert_eq!(status.refused, 1);
    assert!(status.spent.is_none());
    assert!((status.remaining_epsilon - 1.0).abs() < 1e-12);

    // The full budget is still available to an exact-fit query.
    let exact = QueryRequest {
        dataset: "guarded".into(),
        version: None,
        seed: 0,
        privacy: PrivacyParams::new(1.0, 1e-6).unwrap(),
        query: Query::GoodRadius { t: 250, beta: 0.1 },
    };
    assert!(engine.query(&exact).is_ok());
}

#[test]
fn sample_aggregate_past_the_exact_limit_is_refused_before_any_charge() {
    // 600,000 points and block size 1 give k = n/9 = 66,666 block outputs,
    // more than the exact 1-cluster solve that aggregates them takes. The
    // points coincide, so the projected build is one bucket.
    let engine = Engine::new(EngineConfig::default());
    let domain = GridDomain::unit_cube(1, 1 << 10).unwrap();
    let rows = vec![vec![0.5]; 600_000];
    engine
        .register_dataset(
            "wide",
            Dataset::from_rows(rows).unwrap(),
            domain,
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            CompositionMode::Basic,
        )
        .unwrap();
    let query = QueryRequest {
        dataset: "wide".into(),
        version: None,
        seed: 0,
        privacy: PrivacyParams::new(1.0, 1e-6).unwrap(),
        query: Query::SampleAggregateMean {
            block_size: 1,
            alpha: 0.5,
            beta: 0.1,
        },
    };
    match engine.query(&query) {
        Err(EngineError::InvalidQuery(message)) => {
            assert!(message.contains("66666"), "{message}")
        }
        other => panic!("expected an invalid_query refusal, got {other:?}"),
    }
    let status = engine.status("wide").unwrap();
    assert_eq!(status.granted, 0);
    assert!(status.spent.is_none());
    assert!((status.remaining_epsilon - 1.0).abs() < 1e-12);
}
