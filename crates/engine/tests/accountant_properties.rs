//! Property-based tests of the budget accountant (satellite of the engine
//! PR): whatever sequence of charges arrives,
//!
//! (a) the composed spend of the *granted* charges never exceeds the
//!     declared budget under either composition theorem,
//! (b) a refused charge leaves the ledger totals untouched, bit for bit,
//! (c) cache hits charge zero budget (checked through a live engine).

use privcluster_dp::composition::CompositionMode;
use privcluster_dp::{basic_composition, LedgerTotals, PrivacyParams};
use privcluster_engine::{BudgetAccountant, Engine, EngineConfig, Query, QueryRequest};
use privcluster_geometry::{Dataset, GridDomain};
use proptest::prelude::*;

fn mode_from_flag(advanced: bool) -> CompositionMode {
    if advanced {
        CompositionMode::Advanced { delta_prime: 1e-7 }
    } else {
        CompositionMode::Basic
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Granted charges always compose to within the declared budget
    /// under the accountant's selected theorem, for arbitrary charge
    /// sequences and both theorems.
    #[test]
    fn granted_spend_never_exceeds_budget(
        budget_eps in 0.1f64..4.0,
        epsilons in prop::collection::vec(0.001f64..1.0, 1..60),
        advanced in prop::collection::vec(0.0f64..1.0, 1),
    ) {
        let advanced = advanced[0] < 0.5;
        let mode = mode_from_flag(advanced);
        let budget = PrivacyParams::new(budget_eps, 1e-6).unwrap();
        let mut accountant = BudgetAccountant::new("d", budget, mode).unwrap();
        let mut granted: Vec<PrivacyParams> = Vec::new();
        for eps in &epsilons {
            let params = PrivacyParams::new(*eps, 1e-9).unwrap();
            if accountant.try_charge(params).is_ok() {
                granted.push(params);
            }
        }
        prop_assert_eq!(accountant.granted(), granted.len());
        if !granted.is_empty() {
            // The accountant's own composed spend respects the budget…
            let spent = accountant.composed_spend().unwrap();
            prop_assert!(spent.epsilon() <= budget.epsilon() * (1.0 + 1e-9) + 1e-9);
            prop_assert!(spent.delta() <= budget.delta() * (1.0 + 1e-9) + 1e-15);
            // …and under basic mode it is exactly the basic composition of
            // the granted charges (recomputed independently here).
            if !advanced {
                let recomposed = basic_composition(&granted).unwrap();
                prop_assert!((recomposed.epsilon() - spent.epsilon()).abs() < 1e-9);
            }
        }
    }

    /// (b) A refused charge leaves the ledger totals exactly as they were.
    #[test]
    fn refused_charge_leaves_ledger_unchanged(
        filler in prop::collection::vec(0.01f64..0.2, 0..20),
        oversized in 1.0f64..10.0,
        advanced in prop::collection::vec(0.0f64..1.0, 1),
    ) {
        let mode = mode_from_flag(advanced[0] < 0.5);
        let budget = PrivacyParams::new(1.0, 1e-6).unwrap();
        let mut accountant = BudgetAccountant::new("d", budget, mode).unwrap();
        for eps in &filler {
            // Filler charges may themselves be refused; that's fine.
            let _ = accountant.try_charge(PrivacyParams::new(*eps, 1e-9).unwrap());
        }
        let totals_before = accountant.totals();
        let spend_before = accountant.composed_spend();
        let granted_before = accountant.granted();
        // ε ≥ 1.0 on a ε = 1.0 budget with filler present — and even alone,
        // δ = 2e-6 > budget δ — must always be refused.
        let refused = accountant.try_charge(PrivacyParams::new(oversized, 2e-6).unwrap());
        prop_assert!(refused.is_err());
        prop_assert_eq!(accountant.granted(), granted_before);
        let bits = |t: LedgerTotals| {
            (
                t.count(),
                t.epsilon_sum().to_bits(),
                t.delta_sum().to_bits(),
                t.epsilon_max().to_bits(),
                t.delta_max().to_bits(),
            )
        };
        prop_assert_eq!(bits(accountant.totals()), bits(totals_before));
        match (accountant.composed_spend(), spend_before) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                prop_assert!((a.epsilon() - b.epsilon()).abs() < 1e-15);
                prop_assert!((a.delta() - b.delta()).abs() < 1e-18);
            }
            other => prop_assert!(false, "spend changed shape: {:?}", other),
        }
    }

    /// (c) Replaying an identical query is served from the cache and
    /// charges zero budget.
    #[test]
    fn cache_hits_charge_zero_budget(
        seed in 0u64..1000,
        eps in 0.05f64..0.4,
        repeats in 1usize..4,
    ) {
        let engine = Engine::new(EngineConfig { threads: 1, cache_capacity: 16,
    ..EngineConfig::default()
});
        let domain = GridDomain::unit_cube(1, 64).unwrap();
        let rows: Vec<Vec<f64>> = (0..60).map(|i| vec![(i % 8) as f64 / 8.0]).collect();
        engine
            .register_dataset(
                "tiny",
                Dataset::from_rows(rows).unwrap(),
                domain,
                PrivacyParams::new(1.0, 1e-6).unwrap(),
                CompositionMode::Basic,
            )
            .unwrap();
        let request = QueryRequest {
            dataset: "tiny".into(),
            version: None,
            seed,
            privacy: PrivacyParams::new(eps, 1e-8).unwrap(),
            query: Query::GoodRadius { t: 30, beta: 0.1 },
        };
        let first = engine.query(&request).unwrap();
        prop_assert!(!first.cached);
        let spend_after_first = engine.status("tiny").unwrap().spent.unwrap();
        for _ in 0..repeats {
            let replay = engine.query(&request).unwrap();
            prop_assert!(replay.cached);
            prop_assert!(replay.charged.is_none());
            prop_assert_eq!(&replay.value, &first.value);
        }
        let status = engine.status("tiny").unwrap();
        prop_assert_eq!(status.granted, 1);
        let spend = status.spent.unwrap();
        prop_assert!((spend.epsilon() - spend_after_first.epsilon()).abs() < 1e-15);
        prop_assert!((spend.delta() - spend_after_first.delta()).abs() < 1e-18);
    }
}
