//! The query planner and executor.
//!
//! [`plan`] validates a query against a dataset's *public* metadata (size,
//! dimension, domain — all declared at registration) and prepares the
//! algorithm parameters **before** any budget is charged, so malformed
//! queries are rejected for free. [`Plan::execute`] then runs the prepared
//! algorithm on a fresh [`StdRng`] seeded by the query's own seed — the
//! deterministic per-query RNG stream that makes results reproducible and
//! thread-schedule independent.
//!
//! Queries whose responses include a point count (`captured` / `covered`)
//! release that count through a Laplace mechanism: the count is a
//! 1-sensitive function of the raw data, so releasing it exactly would void
//! the DP guarantee the accountant charges for. The planner therefore
//! splits the query's bid — [`COUNT_SHARE`] of ε funds the noisy count, the
//! rest funds the clustering algorithm — so the declared charge covers the
//! whole response by basic composition.

use crate::error::EngineError;
use crate::query::{BaselineMethod, Query, QueryValue, WireBall};
use crate::registry::DatasetEntry;
use privcluster_agg::{sample_and_aggregate, MeanAnalysis, SaConfig};
use privcluster_baselines::{
    ExponentialGridSolver, NonPrivateTwoApprox, OneClusterSolver, PrivateAggregationSolver,
    ThresholdReleaseSolver,
};
use privcluster_core::{
    good_radius_with_index, k_cluster_with_index, one_cluster_with_index, GoodRadiusConfig,
    OneClusterParams,
};
use privcluster_dp::{LaplaceMechanism, PrivacyParams};
use privcluster_geometry::grid_profile::MAX_EXACT_POINTS;
use privcluster_geometry::Ball;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Fraction of a query's ε bid spent on Laplace-releasing the point count
/// that accompanies ball-valued responses; the remaining `1 − COUNT_SHARE`
/// goes to the clustering algorithm itself. Counts have sensitivity 1, so
/// the released count is `(COUNT_SHARE·ε, 0)`-DP and the whole response
/// stays within the declared bid by basic composition.
pub const COUNT_SHARE: f64 = 0.1;

/// Salt separating the Laplace count-release RNG stream from a baseline
/// solver's internal stream (both would otherwise be seeded identically —
/// see the baseline arm of [`Plan::execute`]). SplitMix64's golden-gamma
/// constant: any fixed odd constant works, it only needs to be nonzero.
const COUNT_STREAM_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Smallest per-query ε the planner accepts. `PrivacyParams` allows any
/// positive finite ε, but the mechanisms' noise scales grow as `1/ε`:
/// denormal-range bids overflow a Laplace scale to infinity, which the
/// samplers (rightly) refuse with a panic — one malformed wire request must
/// not take the service down, so such bids are rejected *before* any budget
/// is charged. 1e-9 is far below any ε with practical utility.
pub const MIN_QUERY_EPSILON: f64 = 1e-9;

/// A validated, ready-to-run query plan.
#[derive(Debug, Clone)]
pub struct Plan {
    prepared: Prepared,
}

#[derive(Debug, Clone)]
enum Prepared {
    /// Panics on execution — only constructible from tests, via
    /// [`Plan::panicking_for_test`], to pin the engine's panic containment.
    #[cfg(test)]
    PanickingForTest,
    GoodRadius {
        t: usize,
        privacy: PrivacyParams,
        beta: f64,
        config: GoodRadiusConfig,
    },
    OneCluster {
        params: OneClusterParams,
        count_epsilon: f64,
    },
    KCluster {
        k: usize,
        params: OneClusterParams,
        count_epsilon: f64,
    },
    SampleAggregateMean {
        config: SaConfig,
    },
    Baseline {
        method: BaselineMethod,
        t: usize,
        privacy: PrivacyParams,
        beta: f64,
        count_epsilon: f64,
    },
}

/// Validates `query` against the dataset's public metadata and prepares its
/// execution. No data is read and no budget is charged here.
pub fn plan(
    query: &Query,
    privacy: PrivacyParams,
    entry: &DatasetEntry,
) -> Result<Plan, EngineError> {
    let n = entry.dataset().len();
    let invalid = |m: String| EngineError::InvalidQuery(m);
    if privacy.epsilon() < MIN_QUERY_EPSILON {
        return Err(invalid(format!(
            "query epsilon {} is below the minimum {MIN_QUERY_EPSILON} (noise scales of 1/\u{03b5} would overflow)",
            privacy.epsilon()
        )));
    }
    let check_t = |t: usize| -> Result<(), EngineError> {
        if t == 0 || t > n {
            return Err(invalid(format!(
                "target cluster size t = {t} must lie in [1, n = {n}]"
            )));
        }
        Ok(())
    };
    let check_beta = |beta: f64| -> Result<(), EngineError> {
        if !(beta.is_finite() && beta > 0.0 && beta < 1.0) {
            return Err(invalid(format!("beta must lie in (0,1), got {beta}")));
        }
        Ok(())
    };
    let prepared = match query {
        Query::GoodRadius { t, beta } => {
            check_t(*t)?;
            check_beta(*beta)?;
            Prepared::GoodRadius {
                t: *t,
                privacy,
                beta: *beta,
                config: GoodRadiusConfig::default(),
            }
        }
        Query::OneCluster {
            t,
            beta,
            paper_constants,
        } => {
            check_t(*t)?;
            let (algo_privacy, count_epsilon) = split_for_count(privacy)?;
            let mut params = OneClusterParams::new(entry.domain().clone(), *t, algo_privacy, *beta)
                .map_err(|e| invalid(e.to_string()))?;
            if *paper_constants {
                params = params.with_paper_constants();
            }
            Prepared::OneCluster {
                params,
                count_epsilon,
            }
        }
        Query::KCluster { k, t, beta } => {
            if *k == 0 {
                return Err(invalid("k must be at least 1".into()));
            }
            check_t(*t)?;
            let (algo_privacy, count_epsilon) = split_for_count(privacy)?;
            let params = OneClusterParams::new(entry.domain().clone(), *t, algo_privacy, *beta)
                .map_err(|e| invalid(e.to_string()))?;
            Prepared::KCluster {
                k: *k,
                params,
                count_epsilon,
            }
        }
        Query::SampleAggregateMean {
            block_size,
            alpha,
            beta,
        } => {
            check_beta(*beta)?;
            if *block_size == 0 {
                return Err(invalid("block size must be positive".into()));
            }
            if n < 18 * *block_size {
                return Err(invalid(format!(
                    "n = {n} is too small for block size m = {block_size}: need n ≥ 18·m"
                )));
            }
            if !(*alpha > 0.0 && *alpha <= 1.0) {
                return Err(invalid(format!("alpha must lie in (0,1], got {alpha}")));
            }
            // The aggregation is an exact 1-cluster solve over the
            // k = n/(9m) block outputs, and the exact index takes at most
            // MAX_EXACT_POINTS points. n and m are public.
            let blocks = n / (9 * *block_size);
            if blocks > MAX_EXACT_POINTS {
                return Err(invalid(format!(
                    "block size m = {block_size} gives k = n/(9m) = {blocks} block outputs; \
                     the aggregation takes at most {MAX_EXACT_POINTS}"
                )));
            }
            Prepared::SampleAggregateMean {
                config: SaConfig {
                    block_size: *block_size,
                    alpha: *alpha,
                    output_domain: entry.domain().clone(),
                    privacy,
                    beta: *beta,
                },
            }
        }
        Query::Baseline { method, t, beta } => {
            check_t(*t)?;
            check_beta(*beta)?;
            if *method == BaselineMethod::ThresholdRelease && entry.domain().dim() != 1 {
                return Err(invalid(
                    "threshold_release is a 1-dimensional method".into(),
                ));
            }
            // The non-private arm keeps the whole bid for the solver and
            // reports its count exactly (the response flags it non-private);
            // private arms fund the noisy count from the bid.
            let (algo_privacy, count_epsilon) = if method.is_private() {
                split_for_count(privacy)?
            } else {
                (privacy, 0.0)
            };
            Prepared::Baseline {
                method: *method,
                t: *t,
                privacy: algo_privacy,
                beta: *beta,
                count_epsilon,
            }
        }
    };
    Ok(Plan { prepared })
}

/// Splits a query bid into the algorithm's share and the ε funding the
/// Laplace release of the accompanying point count.
fn split_for_count(privacy: PrivacyParams) -> Result<(PrivacyParams, f64), EngineError> {
    let algo = privacy
        .scale(1.0 - COUNT_SHARE)
        .map_err(|e| EngineError::InvalidQuery(e.to_string()))?;
    Ok((algo, privacy.epsilon() * COUNT_SHARE))
}

/// Releases a 1-sensitive count through the dp crate's Laplace mechanism
/// (`(count_epsilon, 0)`-DP), rounded and clamped to the public range
/// `[0, n]` (post-processing). A `count_epsilon` of 0 means the caller is
/// the flagged non-private arm and the exact count is returned.
fn noisy_count<R: rand::Rng + ?Sized>(
    exact: usize,
    n: usize,
    count_epsilon: f64,
    rng: &mut R,
) -> usize {
    if count_epsilon <= 0.0 {
        return exact;
    }
    let mechanism = LaplaceMechanism::for_count(count_epsilon)
        .expect("MIN_QUERY_EPSILON keeps the count epsilon positive and finite");
    mechanism
        .release_count(exact, rng)
        .round()
        .clamp(0.0, n as f64) as usize
}

impl Plan {
    /// A plan whose execution panics, for regression-testing the engine's
    /// panic containment (pending-set release, lock-poison recovery).
    #[cfg(test)]
    pub(crate) fn panicking_for_test() -> Self {
        Plan {
            prepared: Prepared::PanickingForTest,
        }
    }

    /// Executes the plan on its dataset with the query's own RNG stream.
    ///
    /// The clustering arms run against the entry's shared
    /// [`GeometryBackend`] (built at registration, or lazily here on a
    /// sequential fallback), so repeated queries never redo the one-time
    /// geometry work — and the planner never branches on whether that
    /// backend is the exact index or the sub-quadratic projected sampler.
    ///
    /// [`GeometryBackend`]: privcluster_geometry::GeometryBackend
    pub fn execute(&self, entry: &DatasetEntry, seed: u64) -> Result<QueryValue, EngineError> {
        let data = entry.dataset();
        let domain = entry.domain();
        // privlint::allow(unsalted-rng): this is the root stream itself — every
        // sibling stream derives from this seed via a salt (COUNT_STREAM_SALT
        // below); the root derivation is unsalted by definition.
        let mut rng = StdRng::seed_from_u64(seed);
        match &self.prepared {
            #[cfg(test)]
            Prepared::PanickingForTest => panic!("deliberate test panic in plan execution"),
            Prepared::GoodRadius {
                t,
                privacy,
                beta,
                config,
            } => {
                let backend = entry.backend(1);
                let out = good_radius_with_index(
                    data,
                    domain,
                    *t,
                    *privacy,
                    *beta,
                    config,
                    backend.as_ref(),
                    &mut rng,
                )?;
                Ok(QueryValue::Radius { radius: out.radius })
            }
            Prepared::OneCluster {
                params,
                count_epsilon,
            } => {
                let backend = entry.backend(1);
                let out = one_cluster_with_index(data, params, backend.as_ref(), &mut rng)?;
                let captured = noisy_count(
                    data.count_in_ball(&out.ball),
                    data.len(),
                    *count_epsilon,
                    &mut rng,
                );
                Ok(ball_value(&out.ball, captured, true))
            }
            Prepared::KCluster {
                k,
                params,
                count_epsilon,
            } => {
                let backend = entry.backend(1);
                let out = k_cluster_with_index(data, *k, params, backend.as_ref(), &mut rng)?;
                let covered = noisy_count(
                    out.covered_count(data),
                    data.len(),
                    *count_epsilon,
                    &mut rng,
                );
                Ok(QueryValue::Balls {
                    balls: out.balls.iter().map(wire_ball).collect(),
                    covered,
                    coverage: if data.is_empty() {
                        0.0
                    } else {
                        covered as f64 / data.len() as f64
                    },
                    completed: out.completed,
                })
            }
            Prepared::SampleAggregateMean { config } => {
                let out = sample_and_aggregate(data, &MeanAnalysis, config, &mut rng)?;
                Ok(QueryValue::StablePoint {
                    point: out.point.coords().to_vec(),
                    radius: out.radius,
                    blocks: out.blocks,
                    t: out.t,
                })
            }
            Prepared::Baseline {
                method,
                t,
                privacy,
                beta,
                count_epsilon,
            } => {
                let solver: Box<dyn OneClusterSolver> = match method {
                    BaselineMethod::PrivateAggregation => Box::new(PrivateAggregationSolver),
                    BaselineMethod::ExponentialGrid => Box::new(ExponentialGridSolver::default()),
                    BaselineMethod::ThresholdRelease => Box::new(ThresholdReleaseSolver::default()),
                    BaselineMethod::NonPrivateTwoApprox => Box::new(NonPrivateTwoApprox),
                };
                let out = solver.solve(data, domain, *t, *privacy, *beta, seed)?;
                // The solvers re-seed their own StdRng from `seed`, so `rng`
                // here still sits at position 0 of the *same* stream — the
                // count noise must not correlate with the solver's draws
                // (basic composition needs independent randomness), so the
                // count release uses a salted, disjoint stream.
                let mut count_rng = StdRng::seed_from_u64(seed ^ COUNT_STREAM_SALT);
                let captured = noisy_count(
                    data.count_in_ball(&out.ball),
                    data.len(),
                    *count_epsilon,
                    &mut count_rng,
                );
                Ok(ball_value(&out.ball, captured, method.is_private()))
            }
        }
    }
}

fn wire_ball(ball: &Ball) -> WireBall {
    WireBall {
        center: ball.center().coords().to_vec(),
        radius: ball.radius(),
    }
}

fn ball_value(ball: &Ball, captured: usize, private: bool) -> QueryValue {
    QueryValue::Ball {
        ball: wire_ball(ball),
        captured,
        private,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use privcluster_datagen::planted_ball_cluster;
    use privcluster_dp::composition::CompositionMode;
    use privcluster_geometry::{Dataset, GridDomain};

    fn entry() -> DatasetEntry {
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let inst = planted_ball_cluster(&domain, 600, 300, 0.02, &mut rng);
        DatasetEntry::new(
            "demo",
            inst.data,
            domain,
            PrivacyParams::new(8.0, 1e-4).unwrap(),
            CompositionMode::Basic,
            privcluster_geometry::BackendKind::Exact,
        )
        .unwrap()
    }

    fn privacy() -> PrivacyParams {
        PrivacyParams::new(2.0, 1e-5).unwrap()
    }

    #[test]
    fn planning_validates_before_charging() {
        let e = entry();
        assert!(plan(&Query::GoodRadius { t: 0, beta: 0.1 }, privacy(), &e).is_err());
        assert!(plan(&Query::GoodRadius { t: 601, beta: 0.1 }, privacy(), &e).is_err());
        assert!(plan(&Query::GoodRadius { t: 10, beta: 1.5 }, privacy(), &e).is_err());
        assert!(plan(
            &Query::KCluster {
                k: 0,
                t: 10,
                beta: 0.1
            },
            privacy(),
            &e
        )
        .is_err());
        assert!(plan(
            &Query::SampleAggregateMean {
                block_size: 100,
                alpha: 0.5,
                beta: 0.1
            },
            privacy(),
            &e
        )
        .is_err()); // 600 < 18·100
        assert!(plan(
            &Query::Baseline {
                method: BaselineMethod::ThresholdRelease,
                t: 10,
                beta: 0.1
            },
            privacy(),
            &e
        )
        .is_err()); // 2-d data, 1-d method
        assert!(plan(&Query::GoodRadius { t: 300, beta: 0.1 }, privacy(), &e).is_ok());
    }

    #[test]
    fn denormal_epsilon_bids_are_rejected_before_charging() {
        let e = entry();
        let tiny = PrivacyParams::new(1e-308, 1e-6).unwrap();
        for query in [
            Query::GoodRadius { t: 300, beta: 0.1 },
            Query::OneCluster {
                t: 300,
                beta: 0.1,
                paper_constants: false,
            },
        ] {
            assert!(matches!(
                plan(&query, tiny, &e),
                Err(EngineError::InvalidQuery(_))
            ));
        }
        // Just above the floor is accepted (execution may be useless noise,
        // but it must not panic the service).
        assert!(plan(
            &Query::GoodRadius { t: 300, beta: 0.1 },
            PrivacyParams::new(1e-9, 1e-6).unwrap(),
            &e
        )
        .is_ok());
    }

    #[test]
    fn execution_is_deterministic_per_seed() {
        let e = entry();
        let p = plan(&Query::GoodRadius { t: 300, beta: 0.1 }, privacy(), &e).unwrap();
        let a = p.execute(&e, 42).unwrap();
        let b = p.execute(&e, 42).unwrap();
        assert_eq!(a, b);
        match (a, p.execute(&e, 42).unwrap()) {
            (QueryValue::Radius { radius: r1 }, QueryValue::Radius { radius: r2 }) => {
                assert_eq!(r1.to_bits(), r2.to_bits());
            }
            other => panic!("expected radii, got {other:?}"),
        }
    }

    #[test]
    fn one_cluster_plan_finds_the_planted_cluster() {
        let e = entry();
        let p = plan(
            &Query::OneCluster {
                t: 300,
                beta: 0.1,
                paper_constants: false,
            },
            PrivacyParams::new(4.0, 1e-4).unwrap(),
            &e,
        )
        .unwrap();
        match p.execute(&e, 7).unwrap() {
            QueryValue::Ball {
                captured, private, ..
            } => {
                assert!(private);
                // `captured` is Laplace-noised (scale 1/(0.1·4) = 2.5), so
                // test against a margin far beyond the noise, and the
                // public clamp range.
                assert!(captured >= 150, "captured only {captured} of 300");
                assert!(captured <= e.dataset().len());
            }
            other => panic!("expected a ball, got {other:?}"),
        }
    }

    /// GoodCenter draws one Laplace sample per histogram bin; each run
    /// builds its maps with a fresh hash seed, so two runs in one process
    /// give the same bits only if the bins are visited in a fixed order.
    /// Three equal clusters make the heavy bins close in count, so the
    /// noise a bin draws decides which one wins.
    #[test]
    fn one_cluster_execution_is_bit_identical_within_a_process() {
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let mixture = privcluster_datagen::gaussian_mixture(&domain, 3, 200, 0.02, 0, &mut rng);
        let e = DatasetEntry::new(
            "mixture",
            mixture.data,
            domain,
            PrivacyParams::new(8.0, 1e-4).unwrap(),
            CompositionMode::Basic,
            privcluster_geometry::BackendKind::Exact,
        )
        .unwrap();
        let p = plan(
            &Query::OneCluster {
                t: 200,
                beta: 0.1,
                paper_constants: false,
            },
            PrivacyParams::new(4.0, 1e-4).unwrap(),
            &e,
        )
        .unwrap();
        let bits = |value: QueryValue| match value {
            QueryValue::Ball { ball, captured, .. } => (
                ball.center
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<u64>>(),
                ball.radius.to_bits(),
                captured,
            ),
            other => panic!("expected a ball, got {other:?}"),
        };
        for seed in 0..8 {
            let first = bits(p.execute(&e, seed).unwrap());
            for _ in 0..4 {
                assert_eq!(bits(p.execute(&e, seed).unwrap()), first, "seed {seed}");
            }
        }
    }

    #[test]
    fn nonprivate_baseline_is_flagged() {
        let e = entry();
        let p = plan(
            &Query::Baseline {
                method: BaselineMethod::NonPrivateTwoApprox,
                t: 300,
                beta: 0.1,
            },
            privacy(),
            &e,
        )
        .unwrap();
        match p.execute(&e, 0).unwrap() {
            QueryValue::Ball {
                captured, private, ..
            } => {
                assert!(!private);
                assert!(captured >= 300);
            }
            other => panic!("expected a ball, got {other:?}"),
        }
    }

    #[test]
    fn empty_dataset_guard_in_coverage_is_unreachable_via_registry() {
        // Registered datasets are non-empty (Dataset::new refuses empties),
        // so the planner's division guard only defends Dataset::empty built
        // programmatically.
        assert!(Dataset::new(vec![]).is_err());
    }
}
