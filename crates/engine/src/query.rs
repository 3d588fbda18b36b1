//! The engine's query surface and its JSON wire encoding.
//!
//! A [`Query`] covers the paper's algorithm surface — [`Query::GoodRadius`]
//! (Algorithm 1), [`Query::OneCluster`] (Theorem 3.2), [`Query::KCluster`]
//! (Observation 3.5), [`Query::SampleAggregateMean`] (Algorithm 4 with the
//! mean analysis) — plus the Table-1 baselines behind [`Query::Baseline`]
//! for A/B runs against identical budgets.
//!
//! The vendored serde derive only handles named-field structs and unit
//! enums, so the data-carrying enums here implement [`Serialize`] /
//! [`Deserialize`] by hand against the [`Value`] tree; the encoding is the
//! documented wire format of the JSON-lines service.

use crate::error::EngineError;
use crate::wire::{num, num_array, obj, opt_bool, req_f64, req_str, req_u64, req_usize, s};
use privcluster_dp::PrivacyParams;
use serde::{Deserialize, Serialize, Value};

/// A Table-1 baseline runnable through the engine for A/B comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BaselineMethod {
    /// NRS-style private aggregation (needs a majority cluster).
    PrivateAggregation,
    /// Exponential mechanism over the full candidate-center grid.
    ExponentialGrid,
    /// 1-d threshold query release.
    ThresholdRelease,
    /// Non-private 2-approximation reference. Its ball and count are exact
    /// functions of the data, so the engine refuses it (`invalid_query`, at
    /// plan time, before any charge); the Table-1 experiments call the
    /// solver directly.
    NonPrivateTwoApprox,
}

impl BaselineMethod {
    /// The wire name of the method.
    pub fn as_str(&self) -> &'static str {
        match self {
            BaselineMethod::PrivateAggregation => "private_aggregation",
            BaselineMethod::ExponentialGrid => "exponential_grid",
            BaselineMethod::ThresholdRelease => "threshold_release",
            BaselineMethod::NonPrivateTwoApprox => "non_private_two_approx",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Result<Self, EngineError> {
        match name {
            "private_aggregation" => Ok(BaselineMethod::PrivateAggregation),
            "exponential_grid" => Ok(BaselineMethod::ExponentialGrid),
            "threshold_release" => Ok(BaselineMethod::ThresholdRelease),
            "non_private_two_approx" => Ok(BaselineMethod::NonPrivateTwoApprox),
            other => Err(EngineError::InvalidQuery(format!(
                "unknown baseline method `{other}`"
            ))),
        }
    }

    /// Whether the method satisfies differential privacy.
    pub fn is_private(&self) -> bool {
        !matches!(self, BaselineMethod::NonPrivateTwoApprox)
    }
}

/// One query against a registered dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Algorithm 1: privately estimate the radius of the smallest ball
    /// holding `t` points.
    GoodRadius {
        /// Target cluster size.
        t: usize,
        /// Failure probability β.
        beta: f64,
    },
    /// The full 1-cluster pipeline (Theorem 3.2).
    OneCluster {
        /// Target cluster size.
        t: usize,
        /// Failure probability β.
        beta: f64,
        /// Use the verbatim Algorithm-2 constants instead of the practical
        /// preset.
        paper_constants: bool,
    },
    /// The Observation-3.5 k-clustering heuristic.
    KCluster {
        /// Number of balls to release.
        k: usize,
        /// Per-round target cluster size.
        t: usize,
        /// Failure probability β.
        beta: f64,
    },
    /// Algorithm 4 (sample and aggregate) with the coordinate-wise mean
    /// analysis.
    SampleAggregateMean {
        /// Block size `m`.
        block_size: usize,
        /// Stability probability α of Definition 6.1.
        alpha: f64,
        /// Failure probability β.
        beta: f64,
    },
    /// A Table-1 baseline, for A/B runs under the same budget ledger.
    Baseline {
        /// Which baseline to run.
        method: BaselineMethod,
        /// Target cluster size.
        t: usize,
        /// Failure probability β.
        beta: f64,
    },
}

impl Query {
    /// A short human-readable label recorded in the privacy ledger.
    pub fn label(&self) -> String {
        match self {
            Query::GoodRadius { t, .. } => format!("good_radius(t={t})"),
            Query::OneCluster { t, .. } => format!("one_cluster(t={t})"),
            Query::KCluster { k, t, .. } => format!("k_cluster(k={k},t={t})"),
            Query::SampleAggregateMean { block_size, .. } => {
                format!("sample_aggregate_mean(m={block_size})")
            }
            Query::Baseline { method, t, .. } => {
                format!("baseline:{}(t={t})", method.as_str())
            }
        }
    }
}

impl Serialize for Query {
    fn to_json_value(&self) -> Value {
        match self {
            Query::GoodRadius { t, beta } => obj(vec![
                ("type", s("good_radius")),
                ("t", num(*t as f64)),
                ("beta", num(*beta)),
            ]),
            Query::OneCluster {
                t,
                beta,
                paper_constants,
            } => obj(vec![
                ("type", s("one_cluster")),
                ("t", num(*t as f64)),
                ("beta", num(*beta)),
                ("paper_constants", Value::Bool(*paper_constants)),
            ]),
            Query::KCluster { k, t, beta } => obj(vec![
                ("type", s("k_cluster")),
                ("k", num(*k as f64)),
                ("t", num(*t as f64)),
                ("beta", num(*beta)),
            ]),
            Query::SampleAggregateMean {
                block_size,
                alpha,
                beta,
            } => obj(vec![
                ("type", s("sample_aggregate_mean")),
                ("block_size", num(*block_size as f64)),
                ("alpha", num(*alpha)),
                ("beta", num(*beta)),
            ]),
            Query::Baseline { method, t, beta } => obj(vec![
                ("type", s("baseline")),
                ("method", s(method.as_str())),
                ("t", num(*t as f64)),
                ("beta", num(*beta)),
            ]),
        }
    }
}

impl Deserialize for Query {
    fn from_json_value(value: &Value) -> Result<Self, String> {
        Query::parse(value).map_err(|e| e.to_string())
    }
}

impl Query {
    /// Parses the wire encoding (the `query` object of a query request).
    pub fn parse(value: &Value) -> Result<Self, EngineError> {
        let kind = req_str(value, "type")?;
        match kind.as_str() {
            "good_radius" => Ok(Query::GoodRadius {
                t: req_usize(value, "t")?,
                beta: req_f64(value, "beta")?,
            }),
            "one_cluster" => Ok(Query::OneCluster {
                t: req_usize(value, "t")?,
                beta: req_f64(value, "beta")?,
                paper_constants: opt_bool(value, "paper_constants")?,
            }),
            "k_cluster" => Ok(Query::KCluster {
                k: req_usize(value, "k")?,
                t: req_usize(value, "t")?,
                beta: req_f64(value, "beta")?,
            }),
            "sample_aggregate_mean" => Ok(Query::SampleAggregateMean {
                block_size: req_usize(value, "block_size")?,
                alpha: req_f64(value, "alpha")?,
                beta: req_f64(value, "beta")?,
            }),
            "baseline" => Ok(Query::Baseline {
                method: BaselineMethod::parse(&req_str(value, "method")?)?,
                t: req_usize(value, "t")?,
                beta: req_f64(value, "beta")?,
            }),
            other => Err(EngineError::InvalidQuery(format!(
                "unknown query type `{other}`"
            ))),
        }
    }
}

/// A fully addressed query: dataset, per-query privacy bid, and the seed
/// that makes the run reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryRequest {
    /// The registered dataset to run against.
    pub dataset: String,
    /// Which dataset version to run against: `None` (the default) resolves
    /// to the latest version at admission; `Some(v)` pins an exact version
    /// (useful to replay a result cached before a re-registration). A pin
    /// that names a nonexistent version is refused before any charge.
    pub version: Option<u64>,
    /// Seed of the query's private RNG stream. Identical requests (same
    /// dataset, version, seed, budget, and query) are served from the
    /// result cache.
    pub seed: u64,
    /// The `(ε, δ)` this query bids against the dataset's budget.
    pub privacy: PrivacyParams,
    /// The query itself.
    pub query: Query,
}

impl QueryRequest {
    /// The deterministic cache key — the request's canonical
    /// [`query_fingerprint`] at its pinned version (or version 1 when
    /// unpinned), which is also the key its budget charge is journaled
    /// under (one construction for both, so the replay cache rebuilt from
    /// the journal can never disagree with the live one). The engine
    /// resolves unpinned requests to the latest version and keys with
    /// [`versioned_query_fingerprint`] instead.
    ///
    /// [`query_fingerprint`]: crate::fingerprint::query_fingerprint
    /// [`versioned_query_fingerprint`]: crate::fingerprint::versioned_query_fingerprint
    pub fn cache_key(&self) -> String {
        crate::fingerprint::query_fingerprint(self)
    }

    /// Parses the wire encoding of a query request.
    pub fn parse(value: &Value) -> Result<Self, EngineError> {
        let epsilon = req_f64(value, "epsilon")?;
        let delta = req_f64(value, "delta")?;
        let privacy = PrivacyParams::new(epsilon, delta)
            .map_err(|e| EngineError::InvalidQuery(e.to_string()))?;
        let version = crate::wire::opt_u64(value, "version")?;
        if version == Some(0) {
            return Err(EngineError::InvalidQuery(
                "field `version` must be >= 1 (versions start at 1)".into(),
            ));
        }
        Ok(QueryRequest {
            dataset: req_str(value, "dataset")?,
            version,
            seed: req_u64(value, "seed")?,
            privacy,
            query: Query::parse(crate::wire::req(value, "query")?)?,
        })
    }
}

impl Serialize for QueryRequest {
    fn to_json_value(&self) -> Value {
        let mut entries = vec![("dataset", s(self.dataset.clone()))];
        if let Some(version) = self.version {
            entries.push(("version", num(version as f64)));
        }
        entries.extend(vec![
            ("seed", num(self.seed as f64)),
            ("epsilon", num(self.privacy.epsilon())),
            ("delta", num(self.privacy.delta())),
            ("query", self.query.to_json_value()),
        ]);
        obj(entries)
    }
}

impl Deserialize for QueryRequest {
    fn from_json_value(value: &Value) -> Result<Self, String> {
        QueryRequest::parse(value).map_err(|e| e.to_string())
    }
}

/// A released ball on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct WireBall {
    /// Ball center coordinates.
    pub center: Vec<f64>,
    /// Ball radius.
    pub radius: f64,
}

impl Serialize for WireBall {
    fn to_json_value(&self) -> Value {
        obj(vec![
            ("center", num_array(&self.center)),
            ("radius", num(self.radius)),
        ])
    }
}

impl WireBall {
    fn parse(value: &Value) -> Result<Self, EngineError> {
        Ok(WireBall {
            center: parse_f64_array(crate::wire::req(value, "center")?, "center")?,
            radius: req_f64(value, "radius")?,
        })
    }
}

fn parse_f64_array(value: &Value, field: &str) -> Result<Vec<f64>, EngineError> {
    value
        .as_array()
        .ok_or_else(|| EngineError::Protocol(format!("field `{field}` must be an array")))?
        .iter()
        .map(|c| {
            c.as_f64()
                .ok_or_else(|| EngineError::Protocol(format!("field `{field}` must hold numbers")))
        })
        .collect()
}

/// The released (DP-safe) payload of a successful query. Every variant is
/// pure output of a differentially private mechanism (or of post-processing
/// on one), so it is safe to return, cache, and replay.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryValue {
    /// A released radius (GoodRadius).
    Radius {
        /// The radius estimate.
        radius: f64,
    },
    /// A released ball (1-cluster and baselines), with the number of input
    /// points it captured. Counts are 1-sensitive, so private arms release
    /// them through a Laplace mechanism funded by a
    /// [`COUNT_SHARE`](crate::planner::COUNT_SHARE) slice of the query's ε
    /// bid (non-private baselines report the exact count).
    Ball {
        /// The released ball.
        ball: WireBall,
        /// Laplace-noised number of dataset points inside the ball
        /// (exact only for the non-private baseline arm).
        captured: usize,
        /// Whether the producing method is differentially private.
        private: bool,
    },
    /// Released balls of the k-clustering heuristic.
    Balls {
        /// The released balls in discovery order.
        balls: Vec<WireBall>,
        /// Laplace-noised number of points covered by at least one ball
        /// (funded like [`QueryValue::Ball`]'s `captured`).
        covered: usize,
        /// `covered / n` (post-processing of the noisy count).
        coverage: f64,
        /// Whether all `k` rounds produced a ball.
        completed: bool,
    },
    /// A released stable point (sample and aggregate).
    StablePoint {
        /// The stable point.
        point: Vec<f64>,
        /// Radius of the released ball around it.
        radius: f64,
        /// Number of analysis blocks.
        blocks: usize,
        /// The 1-cluster target `t = αk/2` used by the aggregator.
        t: usize,
    },
}

impl Serialize for QueryValue {
    fn to_json_value(&self) -> Value {
        match self {
            QueryValue::Radius { radius } => {
                obj(vec![("type", s("radius")), ("radius", num(*radius))])
            }
            QueryValue::Ball {
                ball,
                captured,
                private,
            } => obj(vec![
                ("type", s("ball")),
                ("center", num_array(&ball.center)),
                ("radius", num(ball.radius)),
                ("captured", num(*captured as f64)),
                ("private", Value::Bool(*private)),
            ]),
            QueryValue::Balls {
                balls,
                covered,
                coverage,
                completed,
            } => obj(vec![
                ("type", s("balls")),
                (
                    "balls",
                    Value::Array(balls.iter().map(|b| b.to_json_value()).collect()),
                ),
                ("covered", num(*covered as f64)),
                ("coverage", num(*coverage)),
                ("completed", Value::Bool(*completed)),
            ]),
            QueryValue::StablePoint {
                point,
                radius,
                blocks,
                t,
            } => obj(vec![
                ("type", s("stable_point")),
                ("point", num_array(point)),
                ("radius", num(*radius)),
                ("blocks", num(*blocks as f64)),
                ("t", num(*t as f64)),
            ]),
        }
    }
}

impl QueryValue {
    /// Parses the wire encoding — the inverse of the [`Serialize`] impl.
    /// Recovery uses this to rebuild the zero-charge replay cache from the
    /// journal's release records, so the round trip is pinned by test to be
    /// exact (the JSON layer prints floats in shortest round-trip form).
    pub fn parse(value: &Value) -> Result<Self, EngineError> {
        match req_str(value, "type")?.as_str() {
            "radius" => Ok(QueryValue::Radius {
                radius: req_f64(value, "radius")?,
            }),
            "ball" => Ok(QueryValue::Ball {
                ball: WireBall::parse(value)?,
                captured: req_usize(value, "captured")?,
                private: crate::wire::req_bool(value, "private")?,
            }),
            "balls" => Ok(QueryValue::Balls {
                balls: crate::wire::req(value, "balls")?
                    .as_array()
                    .ok_or_else(|| EngineError::Protocol("field `balls` must be an array".into()))?
                    .iter()
                    .map(WireBall::parse)
                    .collect::<Result<Vec<_>, _>>()?,
                covered: req_usize(value, "covered")?,
                coverage: req_f64(value, "coverage")?,
                completed: crate::wire::req_bool(value, "completed")?,
            }),
            "stable_point" => Ok(QueryValue::StablePoint {
                point: parse_f64_array(crate::wire::req(value, "point")?, "point")?,
                radius: req_f64(value, "radius")?,
                blocks: req_usize(value, "blocks")?,
                t: req_usize(value, "t")?,
            }),
            other => Err(EngineError::Protocol(format!(
                "unknown result type `{other}`"
            ))),
        }
    }
}

impl Deserialize for QueryValue {
    fn from_json_value(value: &Value) -> Result<Self, String> {
        QueryValue::parse(value).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(query: Query) -> QueryRequest {
        QueryRequest {
            dataset: "demo".into(),
            version: None,
            seed: 7,
            privacy: PrivacyParams::new(0.5, 1e-7).unwrap(),
            query,
        }
    }

    #[test]
    fn queries_round_trip_through_json() {
        let queries = vec![
            Query::GoodRadius { t: 10, beta: 0.1 },
            Query::OneCluster {
                t: 20,
                beta: 0.05,
                paper_constants: true,
            },
            Query::KCluster {
                k: 3,
                t: 30,
                beta: 0.1,
            },
            Query::SampleAggregateMean {
                block_size: 50,
                alpha: 0.8,
                beta: 0.1,
            },
            Query::Baseline {
                method: BaselineMethod::PrivateAggregation,
                t: 40,
                beta: 0.2,
            },
        ];
        for q in queries {
            let json = serde_json::to_string(&q).unwrap();
            let back: Query = serde_json::from_str(&json).unwrap();
            assert_eq!(back, q, "round trip failed for {json}");
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let req = request(Query::OneCluster {
            t: 100,
            beta: 0.1,
            paper_constants: false,
        });
        let json = serde_json::to_string(&req).unwrap();
        let back: QueryRequest = serde_json::from_str(&json).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn cache_keys_separate_every_request_component() {
        let base = request(Query::GoodRadius { t: 10, beta: 0.1 });
        let mut other_seed = base.clone();
        other_seed.seed = 8;
        let mut other_eps = base.clone();
        other_eps.privacy = PrivacyParams::new(0.25, 1e-7).unwrap();
        let mut other_query = base.clone();
        other_query.query = Query::GoodRadius { t: 11, beta: 0.1 };
        let mut other_dataset = base.clone();
        other_dataset.dataset = "demo2".into();
        let keys = [
            base.cache_key(),
            other_seed.cache_key(),
            other_eps.cache_key(),
            other_query.cache_key(),
            other_dataset.cache_key(),
        ];
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
        assert_eq!(base.cache_key(), base.clone().cache_key());
    }

    #[test]
    fn query_values_round_trip_bit_exactly() {
        let values = vec![
            QueryValue::Radius { radius: 0.1 + 0.2 },
            QueryValue::Ball {
                ball: WireBall {
                    center: vec![0.1, f64::from_bits(0.25f64.to_bits() + 1)],
                    radius: 1e-17,
                },
                captured: 41,
                private: true,
            },
            QueryValue::Balls {
                balls: vec![
                    WireBall {
                        center: vec![0.5],
                        radius: 0.25,
                    },
                    WireBall {
                        center: vec![0.75],
                        radius: 0.0,
                    },
                ],
                covered: 10,
                coverage: 1.0 / 3.0,
                completed: false,
            },
            QueryValue::StablePoint {
                point: vec![0.3, 0.7],
                radius: 0.01,
                blocks: 12,
                t: 5,
            },
        ];
        for value in values {
            let json = serde_json::to_string(&value).unwrap();
            let back: QueryValue = serde_json::from_str(&json).unwrap();
            assert_eq!(back, value, "round trip failed for {json}");
        }
        let bad: Value = serde_json::from_str(r#"{"type":"mystery"}"#).unwrap();
        assert!(QueryValue::parse(&bad).is_err());
        let missing: Value = serde_json::from_str(r#"{"type":"ball","radius":1.0}"#).unwrap();
        assert!(QueryValue::parse(&missing).is_err());
    }

    #[test]
    fn malformed_queries_are_rejected() {
        let bad: Value = serde_json::from_str(r#"{"type":"mystery","t":1}"#).unwrap();
        assert!(Query::parse(&bad).is_err());
        let missing: Value = serde_json::from_str(r#"{"type":"good_radius"}"#).unwrap();
        assert!(Query::parse(&missing).is_err());
        assert!(BaselineMethod::parse("nope").is_err());
        let bad_eps: Value = serde_json::from_str(
            r#"{"dataset":"d","seed":1,"epsilon":-1.0,"delta":0.0,"query":{"type":"good_radius","t":1,"beta":0.1}}"#,
        )
        .unwrap();
        assert!(QueryRequest::parse(&bad_eps).is_err());
    }

    #[test]
    fn baseline_methods_know_their_privacy() {
        assert!(BaselineMethod::PrivateAggregation.is_private());
        assert!(BaselineMethod::ExponentialGrid.is_private());
        assert!(BaselineMethod::ThresholdRelease.is_private());
        assert!(!BaselineMethod::NonPrivateTwoApprox.is_private());
        for m in [
            BaselineMethod::PrivateAggregation,
            BaselineMethod::ExponentialGrid,
            BaselineMethod::ThresholdRelease,
            BaselineMethod::NonPrivateTwoApprox,
        ] {
            assert_eq!(BaselineMethod::parse(m.as_str()).unwrap(), m);
        }
    }

    #[test]
    fn query_labels_name_the_algorithm() {
        assert_eq!(
            Query::GoodRadius { t: 5, beta: 0.1 }.label(),
            "good_radius(t=5)"
        );
        assert!(Query::Baseline {
            method: BaselineMethod::ExponentialGrid,
            t: 2,
            beta: 0.1
        }
        .label()
        .contains("exponential_grid"));
    }
}
