//! `privcluster-engine` — a concurrent, budget-ledgered clustering query
//! engine and the JSON-lines wire format it is served in.
//!
//! Where the rest of the workspace offers one-shot library calls, this crate
//! is the long-lived deployment chassis: datasets are registered **once**
//! with a total `(ε, δ)` privacy budget, and every adaptive query afterwards
//! is charged against that budget under basic *or* advanced composition
//! (Dwork–Rothblum–Vadhan) until the accountant hard-refuses. That is the
//! operating model every real DP deployment (GUPT-style private
//! aggregation included) is built around, applied to the paper's query
//! surface.
//!
//! The pieces:
//!
//! * [`registry`] — named, immutable [`Dataset`]s with their
//!   [`GridDomain`]s, per-dataset budgets, and the cached geometry backend
//!   (the exact index, whose grid profiles cost `O(n²)` on first use, or
//!   the sub-quadratic projected sampler for large `n`, selected by size
//!   threshold or per-registration override);
//! * [`accountant`] — the [`BudgetAccountant`] over
//!   [`LedgerTotals`], refusing queries that would exhaust the budget;
//! * [`query`] — the [`Query`] surface: GoodRadius, 1-cluster, k-cluster,
//!   sample-and-aggregate mean, and the Table-1 baselines for A/B runs;
//! * [`planner`] — validate-then-execute plans with deterministic
//!   per-query RNG streams (seeded by the request);
//! * [`cache`] — a bounded LRU over released results: repeat queries are
//!   free in latency *and* budget (post-processing);
//! * [`pool`] — an `std::thread` worker pool; parallel batches are
//!   bit-identical to sequential runs;
//! * [`fingerprint`] — canonical query/registration fingerprints: one
//!   construction shared by the result cache and the durability journal;
//! * [`engine`] — the [`Engine`] tying admission and execution together.
//!   [`Engine::open`] wires in `privcluster-store`'s write-ahead journal:
//!   registrations and admitted charges are fsynced *before* any noisy
//!   result is released, and recovery replays snapshot + journal tail into
//!   bit-identical state (spent budget survives restarts — never refunded);
//! * [`protocol`] — the newline-delimited JSON wire format: request
//!   parsing, response encoders, and the line-framing loop. It dispatches
//!   nothing: `privcluster-server`'s `ShardedServer` is the one dispatcher,
//!   and its `serve` binary runs it over stdin/stdout or TCP
//!   (`--journal`/`--snapshot-dir`/`--snapshot-every` select the durable
//!   mode).
//!
//! # Quick start
//!
//! ```
//! use privcluster_engine::{Engine, EngineConfig, Query, QueryRequest};
//! use privcluster_dp::composition::CompositionMode;
//! use privcluster_dp::PrivacyParams;
//! use privcluster_geometry::{Dataset, GridDomain};
//!
//! let engine = Engine::new(EngineConfig {
//!     threads: 2,
//!     cache_capacity: 64,
//!     ..EngineConfig::default()
//! });
//! let domain = GridDomain::unit_cube(1, 1 << 10).unwrap();
//! let rows: Vec<Vec<f64>> = (0..100).map(|i| vec![0.5 + 0.001 * (i % 7) as f64]).collect();
//! engine
//!     .register_dataset(
//!         "demo",
//!         Dataset::from_rows(rows).unwrap(),
//!         domain,
//!         PrivacyParams::new(1.0, 1e-6).unwrap(),
//!         CompositionMode::Basic,
//!     )
//!     .unwrap();
//! let response = engine
//!     .query(&QueryRequest {
//!         dataset: "demo".into(),
//!         version: None,
//!         seed: 7,
//!         privacy: PrivacyParams::new(0.5, 1e-7).unwrap(),
//!         query: Query::GoodRadius { t: 50, beta: 0.1 },
//!     })
//!     .unwrap();
//! assert!(!response.cached);
//! // The same request again is served from the cache and charges nothing.
//! assert!(engine.query(&QueryRequest {
//!     dataset: "demo".into(),
//!     version: None,
//!     seed: 7,
//!     privacy: PrivacyParams::new(0.5, 1e-7).unwrap(),
//!     query: Query::GoodRadius { t: 50, beta: 0.1 },
//! }).unwrap().cached);
//! ```
//!
//! [`Dataset`]: privcluster_geometry::Dataset
//! [`GridDomain`]: privcluster_geometry::GridDomain
//! [`LedgerTotals`]: privcluster_dp::composition::LedgerTotals
//! [`BudgetAccountant`]: accountant::BudgetAccountant

#![warn(missing_docs)]

pub mod accountant;
pub mod cache;
pub mod engine;
pub mod error;
pub mod fingerprint;
pub mod planner;
pub mod pool;
pub mod protocol;
pub mod query;
pub mod registry;
pub mod telemetry;
mod wire;

pub use accountant::BudgetAccountant;
pub use cache::ResultCache;
pub use engine::{
    DatasetStatus, DurabilityHealth, DurabilityStatus, Engine, EngineConfig, QueryResponse,
};
pub use error::EngineError;
pub use fingerprint::{
    query_fingerprint, registration_fingerprint, versioned_query_fingerprint,
    versioned_registration_fingerprint,
};
pub use planner::{plan, Plan};
pub use protocol::{error_value, serve_lines_with, Request, MAX_REQUEST_LINE_BYTES};
pub use query::{BaselineMethod, Query, QueryRequest, QueryValue, WireBall};
pub use registry::{BackendChoice, DatasetEntry, DatasetRegistry};
pub use telemetry::Telemetry;
// The durability layer's handle types, so `Engine::open` is usable from
// the engine crate alone.
pub use privcluster_store::{GroupCommitConfig, Store, StoreConfig};
