//! `privcluster` — differentially private location of a small cluster.
//!
//! A Rust reproduction of *Locating a Small Cluster Privately*
//! (Nissim, Stemmer, Vadhan, PODS 2016). This facade crate re-exports the
//! whole workspace:
//!
//! * [`core`] — the paper's algorithms (GoodRadius, GoodCenter, the 1-cluster
//!   pipeline, the k-cluster heuristic, outlier screening);
//! * [`dp`] — the differential-privacy substrate (Laplace/Gaussian/exponential
//!   mechanisms, sparse vector, stability histograms, quasi-concave solvers,
//!   composition);
//! * [`geometry`] — points, balls, grid domains, JL transforms, rotations,
//!   minimum-enclosing-ball references;
//! * [`baselines`] — every method of the paper's Table 1;
//! * [`agg`] — sample and aggregate (Section 6);
//! * [`lowerbound`] — the Section-5 impossibility machinery;
//! * [`datagen`] — synthetic workloads;
//! * [`report`] — experiment-output helpers;
//! * [`engine`] — the long-lived query engine: registered datasets, a
//!   budget accountant enforcing composition across adaptive queries, a
//!   result cache, a worker pool, and the JSON-lines wire protocol;
//! * [`server`] — the serving layer: per-dataset engine shards behind one
//!   protocol, admission backpressure, concurrent TCP serving, and the
//!   `serve` / `loadgen` binaries;
//! * [`store`] — the engine's durability layer: an append-only checksummed
//!   journal of registrations, budget charges, and released results,
//!   periodic snapshots, and deterministic crash recovery (spent budget
//!   survives restarts — never refunded);
//! * [`obs`] — privacy-aware telemetry: lock-free metrics (counters,
//!   gauges, latency histograms), spans, and a bounded structured event
//!   stream, all bound by the no-payload-data contract (timings, counts,
//!   fingerprints and `(ε, δ)` aggregates only — never coordinates, radii,
//!   or released values).
//!
//! # Quick start
//!
//! ```
//! use privcluster::prelude::*;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(7);
//! // A planted cluster of 1000 points among 2000, in [0,1]^2 on a 2^14 grid.
//! let domain = GridDomain::unit_cube(2, 1 << 14).unwrap();
//! let instance = planted_ball_cluster(&domain, 2000, 1000, 0.02, &mut rng);
//!
//! let params = OneClusterParams::new(
//!     domain,
//!     1000,
//!     PrivacyParams::new(2.0, 1e-5).unwrap(),
//!     0.1,
//! )
//! .unwrap();
//! let found = one_cluster(&instance.data, &params, &mut rng).unwrap();
//! assert!(instance.captured(&found.ball) >= 700);
//! ```

pub use privcluster_agg as agg;
pub use privcluster_baselines as baselines;
pub use privcluster_core as core;
pub use privcluster_datagen as datagen;
pub use privcluster_dp as dp;
pub use privcluster_engine as engine;
pub use privcluster_geometry as geometry;
pub use privcluster_lowerbound as lowerbound;
pub use privcluster_obs as obs;
pub use privcluster_report as report;
pub use privcluster_server as server;
pub use privcluster_store as store;

/// The most commonly used items, for glob import.
pub mod prelude {
    pub use privcluster_agg::{sample_and_aggregate, MeanAnalysis, SaConfig};
    pub use privcluster_baselines::{OneClusterSolver, PrivClusterSolver};
    pub use privcluster_core::{
        good_center, good_radius, good_radius_with_index, k_cluster, k_cluster_with_index,
        one_cluster, one_cluster_with_index, screened_noisy_mean, GoodCenterConfig,
        GoodRadiusConfig, OneClusterParams, OutlierScreen,
    };
    pub use privcluster_datagen::{
        gaussian_mixture, geo_hotspots, inliers_with_outliers, planted_ball_cluster,
    };
    pub use privcluster_dp::composition::CompositionMode;
    pub use privcluster_dp::PrivacyParams;
    pub use privcluster_engine::{
        BackendChoice, DurabilityStatus, Engine, EngineConfig, Query, QueryRequest,
    };
    pub use privcluster_geometry::{
        BackendKind, Ball, Dataset, GeometryBackend, GeometryIndex, GridDomain, Point,
        ProjectedBackend, ProjectedConfig,
    };
    pub use privcluster_obs::{EventStream, MetricsRegistry, MetricsSnapshot, Severity};
    pub use privcluster_server::{shard_of, ShardedServer};
    pub use privcluster_store::{GroupCommitConfig, Store, StoreConfig};
}
