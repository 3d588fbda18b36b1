//! `privcluster-core` — the paper's primary contribution.
//!
//! Differentially private location of a small cluster, after
//! *Locating a Small Cluster Privately* (Nissim, Stemmer, Vadhan, PODS 2016):
//! given `n` points in a discretized `d`-dimensional cube `X^d` and a target
//! size `t`, privately output a ball of radius `O(√log n · r_opt)` containing
//! at least `t − Δ` of the points, where `r_opt` is the radius of the
//! smallest ball containing `t` points.
//!
//! The pipeline follows the paper exactly:
//!
//! 1. [`good_radius`](mod@good_radius) (Algorithm 1) privately finds a
//!    radius `r ≤ 4·r_opt` such that some ball of radius `r` contains ≈ `t`
//!    points, by running a private quasi-concave solve over the
//!    low-sensitivity averaged score `L(r, S)`;
//! 2. [`good_center`](mod@good_center) (Algorithm 2) locates a center:
//!    Johnson–Lindenstrauss projection, randomly shifted box partitions
//!    scanned with the sparse vector technique, a stability-based box
//!    choice, a random rotation with per-axis stability-based interval
//!    choices, and a noisy average of the captured points;
//! 3. [`one_cluster`](mod@one_cluster) wires the two together (Theorem 3.2)
//!    and accounts for the privacy budget;
//! 4. [`kcluster`] iterates the solver to cover data with `k` balls
//!    (Observation 3.5), and [`outliers`] turns a found ball into an outlier
//!    screening predicate (§1.1).
//!
//! Every stage records a [`diagnostics::Diagnostics`] trace (noise scales,
//! chosen boxes, consumed budget) so experiments and tests can inspect what
//! happened without breaking the privacy abstraction in production use.

#![warn(missing_docs)]

pub mod config;
pub mod diagnostics;
pub mod error;
pub mod good_center;
pub mod good_radius;
pub mod guarantees;
pub mod kcluster;
pub mod one_cluster;
pub mod outliers;

pub use config::{
    CenterPreset, GoodCenterConfig, GoodRadiusConfig, OneClusterParams, RadiusSearchStrategy,
};
pub use diagnostics::Diagnostics;
pub use error::ClusterError;
pub use good_center::{good_center, GoodCenterOutcome};
pub use good_radius::{good_radius, good_radius_with_index, GoodRadiusOutcome};
pub use guarantees::TheoreticalGuarantees;
pub use kcluster::{k_cluster, k_cluster_with_index, KClusterOutcome};
pub use one_cluster::{one_cluster, one_cluster_with_index, OneClusterOutcome};
pub use outliers::{screened_noisy_mean, OutlierScreen};
