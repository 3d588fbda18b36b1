//! Geometric substrate for the `privcluster` workspace.
//!
//! This crate implements every geometric component the paper
//! *Locating a Small Cluster Privately* (Nissim, Stemmer, Vadhan, PODS 2016)
//! relies on:
//!
//! * points in `R^d`, datasets, and the discretized domain `X^d`
//!   ([`point`], [`dataset`], [`domain`]);
//! * balls, ball-counting queries `B_r(x)` and their capped variants
//!   `B̄_r(x) = min(B_r(x), t)` ([`ball`], [`ball_count`]);
//! * axis-aligned boxes and randomly shifted interval partitions used by
//!   `GoodCenter` ([`box_region`], [`partition`]);
//! * the Johnson–Lindenstrauss transform (Lemma 4.10) and random orthonormal
//!   bases (Lemma 4.9) ([`jl`], [`rotation`]);
//! * reference minimum-enclosing-ball solvers: Welzl's algorithm for all
//!   points, the folklore 2-approximation for "smallest ball containing `t`
//!   points" (fact 3 in §3 of the paper), and an exhaustive small-case solver
//!   ([`meb`]);
//! * the paper's `L(r, S)` on GoodRadius's radius grid, one counting pass
//!   over a dataset's points ([`grid_profile`], [`distance`]), the
//!   shareable per-dataset [`index::GeometryIndex`] that memoises it, and
//!   the pluggable [`backend::GeometryBackend`] abstraction whose
//!   [`backend::ProjectedBackend`] answers the same queries
//!   sub-quadratically from JL-projected, grid-bucketed samples;
//! * the single tolerance definition every distance comparison goes through
//!   ([`tol`]), the scoped-thread worker pool the engine's batch executor
//!   drives ([`pool`]), and the poison-recovering lock helpers every
//!   crate's shared state goes through ([`sync`]);
//! * the small dense-linear-algebra helpers (Gram–Schmidt, matrix-vector
//!   products) needed by the above ([`linalg`]).
//!
//! The crate has no differential-privacy logic; it is deliberately a pure
//! computational-geometry library so that privacy reasoning lives entirely in
//! `privcluster-dp` and `privcluster-core`.

#![warn(missing_docs)]

pub mod backend;
pub mod ball;
pub mod ball_count;
pub mod box_region;
pub mod dataset;
pub mod distance;
pub mod domain;
pub mod error;
pub mod grid_profile;
pub mod index;
pub mod jl;
pub mod linalg;
pub mod meb;
pub mod partition;
pub mod point;
pub mod pool;
pub mod rotation;
pub mod sync;
pub mod tol;

pub use backend::{BackendKind, GeometryBackend, ProjectedBackend, ProjectedConfig};
pub use ball::Ball;
pub use ball_count::BallCounter;
pub use box_region::AxisAlignedBox;
pub use dataset::Dataset;
pub use distance::DistanceMatrix;
pub use domain::GridDomain;
pub use error::GeometryError;
pub use grid_profile::GridProfile;
pub use index::GeometryIndex;
pub use jl::JlTransform;
pub use meb::{
    exhaustive_smallest_ball, smallest_ball_two_approx, smallest_interval_1d, welzl_meb,
};
pub use partition::{BoxPartition, ShiftedIntervalPartition};
pub use point::Point;
pub use rotation::OrthonormalBasis;
