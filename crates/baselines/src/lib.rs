//! Baselines for the Table-1 comparison.
//!
//! Every row of the paper's Table 1 is implemented behind the common
//! [`solver::OneClusterSolver`] interface so the experiment harness can run
//! them side by side on identical workloads:
//!
//! * [`private_aggregation`] — the Nissim–Raskhodnikova–Smith style
//!   aggregation (requires a majority cluster, radius error `Θ(√d/ε)`);
//! * [`exponential_grid`] — the exponential mechanism over all candidate
//!   centers of the discretized grid plus a private radius search
//!   (`w = 1`, but running time `poly(|X|^d)`);
//! * [`threshold_release`] — query release for threshold functions in
//!   dimension 1 (a hierarchical/binary-tree CDF release), followed by a scan
//!   for the smallest interval holding ≈ `t` points;
//! * [`nonprivate`] — the non-private 2-approximation reference.
//!
//! Where a row deviates from the construction the paper cites, its module
//! says how; the README's "Substitutions and experiments" lists the
//! deviations.

#![warn(missing_docs)]

pub mod exponential_grid;
pub mod nonprivate;
pub mod private_aggregation;
pub mod solver;
pub mod threshold_release;

pub use exponential_grid::ExponentialGridSolver;
pub use nonprivate::NonPrivateTwoApprox;
pub use private_aggregation::PrivateAggregationSolver;
pub use solver::{OneClusterSolver, PrivClusterSolver, SolverOutput};
pub use threshold_release::ThresholdReleaseSolver;
