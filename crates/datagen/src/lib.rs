//! Synthetic workload generators for the `privcluster` experiments.
//!
//! The paper is a theory paper and carries no datasets; its motivating
//! scenarios (§1.1 — map search, outlier screening, sub-sampled aggregation)
//! and its hard instances (§3.1's sensitivity example) are what the
//! experiment harness needs as inputs. This crate generates them:
//!
//! * [`cluster`] — a single planted ball cluster inside a uniform
//!   background, the canonical 1-cluster instance;
//! * [`mixture`] — mixtures of several clusters, for the k-clustering
//!   heuristic of Observation 3.5 and for the "no majority cluster" failure
//!   mode of the private-aggregation baseline;
//! * [`outliers`] — a large inlier cloud plus far outliers, for the outlier
//!   screening application;
//! * [`adversarial`] — the sensitivity example of §3.1 and other worst-case
//!   instances;
//! * [`geo`] — two-dimensional "map search" hotspot data.

#![warn(missing_docs)]

pub mod adversarial;
pub mod cluster;
pub mod geo;
pub mod mixture;
pub mod outliers;

pub use adversarial::{no_majority_pair, sensitivity_example};
pub use cluster::{planted_ball_cluster, uniform_background, PlantedCluster};
pub use geo::geo_hotspots;
pub use mixture::gaussian_mixture;
pub use outliers::inliers_with_outliers;
