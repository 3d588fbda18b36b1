//! The workload families the generators in this crate produce.

/// The family of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One planted ball cluster inside a uniform background.
    PlantedCluster,
    /// A mixture of several Gaussian clusters (none holding a majority).
    Mixture,
    /// A dominant inlier cloud with far outliers.
    Outliers,
    /// The Figure-1 two-cluster construction.
    FigureOne,
    /// Pure uniform noise (no cluster structure at all).
    Uniform,
}
