//! Differential-privacy substrate for the `privcluster` workspace.
//!
//! Every privacy-preserving primitive the paper *Locating a Small Cluster
//! Privately* (Nissim, Stemmer, Vadhan, PODS 2016) builds on is implemented
//! here, from scratch, on top of `rand` only:
//!
//! * privacy parameters, budgets and composition (Definition 1.1,
//!   Theorems 2.1 and 4.7) — [`params`], [`composition`];
//! * the Laplace mechanism (Theorem 2.3) — [`laplace`];
//! * the `NoisyAVG` noisy-average procedure of Appendix A (Algorithm 5),
//!   with Gaussian noise calibrated as in Theorem 2.4 — [`noisy_avg`];
//! * the McSherry–Talwar exponential mechanism, including an implementation
//!   over *piecewise-constant* qualities on enormous ordered domains, which
//!   is what makes GoodRadius's radius search run in `poly(n)` time
//!   (Remark 4.4) — [`exponential`];
//! * the sparse-vector technique / `AboveThreshold` (Theorem 4.8) —
//!   [`sparse_vector`];
//! * stability-based choice of a heavy set from a partition (Theorem 2.5) —
//!   [`stability_histogram`];
//! * quasi-concave promise problems (Definition 4.2) and a private solver for
//!   them behind the interface of Theorem 4.3 — [`quasiconcave`];
//! * Laplace/Gaussian samplers and numeric helpers (`log*`, `tower`) —
//!   [`sampling`], [`util`].
//!
//! # A note on rigour
//!
//! The mechanisms are faithful implementations of the cited theorems and the
//! unit tests check calibration (noise scales, thresholds, utility bounds)
//! and include *statistical* likelihood-ratio smoke tests on neighbouring
//! inputs. Those tests are sanity checks of the implementation, not proofs;
//! the privacy guarantees themselves are the cited theorems applied to the
//! implemented noise distributions, assuming an ideal source of randomness
//! and real-valued arithmetic (floating-point side channels à la Mironov are
//! out of scope for this reproduction).

#![warn(missing_docs)]

pub mod composition;
pub mod error;
pub mod exponential;
pub mod laplace;
pub mod noisy_avg;
pub mod params;
pub mod quasiconcave;
pub mod sampling;
pub mod sparse_vector;
pub mod stability_histogram;
pub mod util;

pub use composition::{
    advanced_composition, basic_composition, CompositionMode, LedgerTotals, PrivacyLedger,
};
pub use error::DpError;
pub use exponential::{
    exponential_mechanism, piecewise_exponential_mechanism, PiecewiseQuality, Segment,
};
pub use laplace::LaplaceMechanism;
pub use noisy_avg::{noisy_average, NoisyAvgConfig};
pub use params::PrivacyParams;
pub use quasiconcave::{solve_quasiconcave, QcSolverConfig, QualityOracle, SliceOracle};
pub use sparse_vector::AboveThreshold;
pub use stability_histogram::{choose_heavy_bin, StabilityHistogramConfig};
