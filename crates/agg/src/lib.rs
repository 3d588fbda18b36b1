//! Sample and aggregate (Section 6) built on the private 1-cluster solver.
//!
//! Given an arbitrary (non-private) analysis `f : U* → X^d` that stabilizes
//! under sub-sampling — evaluating it on `m` i.i.d. samples from `S` lands
//! within distance `r` of some point `c` with probability `α`
//! (Definition 6.1) — Algorithm `SA` turns it into an `(ε, δ)`-private
//! analysis: evaluate `f` on `k = n/(9m)` disjoint sub-sample blocks and feed
//! the `k` outputs to the 1-cluster algorithm with `t = αk/2`. The returned
//! center is an `(m, O(r·√log n), α/8)`-stable point of `f` on `S`
//! (Theorem 6.3), i.e. a private stand-in for `f(S)`.
//!
//! * [`sa`] — Algorithm 4 (`SA`);
//! * [`analyses`] — ready-made aggregatable analyses `f` (mean, median,
//!   coordinate-wise trimmed mean, OLS slope);
//! * [`applications`] — end-user estimators built on `SA`, plus the
//!   GUPT-style "private averaging of the block outputs" comparator used in
//!   experiment E7.

#![warn(missing_docs)]

pub mod analyses;
pub mod applications;
pub mod sa;

pub use analyses::{
    BlockAnalysis, MeanAnalysis, MedianAnalysis, OlsSlopeAnalysis, TrimmedMeanAnalysis,
};
pub use applications::{gupt_style_average, private_mean_via_sa};
pub use sa::{sample_and_aggregate, SaConfig, SaOutcome};
