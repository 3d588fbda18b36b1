//! Section 5: the impossibility of solving the 1-cluster problem over
//! infinite domains, via the interior-point problem.
//!
//! * [`interior_point`] — Definition 5.1 (the interior-point problem), a
//!   non-private reference solver, and hard-instance generators;
//! * [`intpoint`] — Algorithm 3 (`IntPoint`): the reduction that turns any
//!   private 1-cluster solver into a private interior-point solver, which by
//!   Theorem 5.2 (\[BNSV15\]) forces the 1-cluster sample complexity to grow
//!   with `log*|X|` (Corollary 5.4);
//! * [`scaling`] — the `tower`/`log*` arithmetic of Corollary 5.4, exposed so
//!   experiment E8 can tabulate how the bound behaves.

#![warn(missing_docs)]

pub mod interior_point;
pub mod intpoint;
pub mod scaling;

pub use interior_point::{is_interior_point, InteriorPointInstance};
pub use intpoint::{int_point, IntPointOutcome};
pub use scaling::{corollary_5_4_sample_bound, max_tolerable_w};
