//! The engine's worker pool.
//!
//! The implementation lives in [`privcluster_geometry::pool`] — the bottom
//! of the workspace dependency stack. Jobs drain FIFO and results come back
//! in submission order; because every engine query carries its own seed and
//! runs on its own RNG stream, scheduling cannot influence results —
//! parallel execution is bit-identical to sequential (asserted by the
//! `concurrency_determinism` integration test).

pub use privcluster_geometry::pool::{jobs_submitted, queue_depth, run_on_pool};
