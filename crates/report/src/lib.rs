//! Experiment-harness output utilities: tables, summary statistics, ASCII
//! plots, and serde-serializable experiment records.
//!
//! The bench crate's experiment binaries use this crate to print their
//! table and figure reproductions and to persist machine-readable JSON
//! records next to them, so every reported number can be regenerated and
//! diffed.

#![warn(missing_docs)]

pub mod ascii_plot;
pub mod record;
pub mod stats;
pub mod table;

pub use ascii_plot::line_plot;
pub use record::{ExperimentRecord, Measurement};
pub use stats::Summary;
pub use table::Table;
