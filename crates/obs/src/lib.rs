//! `privcluster-obs` — privacy-aware telemetry for the workspace: lock-free
//! metrics and a bounded structured event stream.
//!
//! A production DP service must observe itself *without* leaking what DP
//! protects. The whole crate is therefore built around one contract:
//!
//! # The no-payload-data contract
//!
//! Telemetry records **timings, counts, sequence numbers, fingerprints, and
//! `(ε, δ)` aggregates — never data coordinates, query radii, or released
//! values.** A metric label or event field that carries a point, a radius,
//! or a noisy release would turn the observability plane into a side
//! channel that bypasses the budget accountant entirely. The
//! `event-payload-leak` privlint rule enforces this contract statically at
//! every `event!` call site.
//!
//! The pieces:
//!
//! * [`metrics`] — [`Counter`], [`Gauge`], and fixed-bucket [`Histogram`]
//!   primitives. All three are plain atomics: recording on the hot path is
//!   lock-free and never blocks the caller.
//! * [`registry`] — the [`MetricsRegistry`]: named (optionally labeled)
//!   series, handed out as `Arc`s so instrumented code resolves its series
//!   once and then touches only atomics. [`MetricsRegistry::snapshot`] is a
//!   consistent point-in-time read rendered to canonical JSON.
//! * [`event`](mod@event) — [`Severity`]-tagged structured JSON events in a
//!   bounded ring buffer ([`EventStream`]), with an optional append-only
//!   file sink (`serve --events PATH`). The [`event!`] macro is the one
//!   sanctioned way to emit.
//! * [`prom`] — Prometheus-style text rendering of a snapshot, served by
//!   `serve --metrics ADDR`.
//!
//! The crate sits at the bottom of the workspace dependency stack (only the
//! vendored `serde` shims below it), so the engine, store, and geometry
//! crates can all report into one registry.

#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod prom;
pub mod registry;
pub mod time;

pub use event::{Event, EventStream, Severity};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
pub use registry::{MetricsRegistry, MetricsSnapshot, SeriesId};
pub use time::Stopwatch;

/// Locks a mutex, recovering the data from a poisoned guard. Telemetry
/// state is only ever appended to or overwritten whole, so a panicking
/// holder cannot leave it mid-mutation; dying on poison would let one
/// panicking query kill the observability plane exactly when it is most
/// needed.
pub(crate) fn lock_recover<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`lock_recover`] for `RwLock` read guards.
pub(crate) fn read_recover<T>(lock: &std::sync::RwLock<T>) -> std::sync::RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// [`lock_recover`] for `RwLock` write guards.
pub(crate) fn write_recover<T>(lock: &std::sync::RwLock<T>) -> std::sync::RwLockWriteGuard<'_, T> {
    lock.write()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
