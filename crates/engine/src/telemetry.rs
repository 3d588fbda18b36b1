//! The engine's telemetry plane: one [`MetricsRegistry`], one
//! [`EventStream`], and pre-resolved handles for every hot-path series.
//!
//! Telemetry is **always on and observably passive**: the handles below are
//! plain atomics (resolved once at engine construction), so recording on
//! the admission path is a few atomic adds — no locks, no allocation, no
//! branching that could change a response. Golden wire transcripts are
//! bit-identical with and without a scraper attached.
//!
//! Everything recorded obeys the obs crate's no-payload-data contract:
//! timings, counts, sequence numbers, fingerprints, and `(ε, δ)`
//! aggregates — never data coordinates, query radii, or released values.

use privcluster_obs::{Counter, EventStream, Histogram, MetricsRegistry};
use std::sync::Arc;

/// Shared telemetry state for one [`Engine`](crate::Engine).
#[derive(Debug)]
pub struct Telemetry {
    registry: Arc<MetricsRegistry>,
    events: Arc<EventStream>,
    /// Admission latency (cache lookup + plan + charge + journal fsync).
    pub(crate) admission_seconds: Arc<Histogram>,
    /// Plan execution latency (the noisy algorithm itself).
    pub(crate) execute_seconds: Arc<Histogram>,
    /// Geometry backend build latency (registration / recovery).
    pub(crate) backend_build_seconds: Arc<Histogram>,
    /// Journal commit fsync latency (recorded by the attached store).
    pub(crate) fsync_seconds: Arc<Histogram>,
    /// Records covered by each group-commit batch fsync (recorded by the
    /// attached store).
    pub(crate) group_commit_batch_size: Arc<Histogram>,
    /// Every query reaching admission.
    pub(crate) queries_total: Arc<Counter>,
    /// Queries that charged the ledger and ran.
    pub(crate) queries_granted_total: Arc<Counter>,
    /// Admissions served from the released-result cache (zero charge).
    pub(crate) cache_hits_total: Arc<Counter>,
    /// Admissions that missed the cache and were charged.
    pub(crate) cache_misses_total: Arc<Counter>,
    /// Hard refusals by the budget accountant.
    pub(crate) refusals_total: Arc<Counter>,
    /// Admissions failing for any non-budget reason (invalid query,
    /// unknown dataset, durability error).
    pub(crate) query_errors_total: Arc<Counter>,
    /// Fresh dataset registrations (recovery replays are not re-counted).
    pub(crate) registrations_total: Arc<Counter>,
    /// Fresh re-registrations — new dataset versions under an inherited
    /// budget (recovery replays are not re-counted).
    pub(crate) reregistrations_total: Arc<Counter>,
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// Builds the registry, the event stream, and every hot-path handle.
    pub fn new() -> Telemetry {
        let registry = Arc::new(MetricsRegistry::new());
        let latency = privcluster_obs::metrics::LATENCY_SECONDS;
        Telemetry {
            admission_seconds: registry.histogram("admission_seconds", latency),
            execute_seconds: registry.histogram("execute_seconds", latency),
            backend_build_seconds: registry.histogram("backend_build_seconds", latency),
            fsync_seconds: registry.histogram("fsync_seconds", latency),
            group_commit_batch_size: registry.histogram(
                "group_commit_batch_size",
                privcluster_obs::metrics::BATCH_SIZE,
            ),
            queries_total: registry.counter("queries_total"),
            queries_granted_total: registry.counter("queries_granted_total"),
            cache_hits_total: registry.counter("cache_hits_total"),
            cache_misses_total: registry.counter("cache_misses_total"),
            refusals_total: registry.counter("refusals_total"),
            query_errors_total: registry.counter("query_errors_total"),
            registrations_total: registry.counter("registrations_total"),
            reregistrations_total: registry.counter("reregistrations_total"),
            registry,
            events: Arc::new(EventStream::default()),
        }
    }

    /// The metrics registry (for snapshots and gauge refreshes).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The structured event stream.
    pub fn events(&self) -> &Arc<EventStream> {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_path_handles_are_registered_series() {
        let telemetry = Telemetry::new();
        telemetry.queries_total.inc();
        telemetry.admission_seconds.observe(0.002);
        let snapshot = telemetry.registry().snapshot();
        assert_eq!(snapshot.counter("queries_total"), Some(1));
        assert_eq!(snapshot.histogram("admission_seconds").unwrap().count, 1);
        // Every handle is backed by the same registry the snapshot reads.
        assert_eq!(snapshot.counters.len(), 8);
        assert_eq!(snapshot.histograms.len(), 5);
    }
}
