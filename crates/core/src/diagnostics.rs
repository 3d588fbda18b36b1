//! Execution diagnostics.
//!
//! Every stage of the pipeline records what it did — noise scales, the noisy
//! quantities it thresholded, how many sparse-vector rounds ran, how much of
//! the privacy budget each sub-mechanism consumed — into a [`Diagnostics`]
//! value. The experiment harness turns these into the per-experiment tables
//! of EXPERIMENTS.md; tests use them to assert on internal invariants without
//! poking at private functions.
//!
//! Diagnostics describe the *mechanism*, not the data: everything stored here
//! is either data-independent (configuration, noise scales) or a privately
//! released value, so surfacing it does not weaken the privacy guarantee.

use privcluster_dp::composition::PrivacyLedger;
use privcluster_dp::PrivacyParams;
use std::collections::BTreeMap;

/// A structured trace of one pipeline execution.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    events: Vec<String>,
    metrics: BTreeMap<String, f64>,
    ledger: PrivacyLedger,
}

impl Diagnostics {
    /// An empty trace.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Appends a human-readable event.
    pub fn event(&mut self, message: impl Into<String>) {
        self.events.push(message.into());
    }

    /// Records a named numeric metric (last write wins).
    pub fn metric(&mut self, key: impl Into<String>, value: f64) {
        self.metrics.insert(key.into(), value);
    }

    /// Records a privacy charge.
    pub fn charge(&mut self, label: impl Into<String>, params: PrivacyParams) {
        self.ledger.charge(label, params);
    }

    /// The recorded events in order.
    pub fn events(&self) -> &[String] {
        &self.events
    }

    /// The recorded metrics.
    pub fn metrics(&self) -> &BTreeMap<String, f64> {
        &self.metrics
    }

    /// The privacy ledger of the execution.
    pub fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }

    /// Merges another trace into this one (prefixing its metric keys and
    /// events with `prefix`).
    pub fn absorb(&mut self, prefix: &str, other: Diagnostics) {
        for e in other.events {
            self.events.push(format!("{prefix}: {e}"));
        }
        for (k, v) in other.metrics {
            self.metrics.insert(format!("{prefix}.{k}"), v);
        }
        for entry in other.ledger.entries() {
            self.ledger
                .charge(format!("{prefix}.{}", entry.label), entry.params);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_events_metrics_and_charges() {
        let mut d = Diagnostics::new();
        d.event("started");
        d.metric("noisy_l0", 42.0);
        d.metric("noisy_l0", 43.0); // last write wins
        d.charge("laplace", PrivacyParams::new(0.5, 0.0).unwrap());
        assert_eq!(d.events(), &["started".to_string()]);
        assert_eq!(d.metrics().get("noisy_l0").copied(), Some(43.0));
        assert_eq!(d.metrics().get("missing").copied(), None);
        assert_eq!(d.ledger().len(), 1);
    }

    #[test]
    fn absorb_prefixes_sub_traces() {
        let mut inner = Diagnostics::new();
        inner.event("chose box");
        inner.metric("rounds", 3.0);
        inner.charge("svt", PrivacyParams::new(0.25, 0.0).unwrap());

        let mut outer = Diagnostics::new();
        outer.metric("radius", 0.1);
        outer.absorb("good_center", inner);

        assert_eq!(outer.events()[0], "good_center: chose box");
        assert_eq!(
            outer.metrics().get("good_center.rounds").copied(),
            Some(3.0)
        );
        assert_eq!(outer.metrics().get("radius").copied(), Some(0.1));
        assert_eq!(outer.ledger().entries()[0].label, "good_center.svt");
    }
}
