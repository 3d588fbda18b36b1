//! The privacy ledger of one pipeline execution.
//!
//! Every stage charges each sub-mechanism it runs — a label and its
//! `(ε, δ)` — to a [`Diagnostics`] value, and a stage that runs another
//! absorbs that stage's charges under a prefix. Tests check the composed
//! total against the declared budget. The ledger holds labels and privacy
//! parameters only: no counts, radii or coordinates.

use privcluster_dp::composition::PrivacyLedger;
use privcluster_dp::PrivacyParams;

/// The labelled privacy charges of one pipeline execution.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    ledger: PrivacyLedger,
}

impl Diagnostics {
    /// An empty ledger.
    pub fn new() -> Self {
        Diagnostics::default()
    }

    /// Records a privacy charge.
    pub fn charge(&mut self, label: impl Into<String>, params: PrivacyParams) {
        self.ledger.charge(label, params);
    }

    /// The privacy ledger of the execution.
    pub fn ledger(&self) -> &PrivacyLedger {
        &self.ledger
    }

    /// Records another execution's charges, prefixing their labels with
    /// `prefix`.
    pub fn absorb(&mut self, prefix: &str, other: Diagnostics) {
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
    fn records_charges() {
        let mut d = Diagnostics::new();
        d.charge("laplace", PrivacyParams::new(0.5, 0.0).unwrap());
        assert_eq!(d.ledger().len(), 1);
        assert_eq!(d.ledger().entries()[0].label, "laplace");
    }

    #[test]
    fn absorb_prefixes_charge_labels() {
        let mut inner = Diagnostics::new();
        inner.charge("svt", PrivacyParams::new(0.25, 0.0).unwrap());

        let mut outer = Diagnostics::new();
        outer.charge("laplace", PrivacyParams::new(0.5, 0.0).unwrap());
        outer.absorb("good_center", inner);

        let labels: Vec<&str> = outer
            .ledger()
            .entries()
            .iter()
            .map(|e| e.label.as_str())
            .collect();
        assert_eq!(labels, ["laplace", "good_center.svt"]);
    }
}
