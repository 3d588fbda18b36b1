//! Machine-readable experiment records.
//!
//! Every experiment binary writes one [`ExperimentRecord`] (JSON) next to its
//! console output, keyed by its experiment id (T1, F1_F2, E3, …; the README's
//! "Substitutions and experiments" lists them), so reported numbers can be
//! regenerated and diffed mechanically.

use crate::stats::Summary;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::Path;

/// A single measured quantity within an experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measurement {
    /// What was measured (e.g. "radius_ratio", "additive_loss").
    pub name: String,
    /// The configuration cell it belongs to (e.g. "d=8,n=4096").
    pub setting: String,
    /// Summary over the repeated trials.
    pub summary: Summary,
}

/// A full experiment record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentRecord {
    /// Experiment id (e.g. "T1", "E4").
    pub id: String,
    /// One-line description.
    pub description: String,
    /// Free-form parameter map (ε, δ, β, preset, seeds, …).
    pub parameters: BTreeMap<String, String>,
    /// All measurements.
    pub measurements: Vec<Measurement>,
}

impl ExperimentRecord {
    /// Creates an empty record.
    pub fn new(id: impl Into<String>, description: impl Into<String>) -> Self {
        ExperimentRecord {
            id: id.into(),
            description: description.into(),
            parameters: BTreeMap::new(),
            measurements: Vec::new(),
        }
    }

    /// Records a parameter.
    pub fn parameter(&mut self, key: impl Into<String>, value: impl ToString) {
        self.parameters.insert(key.into(), value.to_string());
    }

    /// Records a measurement summary (ignored if the sample was empty or
    /// non-finite).
    pub fn measure(&mut self, name: impl Into<String>, setting: impl Into<String>, values: &[f64]) {
        if let Some(summary) = Summary::of(values) {
            self.measurements.push(Measurement {
                name: name.into(),
                setting: setting.into(),
                summary,
            });
        }
    }

    /// Serializes the record as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("record is serializable")
    }

    /// Writes the record to `dir/<id>.json`, creating the directory if
    /// necessary. Returns the path written.
    pub fn write_to(&self, dir: &Path) -> std::io::Result<std::path::PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id));
        std::fs::write(&path, self.to_json())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trip_and_measurement_filtering() {
        let mut r = ExperimentRecord::new("E3", "radius approximation vs n");
        r.parameter("epsilon", 1.0);
        r.parameter("preset", "practical");
        r.measure("radius_ratio", "n=1024", &[1.5, 2.0, 1.8]);
        r.measure("ignored", "bad", &[]); // dropped
        assert_eq!(r.measurements.len(), 1);
        assert_eq!(r.parameters["epsilon"], "1");
        let json = r.to_json();
        let back: ExperimentRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn writes_to_disk() {
        let mut r = ExperimentRecord::new("TEST", "unit test record");
        r.measure("x", "s", &[1.0]);
        let dir = std::env::temp_dir().join("privcluster_report_test");
        let path = r.write_to(&dir).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert!(content.contains("unit test record"));
        let _ = std::fs::remove_file(path);
    }
}
