//! Privacy parameters `(ε, δ)` and budget scaling.
//!
//! Definition 1.1 of the paper: a randomized algorithm `M` is
//! `(ε, δ)`-differentially private if for every pair of neighbouring datasets
//! `S, S'` and every event `T`,
//! `Pr[M(S) ∈ T] ≤ e^ε · Pr[M(S') ∈ T] + δ`.
//!
//! [`PrivacyParams`] is the value type carried through every algorithm in the
//! workspace; it validates its ranges once at construction so mechanisms can
//! assume well-formed parameters.

use crate::error::DpError;
use serde::{Deserialize, Serialize, Value};

/// A validated `(ε, δ)` pair.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrivacyParams {
    epsilon: f64,
    delta: f64,
}

impl Serialize for PrivacyParams {
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("epsilon".to_string(), Value::Number(self.epsilon)),
            ("delta".to_string(), Value::Number(self.delta)),
        ])
    }
}

impl Deserialize for PrivacyParams {
    fn from_json_value(value: &Value) -> Result<Self, String> {
        let field = |key: &str| -> Result<f64, String> {
            value
                .as_object()
                .and_then(|entries| entries.iter().find(|(k, _)| k == key))
                .and_then(|(_, v)| v.as_f64())
                .ok_or_else(|| format!("privacy params need a numeric `{key}` field"))
        };
        PrivacyParams::new(field("epsilon")?, field("delta")?).map_err(|e| e.to_string())
    }
}

impl PrivacyParams {
    /// Creates parameters, requiring `ε > 0` and `0 ≤ δ < 1`.
    pub fn new(epsilon: f64, delta: f64) -> Result<Self, DpError> {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "epsilon must be positive and finite, got {epsilon}"
            )));
        }
        if !(delta.is_finite() && (0.0..1.0).contains(&delta)) {
            return Err(DpError::InvalidPrivacyParams(format!(
                "delta must lie in [0, 1), got {delta}"
            )));
        }
        Ok(PrivacyParams { epsilon, delta })
    }

    /// Pure differential privacy: `δ = 0`.
    pub fn pure(epsilon: f64) -> Result<Self, DpError> {
        Self::new(epsilon, 0.0)
    }

    /// ε.
    pub fn epsilon(&self) -> f64 {
        self.epsilon
    }

    /// δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// Returns parameters scaled by `fraction` (both ε and δ), used to divide
    /// a budget among sub-mechanisms so that basic composition of the parts
    /// recovers the whole.
    pub fn scale(&self, fraction: f64) -> Result<Self, DpError> {
        if !(fraction.is_finite() && fraction > 0.0 && fraction <= 1.0) {
            return Err(DpError::InvalidParameter(format!(
                "budget fraction must lie in (0, 1], got {fraction}"
            )));
        }
        PrivacyParams::new(self.epsilon * fraction, self.delta * fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        assert!(PrivacyParams::new(0.0, 0.0).is_err());
        assert!(PrivacyParams::new(-1.0, 0.0).is_err());
        assert!(PrivacyParams::new(f64::NAN, 0.0).is_err());
        assert!(PrivacyParams::new(1.0, -0.1).is_err());
        assert!(PrivacyParams::new(1.0, 1.0).is_err());
        assert!(PrivacyParams::new(1.0, f64::INFINITY).is_err());
        let p = PrivacyParams::new(0.5, 1e-6).unwrap();
        assert_eq!(p.epsilon(), 0.5);
        assert_eq!(p.delta(), 1e-6);
        assert_eq!(PrivacyParams::pure(1.0).unwrap().delta(), 0.0);
    }

    #[test]
    fn scaling_divides_both_parameters() {
        let p = PrivacyParams::new(1.0, 1e-6).unwrap();
        let quarter = p.scale(0.25).unwrap();
        assert!((quarter.epsilon() - 0.25).abs() < 1e-12);
        assert!((quarter.delta() - 0.25e-6).abs() < 1e-18);
        assert_eq!(p.scale(1.0).unwrap(), p);
        assert!(p.scale(0.0).is_err());
        assert!(p.scale(1.5).is_err());
        assert!(p.scale(f64::NAN).is_err());
    }
}
