//! The journal's typed records: the engine state transitions that must be
//! durable.
//!
//! Four record kinds cover every privacy-relevant transition:
//!
//! * [`RegisterRecord`] — a dataset registration: name, domain, declared
//!   budget, composition mode, geometry-backend kind, and the data itself
//!   (so recovery is self-contained), keyed by a canonical registration
//!   fingerprint.
//! * [`ReregisterRecord`] — a dataset re-registration: the same name gets
//!   a new data version (`version = v+1`) with fresh rows and a fresh
//!   geometry backend, while the privacy ledger is **inherited** — no
//!   budget or composition fields appear here because re-registration can
//!   never reset either. **Written and fsynced before the registry
//!   mutation**, same soundness argument as charge-before-release.
//! * [`ChargeRecord`] — an admitted budget charge, keyed by the query's
//!   canonical fingerprint. **Written and fsynced before the noisy result
//!   is released** — the write-ahead invariant the whole layer exists for.
//! * [`ReleaseRecord`] — a released result for the same fingerprint, kept
//!   so recovery can repopulate the replay cache (replays are
//!   post-processing and charge zero). A charge with no matching release is
//!   *charged-but-unreleased*: the budget stays spent, never refunded.
//!
//! Records carry a strictly increasing sequence number assigned at append
//! time; replay skips any record whose `seq` is at or below the state's
//! high-water mark, which is what makes replay idempotent.
//!
//! Payload layouts (see [`payload`](mod@crate::payload)). Registrations and
//! re-registrations are written in the row-block layout: a JSON header
//! whose `rows` field is the block's spec, then the rows. Rows that all
//! lie on the record's own domain grid are written as grid indices
//! (`{"n":N,"dim":D,"width":W}`, W = 1, 2 or 4 bytes per coordinate:
//! 2 for a grid of 257 to 65,536 values); any other rows as raw
//! little-endian `f64` (`{"n":N,"dim":D}`, 8 bytes per coordinate).
//! Charges and releases are written as JSON. Journals written before the
//! grid layout hold f64 blocks only, and journals written before the
//! row-block layout hold every record as JSON, with each row an array of
//! numbers; both still decode.
//!
//! The store is deliberately engine-agnostic: released values are opaque
//! [`Value`] trees and backend kinds are strings — the engine owns those
//! vocabularies.

use crate::error::StoreError;
use crate::payload::{self, RowBlock, Rows};
use crate::wire::{num, obj, req, req_f64, req_str, req_u64, req_usize, s};
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use serde::{Deserialize, Serialize, Value};

/// A grid domain, engine-agnostic (the engine rebuilds its `GridDomain`
/// from these fields on recovery).
#[derive(Debug, Clone, PartialEq)]
pub struct DomainSpec {
    /// Ambient dimension.
    pub dim: usize,
    /// Grid resolution per axis.
    pub size: u64,
    /// Axis minimum.
    pub min: f64,
    /// Axis maximum.
    pub max: f64,
}

/// A dataset registration.
#[derive(Debug, Clone, PartialEq)]
pub struct RegisterRecord {
    /// Journal sequence number (assigned at append).
    pub seq: u64,
    /// Dataset name (write-once in the engine's registry).
    pub dataset: String,
    /// The declared domain.
    pub domain: DomainSpec,
    /// The declared total privacy budget.
    pub budget: PrivacyParams,
    /// The composition theorem charged against.
    pub mode: CompositionMode,
    /// Geometry backend kind (`"exact"` / `"projected"` — engine-owned
    /// vocabulary, opaque here).
    pub backend: String,
    /// Canonical registration fingerprint (computed by the engine; recovery
    /// verifies the rebuilt entry against it).
    pub fingerprint: String,
    /// The data rows, so recovery is self-contained.
    pub rows: Vec<Vec<f64>>,
}

/// A dataset re-registration: version `v+1` of an existing name.
///
/// Carries no budget or composition mode on purpose — both are inherited
/// from the original [`RegisterRecord`], so a re-registration cannot even
/// *express* a budget reset.
#[derive(Debug, Clone, PartialEq)]
pub struct ReregisterRecord {
    /// Journal sequence number (assigned at append).
    pub seq: u64,
    /// Dataset name (must already be registered).
    pub dataset: String,
    /// The version this record creates; replay requires it to be exactly
    /// one above the name's current version, so version history is
    /// reconstructed bit-identically.
    pub version: u64,
    /// The declared domain of the new version.
    pub domain: DomainSpec,
    /// Geometry backend kind for the new version's build.
    pub backend: String,
    /// Canonical versioned registration fingerprint (computed by the
    /// engine; recovery verifies the rebuilt entry against it).
    pub fingerprint: String,
    /// The new version's data rows, so recovery is self-contained.
    pub rows: Vec<Vec<f64>>,
}

/// An admitted budget charge — durable *before* its result is released.
#[derive(Debug, Clone, PartialEq)]
pub struct ChargeRecord {
    /// Journal sequence number (assigned at append).
    pub seq: u64,
    /// The charged dataset.
    pub dataset: String,
    /// Canonical query fingerprint (also the engine's cache key).
    pub fingerprint: String,
    /// The ledger label of the charged query.
    pub label: String,
    /// The charged `(ε, δ)`.
    pub params: PrivacyParams,
}

/// A released result, enabling zero-charge replay after recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct ReleaseRecord {
    /// Journal sequence number (assigned at append).
    pub seq: u64,
    /// The dataset the result was released from.
    pub dataset: String,
    /// Canonical query fingerprint of the charge this release settles.
    pub fingerprint: String,
    /// The released value (the engine's `QueryValue` wire form, opaque
    /// here).
    pub value: Value,
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreRecord {
    /// A dataset registration.
    Register(RegisterRecord),
    /// A dataset re-registration (new version, inherited ledger).
    Reregister(ReregisterRecord),
    /// An admitted budget charge.
    Charge(ChargeRecord),
    /// A released result.
    Release(ReleaseRecord),
}

impl StoreRecord {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match self {
            StoreRecord::Register(r) => r.seq,
            StoreRecord::Reregister(r) => r.seq,
            StoreRecord::Charge(r) => r.seq,
            StoreRecord::Release(r) => r.seq,
        }
    }

    /// Stamps the sequence number (done by the store at append time).
    pub fn with_seq(mut self, seq: u64) -> Self {
        match &mut self {
            StoreRecord::Register(r) => r.seq = seq,
            StoreRecord::Reregister(r) => r.seq = seq,
            StoreRecord::Charge(r) => r.seq = seq,
            StoreRecord::Release(r) => r.seq = seq,
        }
        self
    }

    /// Decodes a framed payload: a registration in the row-block layout,
    /// or any record as JSON (see [`payload`](mod@crate::payload)).
    pub fn from_payload(payload: &[u8]) -> Result<Self, StoreError> {
        let (value, mut rows) = payload::decode(payload, "record")?;
        let record = StoreRecord::from_json(&value, &mut rows)?;
        rows.finish()?;
        Ok(record)
    }

    /// The framed payload of this record: registrations and
    /// re-registrations in the row-block layout, charges and releases as
    /// JSON. Fails only for rows a block cannot hold (ragged or empty
    /// rows), which no validated dataset has.
    pub fn to_payload(&self) -> Result<Vec<u8>, StoreError> {
        let (header, block) = match self {
            StoreRecord::Register(r) => {
                let block = RowBlock::new(&r.rows, &r.domain)?;
                (r.to_json_value(block.spec()), block)
            }
            StoreRecord::Reregister(r) => {
                let block = RowBlock::new(&r.rows, &r.domain)?;
                (r.to_json_value(block.spec()), block)
            }
            StoreRecord::Charge(r) => return Ok(json_bytes(&r.to_json_value())),
            StoreRecord::Release(r) => return Ok(json_bytes(&r.to_json_value())),
        };
        payload::encode_row_blocks(&header, &[block])
    }

    fn domain_from_json(value: &Value) -> Result<DomainSpec, StoreError> {
        let domain_spec = req(value, "domain")?;
        Ok(DomainSpec {
            dim: req_usize(domain_spec, "dim")?,
            size: req_u64(domain_spec, "size")?,
            min: req_f64(domain_spec, "min")?,
            max: req_f64(domain_spec, "max")?,
        })
    }

    fn domain_to_json(domain: &DomainSpec) -> Value {
        obj(vec![
            ("dim", num(domain.dim as f64)),
            ("size", num(domain.size as f64)),
            ("min", num(domain.min)),
            ("max", num(domain.max)),
        ])
    }

    /// Decodes a record's JSON object, taking a registration's rows from
    /// `rows`.
    pub(crate) fn from_json(value: &Value, rows: &mut Rows<'_>) -> Result<Self, StoreError> {
        match req_str(value, "type")?.as_str() {
            "register" => {
                let domain = Self::domain_from_json(value)?;
                Ok(StoreRecord::Register(RegisterRecord {
                    seq: req_u64(value, "seq")?,
                    dataset: req_str(value, "dataset")?,
                    budget: PrivacyParams::from_json_value(req(value, "budget")?)
                        .map_err(StoreError::Corrupt)?,
                    mode: CompositionMode::from_json_value(req(value, "composition")?)
                        .map_err(StoreError::Corrupt)?,
                    backend: req_str(value, "backend")?,
                    fingerprint: req_str(value, "fingerprint")?,
                    rows: rows.take(value, &domain)?,
                    domain,
                }))
            }
            "reregister" => {
                let version = req_u64(value, "version")?;
                if version < 2 {
                    // Version 1 is always the original Register; a
                    // reregister claiming it would let replay shadow the
                    // record that carries the budget declaration.
                    return Err(StoreError::Corrupt(format!(
                        "reregister version must be >= 2, got {version}"
                    )));
                }
                let domain = Self::domain_from_json(value)?;
                Ok(StoreRecord::Reregister(ReregisterRecord {
                    seq: req_u64(value, "seq")?,
                    dataset: req_str(value, "dataset")?,
                    version,
                    backend: req_str(value, "backend")?,
                    fingerprint: req_str(value, "fingerprint")?,
                    rows: rows.take(value, &domain)?,
                    domain,
                }))
            }
            "charge" => Ok(StoreRecord::Charge(ChargeRecord {
                seq: req_u64(value, "seq")?,
                dataset: req_str(value, "dataset")?,
                fingerprint: req_str(value, "fingerprint")?,
                label: req_str(value, "label")?,
                params: PrivacyParams::from_json_value(req(value, "params")?)
                    .map_err(StoreError::Corrupt)?,
            })),
            "release" => Ok(StoreRecord::Release(ReleaseRecord {
                seq: req_u64(value, "seq")?,
                dataset: req_str(value, "dataset")?,
                fingerprint: req_str(value, "fingerprint")?,
                value: req(value, "value")?.clone(),
            })),
            other => Err(StoreError::Corrupt(format!(
                "unknown record type `{other}`"
            ))),
        }
    }
}

fn json_bytes(value: &Value) -> Vec<u8> {
    serde_json::to_string(value)
        .expect("record serialization is infallible")
        .into_bytes()
}

impl RegisterRecord {
    /// The record's JSON object with `rows` as its `rows` field: a block
    /// spec in a row-block header, inline rows in the JSON layout.
    pub(crate) fn to_json_value(&self, rows: Value) -> Value {
        obj(vec![
            ("type", s("register")),
            ("seq", num(self.seq as f64)),
            ("dataset", s(self.dataset.clone())),
            ("domain", StoreRecord::domain_to_json(&self.domain)),
            ("budget", self.budget.to_json_value()),
            ("composition", self.mode.to_json_value()),
            ("backend", s(self.backend.clone())),
            ("fingerprint", s(self.fingerprint.clone())),
            ("rows", rows),
        ])
    }
}

impl ReregisterRecord {
    /// The record's JSON object with `rows` as its `rows` field (see
    /// [`RegisterRecord::to_json_value`]).
    pub(crate) fn to_json_value(&self, rows: Value) -> Value {
        obj(vec![
            ("type", s("reregister")),
            ("seq", num(self.seq as f64)),
            ("dataset", s(self.dataset.clone())),
            ("version", num(self.version as f64)),
            ("domain", StoreRecord::domain_to_json(&self.domain)),
            ("backend", s(self.backend.clone())),
            ("fingerprint", s(self.fingerprint.clone())),
            ("rows", rows),
        ])
    }
}

impl ChargeRecord {
    /// The record's JSON form (as in the journal).
    fn to_json_value(&self) -> Value {
        obj(vec![
            ("type", s("charge")),
            ("seq", num(self.seq as f64)),
            ("dataset", s(self.dataset.clone())),
            ("fingerprint", s(self.fingerprint.clone())),
            ("label", s(self.label.clone())),
            ("params", self.params.to_json_value()),
        ])
    }
}

impl ReleaseRecord {
    /// The record's JSON form (as in the journal).
    pub(crate) fn to_json_value(&self) -> Value {
        obj(vec![
            ("type", s("release")),
            ("seq", num(self.seq as f64)),
            ("dataset", s(self.dataset.clone())),
            ("fingerprint", s(self.fingerprint.clone())),
            ("value", self.value.clone()),
        ])
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    pub fn register(seq: u64, name: &str) -> StoreRecord {
        StoreRecord::Register(RegisterRecord {
            seq,
            dataset: name.to_string(),
            domain: DomainSpec {
                dim: 2,
                size: 1024,
                min: 0.0,
                max: 1.0,
            },
            budget: PrivacyParams::new(1.0, 1e-6).unwrap(),
            mode: CompositionMode::Basic,
            backend: "exact".to_string(),
            fingerprint: format!("reg|{name}"),
            rows: vec![vec![0.25, 0.75], vec![0.5, 0.5]],
        })
    }

    pub fn reregister(seq: u64, name: &str, version: u64) -> StoreRecord {
        StoreRecord::Reregister(ReregisterRecord {
            seq,
            dataset: name.to_string(),
            version,
            domain: DomainSpec {
                dim: 2,
                size: 1024,
                min: 0.0,
                max: 1.0,
            },
            backend: "exact".to_string(),
            fingerprint: format!("reg|{name}|v{version}"),
            rows: vec![vec![0.125, 0.875], vec![0.5, 0.25], vec![0.75, 0.75]],
        })
    }

    pub fn charge(seq: u64, name: &str, fp: &str, epsilon: f64) -> StoreRecord {
        StoreRecord::Charge(ChargeRecord {
            seq,
            dataset: name.to_string(),
            fingerprint: fp.to_string(),
            label: "good_radius(t=2)".to_string(),
            params: PrivacyParams::new(epsilon, 1e-9).unwrap(),
        })
    }

    pub fn release(seq: u64, name: &str, fp: &str) -> StoreRecord {
        StoreRecord::Release(ReleaseRecord {
            seq,
            dataset: name.to_string(),
            fingerprint: fp.to_string(),
            value: Value::Object(vec![
                ("type".to_string(), Value::String("radius".to_string())),
                ("radius".to_string(), Value::Number(0.125)),
            ]),
        })
    }

    /// The record's JSON object as writers before the row-block layout
    /// emitted it: a registration's rows inline, as arrays of numbers.
    pub fn legacy_json(record: &StoreRecord) -> Value {
        let inline = |rows: &[Vec<f64>]| {
            Value::Array(
                rows.iter()
                    .map(|row| Value::Array(row.iter().map(|&c| Value::Number(c)).collect()))
                    .collect(),
            )
        };
        match record {
            StoreRecord::Register(r) => r.to_json_value(inline(&r.rows)),
            StoreRecord::Reregister(r) => r.to_json_value(inline(&r.rows)),
            StoreRecord::Charge(r) => r.to_json_value(),
            StoreRecord::Release(r) => r.to_json_value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::*;
    use super::*;

    #[test]
    fn records_round_trip_through_payload_bytes() {
        let records = vec![
            register(1, "demo"),
            charge(2, "demo", "q|demo|1", 0.5),
            release(3, "demo", "q|demo|1"),
            reregister(4, "demo", 2),
        ];
        for record in records {
            let payload = record.to_payload().unwrap();
            let back = StoreRecord::from_payload(&payload).unwrap();
            assert_eq!(back, record);
            assert_eq!(back.seq(), record.seq());
        }
    }

    #[test]
    fn registrations_are_row_blocks_and_json_registrations_still_decode() {
        for record in [register(1, "demo"), reregister(4, "demo", 2)] {
            let payload = record.to_payload().unwrap();
            assert_eq!(payload[0], 0xB1, "a JSON payload starts with `{{`");
            let header = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
            let (StoreRecord::Register(RegisterRecord { rows, .. })
            | StoreRecord::Reregister(ReregisterRecord { rows, .. })) = &record
            else {
                unreachable!()
            };
            assert_eq!(payload.len(), 5 + header + 8 * rows.len() * 2);
            let legacy = serde_json::to_string(&legacy_json(&record)).unwrap();
            assert!(legacy.starts_with('{'));
            assert_eq!(
                StoreRecord::from_payload(legacy.as_bytes()).unwrap(),
                record
            );
        }
    }

    #[test]
    fn rows_a_block_cannot_hold_are_refused_at_encoding() {
        for rows in [vec![vec![0.5, 0.5], vec![0.5]], vec![vec![], vec![]]] {
            let StoreRecord::Register(mut r) = register(1, "d") else {
                unreachable!()
            };
            r.rows = rows;
            assert!(matches!(
                StoreRecord::Register(r).to_payload(),
                Err(StoreError::Corrupt(_))
            ));
        }
    }

    #[test]
    fn with_seq_stamps_every_variant() {
        for record in [
            register(0, "d"),
            reregister(0, "d", 2),
            charge(0, "d", "fp", 0.5),
            release(0, "d", "fp"),
        ] {
            assert_eq!(record.with_seq(9).seq(), 9);
        }
    }

    #[test]
    fn reregister_cannot_claim_version_one_or_carry_a_budget() {
        // Version 1 belongs to the original Register record.
        let v1 = br#"{"type":"reregister","seq":5,"dataset":"d","version":1,"domain":{"dim":2,"size":8,"min":0.0,"max":1.0},"backend":"exact","fingerprint":"f","rows":[[0.5,0.5]]}"#;
        assert!(StoreRecord::from_payload(v1).is_err());
        // The wire shape has no budget/composition fields at all: a decoded
        // reregister is structurally unable to reset the ledger.
        let StoreRecord::Reregister(r) =
            StoreRecord::from_payload(&reregister(4, "d", 2).to_payload().unwrap()).unwrap()
        else {
            panic!("expected a reregister record");
        };
        assert_eq!(r.version, 2);
    }

    #[test]
    fn malformed_payloads_are_corruption() {
        assert!(StoreRecord::from_payload(b"\xff\xfe").is_err());
        assert!(StoreRecord::from_payload(b"not json").is_err());
        assert!(StoreRecord::from_payload(br#"{"type":"mystery","seq":1}"#).is_err());
        assert!(StoreRecord::from_payload(br#"{"type":"charge","seq":1}"#).is_err());
        // A charge with invalid privacy params must not parse: recovery
        // would otherwise replay a ledger entry no admission could create.
        let bad = br#"{"type":"charge","seq":1,"dataset":"d","fingerprint":"f","label":"l","params":{"epsilon":-1.0,"delta":0.0}}"#;
        assert!(StoreRecord::from_payload(bad).is_err());
    }
}
