//! Periodic snapshots: a compacted copy of the journal's state, so
//! recovery replays a bounded tail instead of the whole history.
//!
//! A snapshot file is the 8-byte magic `PCSS0001` followed by **one**
//! framed, checksummed payload. Files are written to a temp name, fsynced,
//! then atomically renamed to `snap-<seq>.pcss` (and the directory
//! fsynced), so a crash mid-snapshot can never damage an older snapshot.
//! Recovery reads only the newest file and refuses to start if it does not
//! validate. After each durable snapshot and journal checkpoint the store
//! deletes all but the newest two files (`RETAINED_SNAPSHOTS`), so the
//! directory stays bounded.
//!
//! Payload format versions. New snapshots are always written as
//! version 5:
//!
//! * **version 5** is version 4 plus grid blocks: each registration's
//!   rows follow as grid indices (1, 2 or 4 bytes a coordinate) when they
//!   all lie on that registration's domain grid, and as raw `f64`
//!   otherwise (see [`payload`](mod@crate::payload));
//! * **version 4** is version 3 in the row-block layout: the version-3
//!   fields form the JSON header, each registration's `rows` field there
//!   is its block's spec, and the registrations' rows follow as raw
//!   little-endian `f64` blocks, in header order (the registrations, then
//!   the re-registrations);
//! * **version 3** holds the covered sequence number, the registrations,
//!   each applied re-registration with its dataset's [`LedgerTotals`] at
//!   that point in the journal, one totals object per dataset in name
//!   order, and the retained releases, all as JSON with inline rows. No
//!   charge record is kept, so a snapshot's size follows the number of
//!   datasets, their rows and the retained releases, not the number of
//!   queries ever charged;
//! * **version 2** holds the compacted record list (registers,
//!   reregisters, every charge, retained releases) and a declared
//!   `versions` table, cross-checked at load time against the table replay
//!   derives from the records;
//! * **version 1** predates dataset versioning: registers, charges and
//!   releases only.
//!
//! Versions 1 to 4 still decode. Versions 1 and 2 replay their records
//! through [`StoreState::apply`], which folds the charges into the same
//! totals a journal replay would build.

use crate::error::StoreError;
use crate::format::{encode_frame, scan_frames, TailStatus, SNAPSHOT_MAGIC};
use crate::payload::{self, RowBlock, Rows};
use crate::record::{RegisterRecord, ReleaseRecord, ReregisterRecord, StoreRecord};
use crate::recovery::StoreState;
use crate::wire::{num, obj, req, req_u64};
use privcluster_dp::LedgerTotals;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fs::File;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// How many `snap-*.pcss` files survive each prune: the newest, which
/// recovery reads, and the one before it, which an operator can fall back
/// to by hand if the newest is damaged.
pub(crate) const RETAINED_SNAPSHOTS: usize = 2;

/// A compacted copy of journal state up to `seq` (the version-5 payload).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Highest journal sequence number this snapshot covers; recovery
    /// replays only journal records with larger `seq`.
    pub seq: u64,
    /// The registrations, in journal order.
    pub registers: Vec<Arc<RegisterRecord>>,
    /// The applied re-registrations, in journal order, each with its
    /// dataset's totals over the charges journaled before it.
    pub reregisters: Vec<(Arc<ReregisterRecord>, LedgerTotals)>,
    /// Totals of every committed charge, per dataset, in name order.
    pub totals: Vec<(String, LedgerTotals)>,
    /// The retained releases, oldest first.
    pub releases: Vec<ReleaseRecord>,
}

impl Snapshot {
    /// The version-5 payload: the JSON header, then every registration's
    /// row block in header order.
    fn to_payload(&self) -> Result<Vec<u8>, StoreError> {
        let blocks = self
            .registers
            .iter()
            .map(|r| RowBlock::new(&r.rows, &r.domain))
            .chain(
                self.reregisters
                    .iter()
                    .map(|(r, _)| RowBlock::new(&r.rows, &r.domain)),
            )
            .collect::<Result<Vec<_>, _>>()?;
        let (register_blocks, reregister_blocks) = blocks.split_at(self.registers.len());
        let registers = self
            .registers
            .iter()
            .zip(register_blocks)
            .map(|(r, block)| r.to_json_value(block.spec()))
            .collect();
        let reregisters = self
            .reregisters
            .iter()
            .zip(reregister_blocks)
            .map(|((r, totals), block)| {
                obj(vec![
                    ("record", r.to_json_value(block.spec())),
                    ("totals", totals.to_json_value()),
                ])
            })
            .collect();
        let header = obj(vec![
            ("version", num(5.0)),
            ("seq", num(self.seq as f64)),
            ("registers", Value::Array(registers)),
            ("reregisters", Value::Array(reregisters)),
            (
                "totals",
                Value::Object(
                    self.totals
                        .iter()
                        .map(|(name, totals)| (name.clone(), totals.to_json_value()))
                        .collect(),
                ),
            ),
            (
                "releases",
                Value::Array(self.releases.iter().map(|r| r.to_json_value()).collect()),
            ),
        ]);
        payload::encode_row_blocks(&header, &blocks)
    }

    fn from_payload(bytes: &[u8]) -> Result<Self, StoreError> {
        let (value, mut rows) = payload::decode(bytes, "snapshot")?;
        let snapshot = Snapshot::from_json(&value, &mut rows)?;
        rows.finish()?;
        Ok(snapshot)
    }

    /// Decodes a payload's JSON value, taking the registrations' rows from
    /// `rows` in header order: inline for versions 1 to 3, blocks from 4.
    fn from_json(value: &Value, rows: &mut Rows<'_>) -> Result<Self, StoreError> {
        let seq = req_u64(value, "seq")?;
        match req_u64(value, "version")? {
            3..=5 => {
                let snapshot = Snapshot {
                    seq,
                    registers: array(value, "registers")?
                        .iter()
                        .map(|v| match StoreRecord::from_json(v, rows)? {
                            StoreRecord::Register(r) => Ok(Arc::new(r)),
                            _ => Err(corrupt("`registers` holds a non-register record")),
                        })
                        .collect::<Result<_, _>>()?,
                    reregisters: array(value, "reregisters")?
                        .iter()
                        .map(|v| match StoreRecord::from_json(req(v, "record")?, rows)? {
                            StoreRecord::Reregister(r) => {
                                Ok((Arc::new(r), totals(req(v, "totals")?)?))
                            }
                            _ => Err(corrupt("`reregisters` holds a non-reregister record")),
                        })
                        .collect::<Result<_, _>>()?,
                    totals: req(value, "totals")?
                        .as_object()
                        .ok_or_else(|| corrupt("`totals` must be an object"))?
                        .iter()
                        .map(|(name, v)| Ok((name.clone(), totals(v)?)))
                        .collect::<Result<_, StoreError>>()?,
                    releases: array(value, "releases")?
                        .iter()
                        .map(|v| match StoreRecord::from_json(v, rows)? {
                            StoreRecord::Release(r) => Ok(r),
                            _ => Err(corrupt("`releases` holds a non-release record")),
                        })
                        .collect::<Result<_, _>>()?,
                };
                snapshot.check()?;
                Ok(snapshot)
            }
            version @ (1 | 2) => {
                let records = array(value, "records")?
                    .iter()
                    .map(|v| StoreRecord::from_json(v, rows))
                    .collect::<Result<Vec<_>, _>>()?;
                if version == 1
                    && records
                        .iter()
                        .any(|r| matches!(r, StoreRecord::Reregister(_)))
                {
                    return Err(corrupt("of version 1 holds reregister records"));
                }
                // Fold the record list the way journal replay would; the
                // release bound is re-applied when the state is restored.
                let mut state = StoreState::new(usize::MAX);
                for record in records {
                    state.apply(record);
                }
                if version == 2 {
                    // The declared table must match what the records replay
                    // to — a mismatch means the snapshot is internally
                    // inconsistent and replaying it would reconstruct a
                    // version history the writer did not see.
                    let mut declared = req(value, "versions")?
                        .as_object()
                        .ok_or_else(|| corrupt("`versions` must be an object"))?
                        .iter()
                        .map(|(name, v)| {
                            v.as_f64()
                                .filter(|x| *x >= 1.0 && x.fract() == 0.0)
                                .map(|x| (name.clone(), x as u64))
                                .ok_or_else(|| {
                                    corrupt(&format!(
                                        "version for `{name}` must be a positive integer"
                                    ))
                                })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    declared.sort();
                    let mut derived: Vec<(String, u64)> = state
                        .versions()
                        .iter()
                        .map(|(name, v)| (name.clone(), *v))
                        .collect();
                    derived.sort();
                    if declared != derived {
                        return Err(corrupt(&format!(
                            "version table {declared:?} does not match its records \
                             (replay derives {derived:?})"
                        )));
                    }
                }
                // The snapshot covers up to its declared seq even if the
                // last records before it were skipped duplicates.
                let mut snapshot = state.to_snapshot();
                snapshot.seq = snapshot.seq.max(seq);
                Ok(snapshot)
            }
            other => Err(corrupt(&format!("version {other} is not supported"))),
        }
    }

    /// The invariants replay guarantees, checked on a decoded version-3 to
    /// version-5 payload so a damaged one is refused rather than restored:
    /// names register once, re-registrations extend their chain one version
    /// at a time, a dataset's totals never shrink along its chain, the
    /// totals are in strictly ascending name order, and no record lies past
    /// the covered sequence number.
    fn check(&self) -> Result<(), StoreError> {
        let mut versions: HashMap<&str, (u64, u64)> = HashMap::new();
        for r in &self.registers {
            if versions.insert(&r.dataset, (1, 0)).is_some() {
                return Err(corrupt(&format!("`{}` is registered twice", r.dataset)));
            }
        }
        for (r, totals) in &self.reregisters {
            match versions.get_mut(r.dataset.as_str()) {
                Some((version, count)) if r.version == *version + 1 && totals.count() >= *count => {
                    *version = r.version;
                    *count = totals.count();
                }
                _ => {
                    return Err(corrupt(&format!(
                        "re-registration of `{}` v{} does not extend its chain",
                        r.dataset, r.version
                    )))
                }
            }
        }
        if self.totals.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err(corrupt("`totals` must be in strictly ascending name order"));
        }
        for (name, (_, inherited)) in &versions {
            let count = self
                .totals
                .binary_search_by(|(n, _)| n.as_str().cmp(name))
                .map_or(0, |i| self.totals[i].1.count());
            if count < *inherited {
                return Err(corrupt(&format!(
                    "totals of `{name}` are smaller than a re-registration inherited"
                )));
            }
        }
        let newest = self
            .registers
            .iter()
            .map(|r| r.seq)
            .chain(self.reregisters.iter().map(|(r, _)| r.seq))
            .chain(self.releases.iter().map(|r| r.seq))
            .max()
            .unwrap_or(0);
        if newest > self.seq {
            return Err(corrupt(&format!(
                "holds record seq {newest} past its covered seq {}",
                self.seq
            )));
        }
        Ok(())
    }
}

fn corrupt(message: &str) -> StoreError {
    StoreError::Corrupt(format!("snapshot {message}"))
}

fn array<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], StoreError> {
    req(value, key)?
        .as_array()
        .ok_or_else(|| corrupt(&format!("`{key}` must be an array")))
}

fn totals(value: &Value) -> Result<LedgerTotals, StoreError> {
    LedgerTotals::from_json_value(value).map_err(|e| corrupt(&e))
}

fn snapshot_file_name(seq: u64) -> String {
    format!("snap-{seq:020}.pcss")
}

/// Writes a snapshot atomically into `dir`, returning the final path and
/// the file's size in bytes.
pub fn write_snapshot(dir: &Path, snapshot: &Snapshot) -> Result<(PathBuf, u64), StoreError> {
    std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
    let frame = encode_frame(&snapshot.to_payload()?)?;
    let tmp = dir.join(format!(".tmp-{}", snapshot_file_name(snapshot.seq)));
    {
        let mut file = File::create(&tmp).map_err(|e| StoreError::io(&tmp, e))?;
        file.write_all(SNAPSHOT_MAGIC)
            .map_err(|e| StoreError::io(&tmp, e))?;
        file.write_all(&frame)
            .map_err(|e| StoreError::io(&tmp, e))?;
        file.sync_data().map_err(|e| StoreError::io(&tmp, e))?;
    }
    let path = dir.join(snapshot_file_name(snapshot.seq));
    std::fs::rename(&tmp, &path).map_err(|e| StoreError::io(&path, e))?;
    // fsync the directory so the rename itself is durable. This must
    // propagate: the caller is about to checkpoint (truncate) the journal
    // on the strength of this snapshot, and a snapshot whose directory
    // entry may vanish on power loss is not durable.
    let d = File::open(dir).map_err(|e| StoreError::io(dir, e))?;
    d.sync_data().map_err(|e| StoreError::io(dir, e))?;
    Ok((path, (SNAPSHOT_MAGIC.len() + frame.len()) as u64))
}

/// The `snap-*.pcss` files in `dir`, oldest first (names embed
/// zero-padded sequence numbers, so lexicographic order is sequence
/// order), and the `.tmp-` files a crash mid-snapshot left behind. A
/// missing directory holds neither.
fn scan_dir(dir: &Path) -> Result<(Vec<PathBuf>, Vec<PathBuf>), StoreError> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok((Vec::new(), Vec::new())),
        Err(e) => return Err(StoreError::io(dir, e)),
    };
    let mut snapshots = Vec::new();
    let mut temps = Vec::new();
    for path in entries.filter_map(|e| e.ok()).map(|e| e.path()) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if name.starts_with("snap-") && name.ends_with(".pcss") {
            snapshots.push(path);
        } else if name.starts_with(".tmp-") {
            temps.push(path);
        }
    }
    snapshots.sort();
    Ok((snapshots, temps))
}

/// Whether `dir` holds a `snap-*.pcss` file; a missing directory holds
/// none.
pub(crate) fn has_snapshot(dir: &Path) -> Result<bool, StoreError> {
    Ok(!scan_dir(dir)?.0.is_empty())
}

/// Loads the newest snapshot in `dir` (if any), with its file size in
/// bytes. A crash mid-snapshot leaves only an ignored `.tmp-` file (the
/// rename is atomic), so the newest visible `snap-*.pcss` is expected to
/// validate; if it does **not**, this is an error, never a silent
/// fallback — checkpointing truncated the journal records that snapshot
/// owns, so recovering from an older snapshot (or none) would silently
/// refund committed budget charges, the exact violation the store exists
/// to prevent.
pub fn load_latest(dir: &Path) -> Result<Option<(Snapshot, u64)>, StoreError> {
    let (snapshots, _) = scan_dir(dir)?;
    match snapshots.last() {
        None => Ok(None),
        Some(path) => load_snapshot(path).map(Some).map_err(|e| {
            StoreError::Corrupt(format!(
                "newest snapshot {} does not validate ({e}); refusing to recover from older \
                 state — the journal was checkpointed against this snapshot, so falling back \
                 would refund committed budget charges",
                path.display()
            ))
        }),
    }
}

/// Deletes every `snap-*.pcss` in `dir` except the newest
/// [`RETAINED_SNAPSHOTS`], and every stray `.tmp-` file. Only the newest
/// snapshot is ever read, so this runs after a durable snapshot has
/// checkpointed the journal, under the same lock that writes snapshots.
/// Every deletion is attempted; the first failure is returned.
pub(crate) fn prune_snapshots(dir: &Path) -> Result<(), StoreError> {
    let (snapshots, temps) = scan_dir(dir)?;
    let stale = snapshots.len().saturating_sub(RETAINED_SNAPSHOTS);
    let mut first_error = None;
    for path in snapshots[..stale].iter().chain(&temps) {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                first_error.get_or_insert(StoreError::io(path, e));
            }
            _ => {}
        }
    }
    first_error.map_or(Ok(()), Err)
}

fn load_snapshot(path: &Path) -> Result<(Snapshot, u64), StoreError> {
    let mut bytes = Vec::new();
    File::open(path)
        .map_err(|e| StoreError::io(path, e))?
        .read_to_end(&mut bytes)
        .map_err(|e| StoreError::io(path, e))?;
    if bytes.len() < SNAPSHOT_MAGIC.len() || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
        return Err(StoreError::Corrupt(format!(
            "{} is not a privcluster snapshot (bad magic)",
            path.display()
        )));
    }
    let (payloads, tail) = scan_frames(&bytes[SNAPSHOT_MAGIC.len()..]);
    if payloads.len() != 1 || tail != TailStatus::Clean {
        return Err(StoreError::Corrupt(format!(
            "{}: expected exactly one clean framed payload",
            path.display()
        )));
    }
    Ok((Snapshot::from_payload(payloads[0])?, bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_support::{charge, legacy_json, register, release, reregister};

    fn records() -> Vec<StoreRecord> {
        vec![
            register(1, "demo"),
            charge(2, "demo", "q1", 0.5),
            release(3, "demo", "q1"),
            reregister(4, "demo", 2),
            charge(5, "demo", "q2", 0.25),
        ]
    }

    fn snapshot(seq: u64) -> Snapshot {
        let mut snapshot = StoreState::recover(None, records(), 16).to_snapshot();
        snapshot.seq = seq;
        snapshot
    }

    fn write_raw(dir: &Path, name: &str, payload: &[u8]) {
        std::fs::create_dir_all(dir).unwrap();
        let mut bytes = SNAPSHOT_MAGIC.to_vec();
        bytes.extend(encode_frame(payload).unwrap());
        std::fs::write(dir.join(name), bytes).unwrap();
    }

    fn write_json(dir: &Path, name: &str, payload: &Value) {
        write_raw(
            dir,
            name,
            serde_json::to_string(payload).unwrap().as_bytes(),
        );
    }

    fn load(dir: &Path) -> Result<Option<Snapshot>, StoreError> {
        load_latest(dir).map(|loaded| loaded.map(|(snapshot, _)| snapshot))
    }

    /// A record-list payload exactly as the version-1/2 writers emitted it.
    fn legacy_payload(version: u64, seq: u64, records: &[StoreRecord], versions: Value) -> Value {
        let mut fields = vec![("version", num(version as f64)), ("seq", num(seq as f64))];
        if version == 2 {
            fields.push(("versions", versions));
        }
        fields.push((
            "records",
            Value::Array(records.iter().map(legacy_json).collect()),
        ));
        obj(fields)
    }

    /// The same snapshot as the version-3 writer emitted it: all JSON,
    /// each registration's rows inline.
    fn version_three_payload(s: &Snapshot) -> Value {
        let register = |r: &Arc<RegisterRecord>| legacy_json(&StoreRecord::Register((**r).clone()));
        let reregister = |(r, totals): &(Arc<ReregisterRecord>, LedgerTotals)| {
            obj(vec![
                (
                    "record",
                    legacy_json(&StoreRecord::Reregister((**r).clone())),
                ),
                ("totals", totals.to_json_value()),
            ])
        };
        obj(vec![
            ("version", num(3.0)),
            ("seq", num(s.seq as f64)),
            (
                "registers",
                Value::Array(s.registers.iter().map(register).collect()),
            ),
            (
                "reregisters",
                Value::Array(s.reregisters.iter().map(reregister).collect()),
            ),
            (
                "totals",
                Value::Object(
                    s.totals
                        .iter()
                        .map(|(name, t)| (name.clone(), t.to_json_value()))
                        .collect(),
                ),
            ),
            (
                "releases",
                Value::Array(s.releases.iter().map(|r| r.to_json_value()).collect()),
            ),
        ])
    }

    #[test]
    fn version_three_payloads_still_decode() {
        let dir = crate::test_dir::scratch_path("snapshots-v3");
        std::fs::remove_dir_all(&dir).ok();
        write_json(
            &dir,
            "snap-00000000000000000005.pcss",
            &version_three_payload(&snapshot(5)),
        );
        assert_eq!(load(&dir).unwrap().unwrap(), snapshot(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn row_blocks_that_disagree_with_their_header_are_corrupt() {
        let dir = crate::test_dir::scratch_path("snapshots-v4-blocks");
        let payload = snapshot(5).to_payload().unwrap();
        assert_eq!(payload[0], 0xB1);
        let cut_row = payload[..payload.len() - 16].to_vec();
        let cut_byte = payload[..payload.len() - 1].to_vec();
        let extra = [&payload[..], &[0u8; 8]].concat();
        for damaged in [cut_row, cut_byte, extra] {
            std::fs::remove_dir_all(&dir).ok();
            write_raw(&dir, "snap-00000000000000000005.pcss", &damaged);
            assert!(matches!(load(&dir), Err(StoreError::Corrupt(_))));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_one_payloads_still_decode() {
        let dir = crate::test_dir::scratch_path("snapshots-v1");
        std::fs::remove_dir_all(&dir).ok();
        // A pre-versioning snapshot: no `versions` table, no reregisters.
        let v1_records = &records()[..3];
        let payload = legacy_payload(1, 3, v1_records, Value::Null);
        write_json(&dir, "snap-00000000000000000003.pcss", &payload);
        let expected = StoreState::recover(None, v1_records.to_vec(), 16).to_snapshot();
        assert_eq!(load(&dir).unwrap().unwrap(), expected);
        // A version-1 payload cannot carry a re-registration.
        let payload = legacy_payload(1, 5, &records(), Value::Null);
        write_json(&dir, "snap-00000000000000000005.pcss", &payload);
        assert!(matches!(load(&dir), Err(StoreError::Corrupt(ref m)) if m.contains("version 1")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn version_two_payloads_fold_their_charges_and_are_cross_checked() {
        let dir = crate::test_dir::scratch_path("snapshots-v2-check");
        std::fs::remove_dir_all(&dir).ok();
        let table = |v: f64| Value::Object(vec![("demo".to_string(), num(v))]);
        write_json(
            &dir,
            "snap-00000000000000000006.pcss",
            &legacy_payload(2, 6, &records(), table(2.0)),
        );
        let loaded = load(&dir).unwrap().unwrap();
        // The charges fold into the same totals a journal replay builds,
        // and the declared seq (past the last record) is kept.
        assert_eq!(loaded, snapshot(6));
        assert_eq!(loaded.totals[0].1.count(), 2);
        assert_eq!(loaded.reregisters[0].1.count(), 1);
        // Tamper with the declared table only: the records still parse, but
        // the cross-check must reject the inconsistent payload.
        write_json(
            &dir,
            "snap-00000000000000000009.pcss",
            &legacy_payload(2, 9, &records(), table(5.0)),
        );
        assert!(matches!(
            load(&dir),
            Err(StoreError::Corrupt(ref m)) if m.contains("version table")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn payloads_that_replay_could_not_produce_are_refused() {
        let dir = crate::test_dir::scratch_path("snapshots-v3-check");
        type Damage = fn(&mut Snapshot);
        let cases: [(&str, Damage); 5] = [
            ("registered twice", |s| {
                s.registers.push(Arc::clone(&s.registers[0]))
            }),
            ("does not extend its chain", |s| {
                s.reregisters.push(s.reregisters[0].clone())
            }),
            ("smaller than a re-registration inherited", |s| {
                s.totals[0].1 = LedgerTotals::new()
            }),
            ("ascending name order", |s| {
                s.totals.push(s.totals[0].clone())
            }),
            ("past its covered seq", |s| s.seq = 3),
        ];
        for (expected, damage) in cases {
            std::fs::remove_dir_all(&dir).ok();
            let mut damaged = snapshot(5);
            damage(&mut damaged);
            write_raw(
                &dir,
                "snap-00000000000000000005.pcss",
                &damaged.to_payload().unwrap(),
            );
            match load(&dir) {
                Err(StoreError::Corrupt(m)) => assert!(m.contains(expected), "{expected}: {m}"),
                other => panic!("{expected}: expected a corrupt snapshot, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshots_round_trip_and_corrupt_newest_fails_loudly() {
        let dir = crate::test_dir::scratch_path("snapshots-roundtrip");
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(load(&dir).unwrap(), None);
        write_snapshot(&dir, &snapshot(5)).unwrap();
        let (path, bytes) = write_snapshot(&dir, &snapshot(7)).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), bytes);
        assert_eq!(load_latest(&dir).unwrap().unwrap(), (snapshot(7), bytes));
        // A stray tmp file (crash mid-snapshot) is ignored entirely: the
        // rename is atomic, so tmp files are never committed state.
        std::fs::write(dir.join(".tmp-snap-00000000000000000009.pcss"), b"junk").unwrap();
        assert_eq!(load(&dir).unwrap().unwrap().seq, 7);
        // Corrupt the newest: the loader must FAIL, not silently fall back
        // to seq 5 — the journal was checkpointed against seq 7, so older
        // state would refund the charges only snapshot 7 holds.
        let mut damaged = std::fs::read(&path).unwrap();
        let last = damaged.len() - 1;
        damaged[last] ^= 0x01;
        std::fs::write(&path, &damaged).unwrap();
        assert!(matches!(
            load(&dir),
            Err(StoreError::Corrupt(ref m)) if m.contains("refusing to recover")
        ));
        // Removing the damaged file restores the (older, still-valid) one —
        // an explicit operator decision, not an automatic fallback.
        std::fs::remove_file(&path).unwrap();
        assert_eq!(load(&dir).unwrap().unwrap(), snapshot(5));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pruning_keeps_the_newest_two_and_clears_temp_files() {
        let dir = crate::test_dir::scratch_path("snapshots-prune");
        std::fs::remove_dir_all(&dir).ok();
        prune_snapshots(&dir).unwrap(); // a missing directory is empty
        for seq in 5..10 {
            write_snapshot(&dir, &snapshot(seq)).unwrap();
        }
        std::fs::write(dir.join(".tmp-snap-00000000000000000010.pcss"), b"junk").unwrap();
        std::fs::write(dir.join("operator-notes.txt"), b"keep me").unwrap();
        prune_snapshots(&dir).unwrap();
        let mut left: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        left.sort();
        assert_eq!(
            left,
            vec![
                "operator-notes.txt",
                "snap-00000000000000000008.pcss",
                "snap-00000000000000000009.pcss",
            ]
        );
        assert_eq!(load(&dir).unwrap().unwrap().seq, 9);
        std::fs::remove_dir_all(&dir).ok();
    }
}
