//! Property-based tests of the recovery state machine (satellite of the
//! durability PR): for arbitrary journals,
//!
//! (a) replay is idempotent — replaying the same journal twice (and
//!     resuming from a snapshot file of any prefix) yields the
//!     same state, ledger totals and each re-registration's totals equal
//!     bit for bit, with registers, re-registrations, charges, and
//!     releases interleaved arbitrarily, and every dataset's version
//!     history stays gapless,
//! (b) recovering a journal whose tail was truncated or corrupted yields
//!     exactly the committed-prefix state — earlier charges are never
//!     refunded, and the composed spend is monotone in the prefix length,
//! (c) the journal file layer detects a corrupt tail via checksum and
//!     keeps every committed record.

use privcluster_dp::composition::CompositionMode;
use privcluster_dp::{LedgerTotals, PrivacyParams};
use privcluster_store::snapshot::{load_latest, write_snapshot};
use privcluster_store::{
    ChargeRecord, DomainSpec, Journal, RegisterRecord, ReleaseRecord, ReregisterRecord,
    StoreRecord, StoreState,
};
use proptest::prelude::*;
use serde::Value;
use std::path::PathBuf;

fn scratch_path(tag: &str, case: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "privcluster-replay-props-{}-{case}-{tag}.pcsj",
        std::process::id()
    ))
}

/// Deterministically expands a compact spec (a list of small integers) into
/// a journal: 0 → register a fresh dataset, 1 → re-register one (next
/// version, inherited ledger), 2 → an *out-of-sequence* re-registration
/// (claims a gapped version — journal-parseable, but replay must skip it
/// without disturbing the version history), otherwise → charge (and, when
/// the integer is even, also release) against a registered dataset.
fn journal_from_spec(spec: &[u8]) -> Vec<StoreRecord> {
    let mut records = Vec::new();
    let mut seq = 0u64;
    let mut datasets: Vec<String> = Vec::new();
    let mut versions: Vec<u64> = Vec::new();
    for &step in spec {
        seq += 1;
        if step == 0 || datasets.is_empty() {
            let name = format!("d{}", datasets.len());
            records.push(StoreRecord::Register(RegisterRecord {
                seq,
                dataset: name.clone(),
                domain: DomainSpec {
                    dim: 2,
                    size: 1024,
                    min: 0.0,
                    max: 1.0,
                },
                budget: PrivacyParams::new(4.0, 1e-5).unwrap(),
                mode: CompositionMode::Basic,
                backend: "exact".to_string(),
                fingerprint: format!("reg|{name}"),
                // A 0.0 coordinate is eight zero bytes in the row block,
                // which must not read as an empty frame when a truncation
                // tears the record after it.
                rows: vec![vec![0.0, 0.5], vec![0.75, 0.5]],
            }));
            datasets.push(name);
            versions.push(1);
            continue;
        }
        if step == 1 || step == 2 {
            let i = seq as usize % datasets.len();
            let name = datasets[i].clone();
            let version = if step == 1 {
                versions[i] + 1
            } else {
                versions[i] + 2 // a gap: replay must refuse it
            };
            records.push(StoreRecord::Reregister(ReregisterRecord {
                seq,
                dataset: name.clone(),
                version,
                // These rows lie on a 1,025-value grid, so their block holds
                // 2-byte grid indices (0.0 is two zero bytes) where the
                // registrations' off-grid rows hold raw f64: the journals
                // mix both layouts.
                domain: DomainSpec {
                    dim: 2,
                    size: 1025,
                    min: 0.0,
                    max: 1.0,
                },
                backend: "exact".to_string(),
                fingerprint: format!("reg|{name}|v{version}"),
                rows: vec![vec![0.5, 0.25], vec![0.0, 0.75]],
            }));
            if step == 1 {
                versions[i] += 1;
            }
            continue;
        }
        let dataset = datasets[step as usize % datasets.len()].clone();
        let fingerprint = format!("q|{dataset}|{seq}");
        records.push(StoreRecord::Charge(ChargeRecord {
            seq,
            dataset: dataset.clone(),
            fingerprint: fingerprint.clone(),
            label: format!("q{seq}"),
            params: PrivacyParams::new(0.001 * step as f64 + 1e-4, 1e-9).unwrap(),
        }));
        if step % 2 == 0 {
            seq += 1;
            records.push(StoreRecord::Release(ReleaseRecord {
                seq,
                dataset,
                fingerprint,
                value: Value::Object(vec![
                    ("type".to_string(), Value::String("radius".to_string())),
                    ("radius".to_string(), Value::Number(step as f64 / 255.0)),
                ]),
            }));
        }
    }
    records
}

/// Basic-composed ε spend per dataset, the quantity that must never shrink.
fn spend_by_dataset(state: &StoreState) -> Vec<(String, f64)> {
    state
        .totals()
        .iter()
        .map(|(name, totals)| (name.clone(), totals.epsilon_sum()))
        .collect()
}

/// A [`LedgerTotals`] as its count and the bits of its four floats.
type Bits = (u64, u64, u64, u64, u64);

fn bits(totals: &LedgerTotals) -> Bits {
    (
        totals.count(),
        totals.epsilon_sum().to_bits(),
        totals.delta_sum().to_bits(),
        totals.epsilon_max().to_bits(),
        totals.delta_max().to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (a) Idempotence: replaying the journal twice changes nothing, and
    /// resuming from a snapshot file written at *any* prefix point, then
    /// replaying the full journal over it, equals the single full replay.
    #[test]
    fn replay_is_idempotent_and_snapshot_resumable(
        spec in prop::collection::vec(0u8..20, 1..60),
        cut in prop::collection::vec(0.0f64..1.0, 1),
    ) {
        let records = journal_from_spec(&spec);
        let full = StoreState::recover(None, records.clone(), 32);

        let mut twice = full.clone();
        for record in &records {
            prop_assert!(!twice.apply(record.clone()), "covered seq must be a no-op");
        }
        prop_assert!(full.same_state(&twice));

        let k = ((records.len() as f64) * cut[0]) as usize;
        let dir = scratch_path("snapshots", k as u64 * 1_000 + records.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
        write_snapshot(&dir, &StoreState::recover(None, records[..k].to_vec(), 32).to_snapshot()).unwrap();
        let (snapshot, _) = load_latest(&dir).unwrap().expect("just written");
        std::fs::remove_dir_all(&dir).ok();
        let resumed = StoreState::recover(Some(&snapshot), records.clone(), 32);
        prop_assert!(full.same_state(&resumed),
            "snapshot at {k}/{} + full journal must equal full replay", records.len());
        let totals = |state: &StoreState| -> Vec<(String, Bits)> {
            state.totals().iter().map(|(name, t)| (name.clone(), bits(t))).collect()
        };
        prop_assert_eq!(totals(&resumed), totals(&full));
        let inherited = |state: &StoreState| -> Vec<(u64, Bits)> {
            state.reregisters().iter().map(|(r, t)| (r.seq, bits(t))).collect()
        };
        prop_assert_eq!(inherited(&resumed), inherited(&full));

        // Version histories are gapless no matter how the journal
        // interleaved valid and out-of-sequence re-registrations: each
        // dataset's applied versions count 2, 3, … up to its current one.
        for (name, version) in full.versions() {
            let applied: Vec<u64> = full
                .reregisters()
                .iter()
                .filter(|(r, _)| &r.dataset == name)
                .map(|(r, _)| r.version)
                .collect();
            prop_assert!(applied == (2..=*version).collect::<Vec<u64>>(),
                "dataset {name} must replay a gapless chain to {version}, got {applied:?}");
        }
    }

    /// (b) A lost tail only loses the tail: recovery of any prefix is
    /// exactly the prefix state, and spend is monotone — committed charges
    /// are never refunded by later truncation.
    #[test]
    fn truncated_tails_never_refund_committed_spend(
        spec in prop::collection::vec(0u8..20, 1..60),
        cut in prop::collection::vec(0.0f64..1.0, 1),
    ) {
        let records = journal_from_spec(&spec);
        let k = ((records.len() as f64) * cut[0]) as usize;
        let prefix = StoreState::recover(None, records[..k].to_vec(), 1024);
        let full = StoreState::recover(None, records.clone(), 1024);
        let prefix_spend = spend_by_dataset(&prefix);
        let full_spend = spend_by_dataset(&full);
        for (dataset, spent) in &prefix_spend {
            let after = full_spend
                .iter()
                .find(|(name, _)| name == dataset)
                .map(|(_, s)| *s)
                .unwrap_or(0.0);
            prop_assert!(
                after >= *spent - 1e-12,
                "dataset {dataset}: spend shrank from {spent} to {after}"
            );
        }
    }

    /// (c) End to end through the file layer: write a journal, then either
    /// truncate it at an arbitrary byte (a torn tail — reopen keeps exactly
    /// the complete prefix and reports the tear) or flip a bit at an
    /// arbitrary offset (reopen keeps the prefix only when the damaged
    /// record is the *final* one; damage followed by intact acknowledged
    /// records must refuse to open rather than silently truncate them).
    #[test]
    fn file_layer_detects_corrupt_tails_by_checksum(
        spec in prop::collection::vec(0u8..20, 2..24),
        damage in prop::collection::vec(0.0f64..1.0, 2),
    ) {
        let records = journal_from_spec(&spec);
        let path = scratch_path("tail", spec.iter().map(|&b| b as u64).sum::<u64>());
        std::fs::remove_file(&path).ok();
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            for record in &records {
                journal.append(record).unwrap();
            }
        }
        let bytes = std::fs::read(&path).unwrap();
        // Frame boundaries (absolute file offsets) for the ground truth.
        let mut boundaries = Vec::with_capacity(records.len() + 1);
        let mut at = 8usize; // after the magic
        boundaries.push(at);
        for record in &records {
            at += 8 + record.to_payload().unwrap().len();
            boundaries.push(at);
        }
        // Damage strictly after the magic so the file stays a journal.
        let offset = 8 + ((bytes.len() - 9) as f64 * damage[0]) as usize;

        if damage[1] < 0.5 && offset < bytes.len() {
            // Bit-flip flavour.
            let mut damaged = bytes.clone();
            damaged[offset] ^= 0x20;
            std::fs::write(&path, &damaged).unwrap();
            let hit = boundaries.iter().filter(|&&b| b <= offset).count() - 1;
            if hit + 1 == records.len() {
                // Damage in the final record: a legitimate torn tail.
                let (_, scan) = Journal::open(&path).unwrap();
                prop_assert_eq!(&scan.records[..], &records[..hit]);
                prop_assert!(scan.torn_tail.is_some(), "silent record loss");
            } else {
                // Intact records follow the damage: must refuse, not truncate.
                let result = Journal::open(&path);
                prop_assert!(
                    matches!(result, Err(privcluster_store::StoreError::Corrupt(_))),
                    "mid-file corruption at record {hit} of {} must fail loudly, got {result:?}",
                    records.len()
                );
            }
        } else {
            // Truncation flavour: everything from `offset` on is lost.
            std::fs::write(&path, &bytes[..offset]).unwrap();
            let complete = boundaries.iter().filter(|&&b| b <= offset).count() - 1;
            let (_, scan) = Journal::open(&path).unwrap();
            prop_assert_eq!(&scan.records[..], &records[..complete]);
            if complete < records.len() {
                prop_assert!(scan.torn_tail.is_some(), "silent record loss");
            }
        }
        std::fs::remove_file(&path).ok();
    }
}
