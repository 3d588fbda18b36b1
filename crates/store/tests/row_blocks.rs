//! Property tests of the row-block payload layout: registrations,
//! re-registrations and version-4 snapshots carry their rows as raw
//! little-endian `f64` blocks, and every row must come back bit for bit —
//! `-0.0`, subnormals, huge and integral values included — for any
//! dimension from 1 to 8 and any row count from 1 to a few thousand. A
//! header that disagrees with its blocks, or a block cut short, decodes as
//! `StoreError::Corrupt`: never a panic, never a shorter dataset.

use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_store::snapshot::{load_latest, write_snapshot};
use privcluster_store::{
    ChargeRecord, DomainSpec, RegisterRecord, ReleaseRecord, ReregisterRecord, StoreError,
    StoreRecord, StoreState,
};
use proptest::prelude::*;
use serde::Value;
use std::path::PathBuf;

/// One coordinate of a chosen kind, from 64 random bits.
fn coordinate((kind, bits): (u8, u64)) -> f64 {
    let sign = bits & (1 << 63);
    let mantissa = bits & ((1 << 52) - 1);
    match kind {
        0 => -0.0,
        // Subnormal: exponent field zero.
        1 => f64::from_bits(sign | mantissa),
        // Within a factor of two of `f64::MAX`.
        2 => f64::from_bits(sign | (0x7FE << 52) | mantissa),
        // Integral, up to 2^52 in magnitude.
        3 => ((bits as i64) >> 11) as f64,
        4 => Some(f64::from_bits(bits))
            .filter(|x| x.is_finite())
            .unwrap_or(0.5),
        _ => (bits >> 11) as f64 / (1u64 << 53) as f64,
    }
}

fn rows(dim: usize, n: usize) -> impl Strategy<Value = Vec<Vec<f64>>> {
    prop::collection::vec(
        prop::collection::vec((0u8..8, 0u64..=u64::MAX).prop_map(coordinate), dim),
        n,
    )
}

/// 1 to 8 coordinates per row, 1 to 3,000 rows.
fn dataset() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..=8, 1usize..=3000).prop_flat_map(|(dim, n)| rows(dim, n))
}

fn bits(rows: &[Vec<f64>]) -> Vec<Vec<u64>> {
    rows.iter()
        .map(|row| row.iter().map(|x| x.to_bits()).collect())
        .collect()
}

fn domain(rows: &[Vec<f64>]) -> DomainSpec {
    DomainSpec {
        dim: rows[0].len(),
        size: 1024,
        min: 0.0,
        max: 1.0,
    }
}

fn register(seq: u64, name: &str, rows: Vec<Vec<f64>>) -> StoreRecord {
    StoreRecord::Register(RegisterRecord {
        seq,
        dataset: name.to_string(),
        domain: domain(&rows),
        budget: PrivacyParams::new(2.0, 1e-6).unwrap(),
        mode: CompositionMode::Advanced { delta_prime: 1e-7 },
        backend: "projected".to_string(),
        fingerprint: format!("reg|{name}"),
        rows,
    })
}

fn reregister(seq: u64, name: &str, version: u64, rows: Vec<Vec<f64>>) -> StoreRecord {
    StoreRecord::Reregister(ReregisterRecord {
        seq,
        dataset: name.to_string(),
        version,
        domain: domain(&rows),
        backend: "exact".to_string(),
        fingerprint: format!("reg|{name}|v{version}"),
        rows,
    })
}

fn record_rows(record: &StoreRecord) -> &[Vec<f64>] {
    match record {
        StoreRecord::Register(r) => &r.rows,
        StoreRecord::Reregister(r) => &r.rows,
        _ => &[],
    }
}

/// The record with its rows swapped out, so everything but the rows can
/// be compared with `==` (which would equate `-0.0` and `0.0`).
fn without_rows(record: &StoreRecord) -> StoreRecord {
    let mut record = record.clone();
    match &mut record {
        StoreRecord::Register(r) => r.rows.clear(),
        StoreRecord::Reregister(r) => r.rows.clear(),
        _ => {}
    }
    record
}

/// A payload's header text and block bytes.
fn split(payload: &[u8]) -> (String, &[u8]) {
    assert_eq!(payload[0], 0xB1);
    let len = u32::from_le_bytes(payload[1..5].try_into().unwrap()) as usize;
    let header = String::from_utf8(payload[5..5 + len].to_vec()).unwrap();
    (header, &payload[5 + len..])
}

fn join(header: &str, blocks: &[u8]) -> Vec<u8> {
    let mut out = vec![0xB1];
    out.extend_from_slice(&(header.len() as u32).to_le_bytes());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(blocks);
    out
}

fn is_corrupt(payload: &[u8]) -> bool {
    matches!(
        StoreRecord::from_payload(payload),
        Err(StoreError::Corrupt(_))
    )
}

fn scratch_dir(case: usize) -> PathBuf {
    std::env::temp_dir().join(format!(
        "privcluster-row-blocks-{}-{case}",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn registrations_round_trip_bit_for_bit(rows in dataset(), version in 2u64..50) {
        for record in [register(7, "d", rows.clone()), reregister(8, "d", version, rows.clone())] {
            let payload = record.to_payload().unwrap();
            let (header, blocks) = split(&payload);
            prop_assert_eq!(blocks.len(), 8 * rows.len() * rows[0].len());
            prop_assert!(header.contains(&format!(
                r#""rows":{{"n":{},"dim":{}}}"#,
                rows.len(),
                rows[0].len()
            )));
            let back = StoreRecord::from_payload(&payload).unwrap();
            prop_assert_eq!(bits(record_rows(&back)), bits(&rows));
            prop_assert_eq!(without_rows(&back), without_rows(&record));
        }
    }

    #[test]
    fn version_four_snapshots_round_trip_bit_for_bit(
        first in dataset(),
        second in dataset(),
        third in dataset(),
    ) {
        let records = vec![
            register(1, "a", first),
            register(2, "b", second),
            StoreRecord::Charge(ChargeRecord {
                seq: 3,
                dataset: "a".into(),
                fingerprint: "q|a|1".into(),
                label: "good_radius".into(),
                params: PrivacyParams::new(0.25, 1e-9).unwrap(),
            }),
            StoreRecord::Release(ReleaseRecord {
                seq: 4,
                dataset: "a".into(),
                fingerprint: "q|a|1".into(),
                value: Value::Object(vec![("radius".into(), Value::Number(-0.0))]),
            }),
            reregister(5, "a", 2, third),
        ];
        let snapshot = StoreState::recover(None, &records, 16).to_snapshot();
        let dir = scratch_dir(records.iter().map(|r| record_rows(r).len()).sum());
        std::fs::remove_dir_all(&dir).ok();
        write_snapshot(&dir, &snapshot).unwrap();
        let (back, _) = load_latest(&dir).unwrap().expect("just written");
        std::fs::remove_dir_all(&dir).ok();
        prop_assert_eq!(back.registers.len(), 2);
        prop_assert_eq!(back.reregisters.len(), 1);
        for (got, want) in back.registers.iter().zip(&snapshot.registers) {
            prop_assert_eq!(bits(&got.rows), bits(&want.rows));
        }
        prop_assert_eq!(bits(&back.reregisters[0].0.rows), bits(&snapshot.reregisters[0].0.rows));
        prop_assert!(back == snapshot);
    }

    #[test]
    fn blocks_that_disagree_with_their_header_are_corrupt(
        rows in dataset(),
        damage in (0u8..6, 0.0f64..1.0),
    ) {
        let (n, dim) = (rows.len(), rows[0].len());
        let payload = register(1, "d", rows).to_payload().unwrap();
        let (header, blocks) = split(&payload);
        let spec = format!(r#""rows":{{"n":{n},"dim":{dim}}}"#);
        let respec = |n: usize, dim: usize| {
            header.replace(&spec, &format!(r#""rows":{{"n":{n},"dim":{dim}}}"#))
        };
        let cut = 1 + ((blocks.len() - 1) as f64 * damage.1) as usize;
        let damaged = match damage.0 {
            0 => join(&respec(n + 1, dim), blocks),
            1 => join(&respec(n - 1, dim), blocks),
            2 => join(&respec(n, dim + 1), blocks),
            3 => join(&respec(n, dim - 1), blocks),
            // A block cut short by 1 to all of its bytes.
            4 => join(&header, &blocks[..blocks.len() - cut]),
            // Bytes past the last block.
            _ => join(&header, &[blocks, &vec![0u8; cut.min(64)][..]].concat()),
        };
        prop_assert!(is_corrupt(&damaged), "damage {:?} decoded", damage);
    }
}

#[test]
fn truncated_headers_are_corrupt() {
    let payload = register(1, "d", vec![vec![0.5, -0.0]])
        .to_payload()
        .unwrap();
    let (header, _) = split(&payload);
    for len in 1..5 + header.len() {
        assert!(is_corrupt(&payload[..len]), "{len}-byte prefix decoded");
    }
    // A header length that runs past the payload.
    let mut long = payload.clone();
    long[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(is_corrupt(&long));
}
