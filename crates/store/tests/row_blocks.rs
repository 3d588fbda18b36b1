//! Property tests of the row-block payload layout: registrations,
//! re-registrations and snapshots carry their rows as blocks of grid
//! indices when every coordinate lies on the record's domain grid, and as
//! raw little-endian `f64` otherwise. Every row must come back bit for
//! bit — `-0.0`, subnormals, huge and integral values included — for any
//! dimension from 1 to 8 and any row count from 1 to a few thousand, in
//! either layout. A header that disagrees with its blocks, a block cut
//! short, or a grid index past the domain decodes as
//! `StoreError::Corrupt`: never a panic, never a shorter or different
//! dataset.

use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_store::format::encode_frame;
use privcluster_store::snapshot::{load_latest, write_snapshot};
use privcluster_store::{
    ChargeRecord, DomainSpec, Journal, RegisterRecord, ReleaseRecord, ReregisterRecord, StoreError,
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
    register_on(seq, name, domain(&rows), rows)
}

fn register_on(seq: u64, name: &str, domain: DomainSpec, rows: Vec<Vec<f64>>) -> StoreRecord {
    StoreRecord::Register(RegisterRecord {
        seq,
        dataset: name.to_string(),
        domain,
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

/// The `rows` spec a payload's header gives its only block.
fn block_spec(payload: &[u8]) -> String {
    let (header, _) = split(payload);
    let start = header.find(r#""rows":"#).expect("a rows field") + 7;
    let len = header[start..].find('}').expect("a spec object") + 1;
    header[start..start + len].to_string()
}

fn is_corrupt(payload: &[u8]) -> bool {
    matches!(
        StoreRecord::from_payload(payload),
        Err(StoreError::Corrupt(_))
    )
}

/// Grid sizes on both sides of each index width: one byte up to 256
/// values, two up to 65,536, four up to 2³², and no grid layout past that.
const SIZES: [u64; 8] = [2, 256, 257, 1024, 65_536, 65_537, 1 << 32, (1 << 32) + 1];

/// Bytes per coordinate of the grid layout on `size` values per axis.
fn grid_width(size: u64) -> Option<usize> {
    match size - 1 {
        1..=0xFF => Some(1),
        0x100..=0xFFFF => Some(2),
        0x1_0000..=0xFFFF_FFFF => Some(4),
        _ => None,
    }
}

/// `c` snapped onto `domain`'s grid: `min + round((c − min)/step)·step`.
fn snap(domain: &DomainSpec, c: f64) -> f64 {
    let step = (domain.max - domain.min) / (domain.size - 1) as f64;
    domain.min + ((c - domain.min) / step).round() * step
}

/// A dimension from 1 to 8, an axis `[min, min + span]` whose `min` may be
/// negative and whose step is non-dyadic for almost every span, and 1 to
/// 300 rows as fractions of the axis, each coordinate in `[0, 1]`.
fn grid_case() -> impl Strategy<Value = (f64, f64, Vec<Vec<f64>>)> {
    (1usize..=8, -100.0f64..100.0, 0.5f64..100.0, 1usize..=300).prop_flat_map(
        |(dim, min, span, n)| {
            prop::collection::vec(prop::collection::vec(0.0f64..=1.0, dim), n)
                .prop_map(move |fractions| (min, span, fractions))
        },
    )
}

/// The domain of `size` values per axis over `[min, min + span]` and the
/// case's rows snapped onto its grid.
fn on_grid(
    size: u64,
    (min, span, fractions): &(f64, f64, Vec<Vec<f64>>),
) -> (DomainSpec, Vec<Vec<f64>>) {
    let domain = DomainSpec {
        dim: fractions[0].len(),
        size,
        min: *min,
        max: min + span,
    };
    let rows = fractions
        .iter()
        .map(|row| row.iter().map(|f| snap(&domain, min + f * span)).collect())
        .collect();
    (domain, rows)
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
    fn rows_on_their_grid_take_the_grid_layout_and_round_trip_bit_for_bit(case in grid_case()) {
        for size in SIZES {
            let (domain, rows) = on_grid(size, &case);
            let (n, dim) = (rows.len(), rows[0].len());
            let record = register_on(1, "d", domain, rows.clone());
            let payload = record.to_payload().unwrap();
            let spec = match grid_width(size) {
                Some(width) => format!(r#"{{"n":{n},"dim":{dim},"width":{width}}}"#),
                None => format!(r#"{{"n":{n},"dim":{dim}}}"#),
            };
            prop_assert_eq!(block_spec(&payload), spec);
            prop_assert_eq!(split(&payload).1.len(), n * dim * grid_width(size).unwrap_or(8));
            let back = StoreRecord::from_payload(&payload).unwrap();
            prop_assert_eq!(bits(record_rows(&back)), bits(&rows));
            prop_assert_eq!(without_rows(&back), without_rows(&record));
        }
    }

    #[test]
    fn one_coordinate_off_the_grid_sends_the_block_to_f64(
        case in grid_case(),
        pick in (0.0f64..1.0, 0u8..3),
    ) {
        for size in SIZES {
            let (domain, mut rows) = on_grid(size, &case);
            let (n, dim) = (rows.len(), rows[0].len());
            let step = (domain.max - domain.min) / (size - 1) as f64;
            let at = ((n * dim) as f64 * pick.0) as usize;
            let c = &mut rows[at / dim][at % dim];
            *c = match pick.1 {
                // One ulp from its grid value.
                0 => f64::from_bits(c.to_bits() + 1),
                // One step past either end of the axis.
                1 => domain.min + size as f64 * step,
                _ => domain.min - step,
            };
            let payload = register_on(1, "d", domain, rows.clone()).to_payload().unwrap();
            prop_assert_eq!(block_spec(&payload), format!(r#"{{"n":{n},"dim":{dim}}}"#));
            prop_assert_eq!(split(&payload).1.len(), 8 * n * dim);
            let back = StoreRecord::from_payload(&payload).unwrap();
            prop_assert_eq!(bits(record_rows(&back)), bits(&rows));
        }
    }

    #[test]
    fn snapshots_round_trip_bit_for_bit(
        first in dataset(),
        second in grid_case(),
        third in dataset(),
    ) {
        let (domain, second) = on_grid(1024, &second);
        let records = vec![
            register(1, "a", first),
            register_on(2, "b", domain, second),
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
        let snapshot = StoreState::recover(None, records.clone(), 16).to_snapshot();
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

#[test]
fn a_negative_zero_sends_the_block_to_f64() {
    let unit = DomainSpec {
        dim: 2,
        size: 1024,
        min: 0.0,
        max: 1.0,
    };
    let rows = vec![vec![0.0, snap(&unit, 0.3)], vec![snap(&unit, 1.0), 0.0]];
    let payload = register_on(1, "d", unit.clone(), rows.clone())
        .to_payload()
        .unwrap();
    assert_eq!(block_spec(&payload), r#"{"n":2,"dim":2,"width":2}"#);
    let mut signed = rows;
    signed[1][1] = -0.0;
    let payload = register_on(1, "d", unit, signed.clone())
        .to_payload()
        .unwrap();
    assert_eq!(block_spec(&payload), r#"{"n":2,"dim":2}"#);
    let back = StoreRecord::from_payload(&payload).unwrap();
    assert_eq!(bits(record_rows(&back)), bits(&signed));
}

#[test]
fn grid_indices_past_the_domain_are_corrupt() {
    for (size, width) in [(200u64, 1usize), (1024, 2), (65_537, 4)] {
        let domain = DomainSpec {
            dim: 1,
            size,
            min: -3.0,
            max: 4.0,
        };
        let payload = register_on(1, "d", domain.clone(), vec![vec![-3.0]])
            .to_payload()
            .unwrap();
        let (header, blocks) = split(&payload);
        assert_eq!(blocks, vec![0u8; width]);
        let index = |k: u64| join(&header, &k.to_le_bytes()[..width]);
        // The last index decodes to the axis' last grid value; one past
        // it, or the largest the width holds, is corrupt.
        let StoreRecord::Register(last) = StoreRecord::from_payload(&index(size - 1)).unwrap()
        else {
            unreachable!("a registration")
        };
        assert_eq!(bits(&last.rows), bits(&[vec![snap(&domain, 4.0)]]));
        for k in [size, (1u64 << (8 * width)) - 1] {
            assert!(is_corrupt(&index(k)), "size {size}: index {k} decoded");
        }
    }
}

#[test]
fn grid_blocks_whose_width_or_length_disagree_are_corrupt() {
    let domain = DomainSpec {
        dim: 2,
        size: 1024,
        min: -1.5,
        max: 2.5,
    };
    let rows = vec![
        vec![-1.5, snap(&domain, 0.3)],
        vec![snap(&domain, 2.5), snap(&domain, -0.2)],
    ];
    let payload = register_on(1, "d", domain, rows).to_payload().unwrap();
    let (header, blocks) = split(&payload);
    let spec = r#""rows":{"n":2,"dim":2,"width":2}"#;
    assert!(header.contains(spec), "{header}");
    assert_eq!(blocks.len(), 8);
    // A width other than 1, 2 or 4, or other than the domain's, each with
    // as many block bytes as it implies.
    for width in [0usize, 1, 3, 4, 8] {
        let respec = header.replace(
            spec,
            &format!(r#""rows":{{"n":2,"dim":2,"width":{width}}}"#),
        );
        assert!(
            is_corrupt(&join(&respec, &vec![0u8; 4 * width])),
            "width {width} decoded"
        );
    }
    // Bytes that disagree with n·dim·width: a row or a byte short or over.
    let long = [blocks, &[0u8; 4][..]].concat();
    for damaged in [&blocks[..4], &blocks[..7], &long[..9], &long[..]] {
        assert!(
            is_corrupt(&join(&header, damaged)),
            "{} block bytes decoded",
            damaged.len()
        );
    }
    // A header whose n or dim disagrees with the bytes.
    for (n, dim) in [(1, 2), (3, 2), (2, 1), (2, 3)] {
        let respec = header.replace(
            spec,
            &format!(r#""rows":{{"n":{n},"dim":{dim},"width":2}}"#),
        );
        assert!(
            is_corrupt(&join(&respec, blocks)),
            "n {n}, dim {dim} decoded"
        );
    }
}

#[test]
fn a_grid_registration_torn_at_any_byte_is_a_torn_tail() {
    // Index 0 is two zero bytes here, so runs of zero indices make the
    // same length-0, CRC-0 frame-header candidates that 0.0 coordinates
    // make in an f64 block. Tearing the record anywhere must still read
    // as a torn tail, never as mid-file corruption.
    let unit = DomainSpec {
        dim: 2,
        size: 1024,
        min: 0.0,
        max: 1.0,
    };
    let rows = vec![
        vec![0.0, 0.0],
        vec![0.0, 0.0],
        vec![snap(&unit, 0.5), 0.0],
        vec![0.0, 0.0],
        vec![0.0, 0.0],
        vec![0.0, snap(&unit, 0.25)],
    ];
    let payload = register_on(2, "d", unit, rows).to_payload().unwrap();
    assert_eq!(block_spec(&payload), r#"{"n":6,"dim":2,"width":2}"#);
    let path = std::env::temp_dir().join(format!(
        "privcluster-row-blocks-{}-torn.pcsj",
        std::process::id()
    ));
    std::fs::remove_file(&path).ok();
    let charge = StoreRecord::Charge(ChargeRecord {
        seq: 1,
        dataset: "d".into(),
        fingerprint: "q|d|1".into(),
        label: "good_radius".into(),
        params: PrivacyParams::new(0.5, 1e-9).unwrap(),
    });
    {
        let (mut journal, _) = Journal::open(&path).unwrap();
        journal.append(&charge).unwrap();
    }
    let committed = std::fs::read(&path).unwrap();
    let frame = encode_frame(&payload).unwrap();
    for cut in 1..frame.len() {
        let mut bytes = committed.clone();
        bytes.extend_from_slice(&frame[..cut]);
        std::fs::write(&path, &bytes).unwrap();
        let (_, scan) = Journal::open(&path).unwrap_or_else(|e| panic!("cut={cut}: {e}"));
        assert_eq!(scan.records, vec![charge.clone()], "cut={cut}");
        assert!(scan.torn_tail.is_some(), "cut={cut}");
    }
    std::fs::write(&path, [committed, frame].concat()).unwrap();
    let (_, scan) = Journal::open(&path).unwrap();
    assert_eq!(scan.records.len(), 2);
    assert!(scan.torn_tail.is_none());
    std::fs::remove_file(&path).ok();
}
