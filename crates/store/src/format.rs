//! The on-disk record framing: length-prefixed, CRC-checksummed payloads.
//!
//! Every journal record and every snapshot body is framed the same way:
//!
//! ```text
//! [payload length: u32 LE] [CRC-32 of payload: u32 LE] [payload bytes]
//! ```
//!
//! The frame does not look inside its payload. A payload is either compact
//! UTF-8 JSON, or — for registrations and snapshots — a JSON header
//! followed by raw little-endian `f64` row blocks; see
//! [`payload`](mod@crate::payload). A record is *committed* exactly when all of
//! its bytes are on disk; a partially written record at the end of a
//! journal — a "torn tail", the signature of a crash mid-append — fails its
//! length or checksum test and is reported (never silently skipped) by
//! [`scan_frames`].

use crate::error::StoreError;

/// Magic bytes opening a journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"PCSJ0001";
/// Magic bytes opening a snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"PCSS0001";

/// Upper bound on a single record's payload, mirroring the service's
/// request-line cap plus headroom for journal framing of a full inline
/// registration. A length prefix above this is treated as corruption rather
/// than honoured with a giant allocation.
pub const MAX_RECORD_BYTES: usize = 64 * 1024 * 1024;

/// CRC-32 (IEEE 802.3 polynomial, reflected), the checksum guarding every
/// framed payload. Slicing-by-8: each step folds eight bytes through eight
/// tables, then the bytes left over go one at a time.
pub fn crc32(bytes: &[u8]) -> u32 {
    const TABLES: [[u32; 256]; 8] = crc32_tables();
    let byte =
        |table: usize, word: u32, shift: u32| TABLES[table][((word >> shift) & 0xFF) as usize];
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        crc = byte(7, lo, 0)
            ^ byte(6, lo, 8)
            ^ byte(5, lo, 16)
            ^ byte(4, lo, 24)
            ^ byte(3, hi, 0)
            ^ byte(2, hi, 8)
            ^ byte(1, hi, 16)
            ^ byte(0, hi, 24);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ byte(0, crc ^ u32::from(b), 0);
    }
    !crc
}

/// The slicing tables: `tables[0][i]` is the CRC of byte `i`, and
/// `tables[k][i]` is `tables[k − 1][i]` run on through one more zero byte.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Frames a payload: `[len][crc][payload]`.
pub fn encode_frame(payload: &[u8]) -> Result<Vec<u8>, StoreError> {
    if payload.len() > MAX_RECORD_BYTES {
        return Err(StoreError::Corrupt(format!(
            "record payload of {} bytes exceeds the {MAX_RECORD_BYTES}-byte cap",
            payload.len()
        )));
    }
    let mut out = Vec::with_capacity(8 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    Ok(out)
}

/// What the scanner found at the end of a byte stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// Every byte belonged to a complete, checksum-valid record.
    Clean,
    /// The stream ends in a torn or corrupt record. `valid_bytes` is the
    /// offset of the last byte of the last *complete* record — everything
    /// after it is not committed state.
    Torn {
        /// Prefix length (in bytes) holding only complete records.
        valid_bytes: u64,
        /// Human-readable description of what broke.
        reason: String,
    },
}

/// Splits a byte stream (a journal file after its magic, or a snapshot
/// body) into complete framed payloads. Scanning stops at the first
/// incomplete or checksum-failing record; the records before it are
/// committed state, the bytes after it are the torn tail.
pub fn scan_frames(bytes: &[u8]) -> (Vec<&[u8]>, TailStatus) {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            return (payloads, TailStatus::Clean);
        }
        if rest.len() < 8 {
            return (
                payloads,
                TailStatus::Torn {
                    valid_bytes: offset as u64,
                    reason: format!("{}-byte partial record header at the tail", rest.len()),
                },
            );
        }
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        let expected_crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_BYTES {
            return (
                payloads,
                TailStatus::Torn {
                    valid_bytes: offset as u64,
                    reason: format!("record length {len} exceeds the {MAX_RECORD_BYTES}-byte cap"),
                },
            );
        }
        if rest.len() < 8 + len {
            return (
                payloads,
                TailStatus::Torn {
                    valid_bytes: offset as u64,
                    reason: format!(
                        "record announces {len} payload bytes but only {} remain",
                        rest.len() - 8
                    ),
                },
            );
        }
        let payload = &rest[8..8 + len];
        let actual_crc = crc32(payload);
        if actual_crc != expected_crc {
            return (
                payloads,
                TailStatus::Torn {
                    valid_bytes: offset as u64,
                    reason: format!(
                        "checksum mismatch: stored {expected_crc:#010x}, computed {actual_crc:#010x}"
                    ),
                },
            );
        }
        payloads.push(payload);
        offset += 8 + len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise CRC-32 loop, one table lookup per byte: the reference
    /// the sliced loop is checked against.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = crc32_tables()[0];
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        // Every short length at every alignment: whole steps, remainders
        // and both together.
        let bytes: Vec<u8> = (0u8..80).map(|b| b.wrapping_mul(37) ^ 0x5A).collect();
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &bytes[start..start + len];
                assert_eq!(crc32(slice), crc32_bytewise(slice), "{start}+{len}");
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Slicing-by-8 is the bytewise loop at every length up to 4,096
        /// and every start offset modulo 8.
        #[test]
        fn sliced_crc32_matches_the_bytewise_loop(
            bytes in prop::collection::vec(0u8..=255, 4096 + 7),
            start in 0usize..8,
            len in 0usize..=4096,
        ) {
            let slice = &bytes[start..start + len];
            prop_assert_eq!(crc32(slice), crc32_bytewise(slice));
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut stream = Vec::new();
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"{\"k\":1}"];
        for p in &payloads {
            stream.extend_from_slice(&encode_frame(p).unwrap());
        }
        let (scanned, tail) = scan_frames(&stream);
        assert_eq!(tail, TailStatus::Clean);
        assert_eq!(scanned, payloads);
    }

    #[test]
    fn torn_tail_is_detected_and_prefix_preserved() {
        let mut stream = encode_frame(b"complete").unwrap();
        let valid = stream.len() as u64;
        let torn = encode_frame(b"never finished").unwrap();
        // Write only part of the second record, as a crash mid-append would.
        for cut in [1, 7, 8, torn.len() - 1] {
            let mut s = stream.clone();
            s.extend_from_slice(&torn[..cut]);
            let (scanned, tail) = scan_frames(&s);
            assert_eq!(scanned, vec![b"complete".as_slice()], "cut={cut}");
            match tail {
                TailStatus::Torn { valid_bytes, .. } => assert_eq!(valid_bytes, valid),
                TailStatus::Clean => panic!("cut={cut} should be torn"),
            }
        }
        // A bit flip in a *complete* record is caught by the checksum.
        stream.extend_from_slice(&torn);
        let flip = valid as usize + 9; // inside the second payload
        stream[flip] ^= 0x40;
        let (scanned, tail) = scan_frames(&stream);
        assert_eq!(scanned.len(), 1);
        assert!(matches!(tail, TailStatus::Torn { valid_bytes, ref reason }
            if valid_bytes == valid && reason.contains("checksum")));
    }

    #[test]
    fn absurd_length_prefixes_are_corruption_not_allocations() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&(u32::MAX).to_le_bytes());
        stream.extend_from_slice(&0u32.to_le_bytes());
        let (scanned, tail) = scan_frames(&stream);
        assert!(scanned.is_empty());
        assert!(
            matches!(tail, TailStatus::Torn { valid_bytes: 0, ref reason }
            if reason.contains("cap"))
        );
        assert!(encode_frame(&vec![0u8; MAX_RECORD_BYTES + 1]).is_err());
    }
}
