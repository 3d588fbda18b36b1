//! The append-only journal file.
//!
//! Layout: an 8-byte magic (`PCSJ0001`) followed by framed records (see
//! [`format`](crate::format)). Appends go straight to the file descriptor
//! (no userspace buffering), so a record survives `kill -9` the moment
//! `append` returns. Power-loss durability comes from the
//! [`Store`](crate::Store)'s group-commit writer, which fsyncs appended
//! records in batches through [`Journal::try_clone_file`]; the engine waits
//! for that fsync before releasing anything a charge or registration
//! covers — the *fsync-on-commit* contract.
//!
//! On open the whole file is scanned: complete records are returned for
//! replay, and a torn tail — the half-written record of a crash mid-append
//! — is truncated away. Truncation is sound because an incomplete record
//! was never acknowledged: the engine releases a result only after the
//! fsync of its charge returns, so a torn charge's result was provably
//! never released. Truncation applies **only** to a genuine tail: if
//! intact records follow the damaged frame (mid-file bit rot rather than a
//! crash), or a checksum-valid record fails to parse, open refuses with
//! [`StoreError::Corrupt`] instead of silently deleting acknowledged
//! charges.

use crate::error::StoreError;
use crate::format::{encode_frame, scan_frames, TailStatus, JOURNAL_MAGIC};
use crate::record::StoreRecord;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// An open append-only journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

/// What [`Journal::open`] found on disk.
#[derive(Debug)]
pub struct JournalScan {
    /// The complete records, in file order.
    pub records: Vec<StoreRecord>,
    /// Whether the file ended in a torn record (now truncated), with the
    /// scanner's description. `None` for a clean tail.
    pub torn_tail: Option<String>,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path`, scans every
    /// complete record, and truncates a torn tail so appends resume from
    /// committed state.
    pub fn open(path: impl Into<PathBuf>) -> Result<(Journal, JournalScan), StoreError> {
        let path = path.into();
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| StoreError::io(&path, e))?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)
            .map_err(|e| StoreError::io(&path, e))?;

        if bytes.is_empty() {
            file.write_all(JOURNAL_MAGIC)
                .map_err(|e| StoreError::io(&path, e))?;
            sync(&file, &path)?;
            return Ok((
                Journal { file, path },
                JournalScan {
                    records: Vec::new(),
                    torn_tail: None,
                },
            ));
        }
        if bytes.len() < JOURNAL_MAGIC.len() || &bytes[..JOURNAL_MAGIC.len()] != JOURNAL_MAGIC {
            return Err(StoreError::Corrupt(format!(
                "{} is not a privcluster journal (bad magic)",
                path.display()
            )));
        }

        let body = &bytes[JOURNAL_MAGIC.len()..];
        let (payloads, tail) = scan_frames(body);
        let mut records = Vec::with_capacity(payloads.len());
        for (index, payload) in payloads.iter().enumerate() {
            // A frame whose checksum passes but whose payload does not
            // decode was written that way (the CRC proves the bytes are intact):
            // that is version drift or a logic bug, never a crash
            // signature, and truncating it would delete acknowledged
            // state. Fail loudly instead.
            records.push(StoreRecord::from_payload(payload).map_err(|e| {
                StoreError::Corrupt(format!(
                    "{}: committed record {index} is checksum-valid but unparseable ({e}); \
                     refusing to truncate acknowledged state",
                    path.display()
                ))
            })?);
        }
        let valid_bytes: u64 = payloads.iter().map(|p| 8 + p.len() as u64).sum();
        let mut torn_tail = None;
        if let TailStatus::Torn { reason, .. } = tail {
            // A crash mid-append damages only the *final* record — its
            // bytes run to EOF and nothing follows. If a complete,
            // checksum-valid frame holding a decodable record exists
            // anywhere after the damage point, this is mid-file corruption: the records after it were
            // acknowledged, and truncating them would refund their budget
            // charges. Fail loudly; only a genuine tail is truncated.
            let damaged = &body[valid_bytes as usize..];
            if has_resynced_frame(damaged) {
                return Err(StoreError::Corrupt(format!(
                    "{}: damaged record at byte {} is followed by intact records ({reason}); \
                     this is mid-file corruption, not a torn tail — refusing to truncate \
                     acknowledged state",
                    path.display(),
                    JOURNAL_MAGIC.len() as u64 + valid_bytes
                )));
            }
            torn_tail = Some(reason);
        }

        let keep = JOURNAL_MAGIC.len() as u64 + valid_bytes;
        if keep < bytes.len() as u64 {
            file.set_len(keep).map_err(|e| StoreError::io(&path, e))?;
            sync(&file, &path)?;
        }
        file.seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io(&path, e))?;
        Ok((Journal { file, path }, JournalScan { records, torn_tail }))
    }

    /// Appends one record's frame. It is not fsynced here: the store's
    /// group-commit writer syncs it, and the caller must wait for that
    /// before releasing a result whose charge must already be durable.
    pub fn append(&mut self, record: &StoreRecord) -> Result<(), StoreError> {
        let frame = encode_frame(&record.to_payload()?)?;
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io(&self.path, e))
    }

    /// Checkpoint reset: truncates the journal back to its magic header.
    /// Called by the store **after** a snapshot covering every journaled
    /// record is durably on disk — the snapshot then owns the history and
    /// the journal restarts as the tail beyond it. (Crash between snapshot
    /// and reset is safe: replay is sequence-gated, so the still-present
    /// records are skipped as duplicates.)
    pub fn reset(&mut self) -> Result<(), StoreError> {
        self.file
            .set_len(JOURNAL_MAGIC.len() as u64)
            .map_err(|e| StoreError::io(&self.path, e))?;
        self.file
            .seek(SeekFrom::End(0))
            .map_err(|e| StoreError::io(&self.path, e))?;
        sync(&self.file, &self.path)
    }

    /// Whether the file at `path` holds nothing past the journal magic:
    /// missing, empty, or the magic alone (a fresh or checkpointed
    /// journal). Reads at most nine bytes and writes nothing; any other
    /// bytes, a journal's or not, count as held.
    pub(crate) fn is_empty_at(path: &Path) -> Result<bool, StoreError> {
        let file = match File::open(path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(true),
            Err(e) => return Err(StoreError::io(path, e)),
        };
        let mut head = Vec::with_capacity(JOURNAL_MAGIC.len() + 1);
        file.take(JOURNAL_MAGIC.len() as u64 + 1)
            .read_to_end(&mut head)
            .map_err(|e| StoreError::io(path, e))?;
        Ok(head.is_empty() || head == JOURNAL_MAGIC)
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A duplicated handle onto the journal's file descriptor, for a
    /// group-commit writer thread: `sync_data` on the clone flushes every
    /// write already issued through the original handle (both refer to the
    /// same open file description), so the writer can fsync a batch
    /// without holding the lock that serializes appends.
    pub fn try_clone_file(&self) -> Result<File, StoreError> {
        self.file
            .try_clone()
            .map_err(|e| StoreError::io(&self.path, e))
    }
}

fn sync(file: &File, path: &Path) -> Result<(), StoreError> {
    file.sync_data().map_err(|e| StoreError::io(path, e))
}

/// Whether a complete, checksum-valid frame holding a decodable record
/// starts anywhere in `bytes` beyond offset 0 (offset 0 is the damaged
/// frame itself). Used to tell a genuine torn tail (damage runs to EOF)
/// from mid-file corruption (intact acknowledged records follow the
/// damage).
///
/// The bytes of a torn registration are mostly raw `f64` coordinates, so
/// a candidate must be more than a header whose CRC matches. A 0.0
/// coordinate is eight zero bytes: a length-0, CRC-0 header, and crc32 of
/// no bytes is 0. No record payload is empty, so length 0 is skipped, and
/// a candidate counts only if its payload decodes as a record. The frames
/// after a candidate need not run cleanly to EOF: rot mid-file followed by
/// a later torn append must still refuse rather than truncate.
fn has_resynced_frame(bytes: &[u8]) -> bool {
    use crate::format::{crc32, MAX_RECORD_BYTES};
    for start in 1..bytes.len().saturating_sub(8) {
        let rest = &bytes[start..];
        let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
        if len == 0 || len > MAX_RECORD_BYTES || rest.len() < 8 + len {
            continue;
        }
        let expected = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        let payload = &rest[8..8 + len];
        if crc32(payload) == expected && StoreRecord::from_payload(payload).is_ok() {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_support::{charge, register, release};

    fn temp_path(tag: &str) -> PathBuf {
        crate::test_dir::scratch_path(&format!("journal-{tag}.pcsj"))
    }

    #[test]
    fn journal_round_trips_records_across_reopens() {
        let path = temp_path("roundtrip");
        let records = vec![
            register(1, "demo"),
            charge(2, "demo", "q1", 0.5),
            release(3, "demo", "q1"),
        ];
        {
            let (mut journal, scan) = Journal::open(&path).unwrap();
            assert!(scan.records.is_empty());
            assert!(scan.torn_tail.is_none());
            for r in &records {
                journal.append(r).unwrap();
            }
        }
        let (_, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records, records);
        assert!(scan.torn_tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_truncated_and_reported_once() {
        let path = temp_path("torn");
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal.append(&charge(1, "d", "q1", 0.5)).unwrap();
        }
        // Simulate a crash mid-append: half a record at the tail.
        let half = &encode_frame(&charge(2, "d", "q2", 0.5).to_payload().unwrap()).unwrap()[..11];
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(half).unwrap();
        }
        let (_, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records, vec![charge(1, "d", "q1", 0.5)]);
        assert!(scan.torn_tail.is_some(), "torn tail must be reported");
        // The truncation removed the torn bytes: the next open is clean and
        // the committed record is still there (never refunded).
        let (_, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 1);
        assert!(scan.torn_tail.is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn registration_torn_after_a_zero_coordinate_is_a_torn_tail() {
        // A 0.0 coordinate is eight zero bytes in a row block: a length-0,
        // CRC-0 header, and crc32 of no bytes is 0. Tearing the record
        // anywhere past it must still read as a torn tail.
        let path = temp_path("torn-zero");
        let mut record = register(2, "d");
        if let StoreRecord::Register(r) = &mut record {
            r.rows = vec![vec![0.0, 0.0], vec![0.5, 0.0], vec![0.0, 0.25]];
        }
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            journal.append(&charge(1, "d", "q1", 0.5)).unwrap();
        }
        let committed = std::fs::read(&path).unwrap();
        let frame = encode_frame(&record.to_payload().unwrap()).unwrap();
        for cut in 1..frame.len() {
            let mut bytes = committed.clone();
            bytes.extend_from_slice(&frame[..cut]);
            std::fs::write(&path, &bytes).unwrap();
            let (_, scan) = Journal::open(&path).unwrap_or_else(|e| panic!("cut={cut}: {e}"));
            assert_eq!(scan.records, vec![charge(1, "d", "q1", 0.5)], "cut={cut}");
            assert!(scan.torn_tail.is_some(), "cut={cut}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mid_file_corruption_refuses_instead_of_truncating() {
        let path = temp_path("midfile");
        {
            let (mut journal, _) = Journal::open(&path).unwrap();
            for i in 1..=3 {
                journal
                    .append(&charge(i, "d", &format!("q{i}"), 0.5))
                    .unwrap();
            }
        }
        // Flip a byte inside the FIRST record: two intact, acknowledged
        // records follow, so truncating from the damage would refund their
        // charges. Open must refuse.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[24] ^= 0x20; // inside record 1's payload
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            Journal::open(&path),
            Err(StoreError::Corrupt(ref m)) if m.contains("mid-file corruption")
        ));
        // The same flip in the LAST record is a legitimate tail: truncated,
        // reported, earlier records intact.
        let mut bytes_last = std::fs::read(&path).unwrap();
        bytes_last[24] ^= 0x20; // restore record 1
        let last = bytes_last.len() - 3;
        bytes_last[last] ^= 0x20;
        std::fs::write(&path, &bytes_last).unwrap();
        let (_, scan) = Journal::open(&path).unwrap();
        assert_eq!(scan.records.len(), 2);
        assert!(scan.torn_tail.is_some());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn foreign_files_are_refused() {
        let path = temp_path("foreign");
        std::fs::write(&path, b"{\"not\":\"a journal\"}\n").unwrap();
        assert!(matches!(
            Journal::open(&path),
            Err(StoreError::Corrupt(ref m)) if m.contains("magic")
        ));
        std::fs::remove_file(&path).ok();
    }
}
