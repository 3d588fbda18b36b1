//! `privcluster-store` — durability for the query engine: an append-only,
//! checksummed journal of engine state transitions, periodic snapshots,
//! and deterministic crash recovery.
//!
//! The engine built on top of this crate enforces the paper's privacy
//! guarantees through a budget ledger; without durability that ledger is
//! process-lifetime state, and a restart would silently re-grant queries
//! against an exhausted budget — a privacy violation, not merely an
//! availability gap. This crate makes the ledger a **write-ahead** one:
//!
//! 1. every dataset registration and every admitted budget charge is
//!    appended to the journal and fsynced *before* the corresponding noisy
//!    result is released ([`ChargeRecord`] before release — the
//!    charge-then-release invariant);
//! 2. released results are appended afterwards ([`ReleaseRecord`]) so
//!    recovery can repopulate the zero-charge replay cache;
//! 3. recovery ([`StoreState::recover`]) replays the newest snapshot
//!    plus the journal tail, sequence-gated so replay is idempotent. A
//!    charge with no release is *charged-but-unreleased*: its budget stays
//!    spent — never refunded — because whether the in-flight result leaked
//!    cannot be proven after a crash.
//!
//! A torn tail record (a crash mid-append) fails its checksum, is
//! reported, and is truncated: it was never acknowledged, and the engine
//! releases a result only after the fsync of its charge returns, so a torn
//! charge's result was provably never released.
//!
//! The crate is engine-agnostic: released values are opaque JSON trees and
//! geometry-backend kinds are strings. `privcluster-engine` owns the
//! vocabulary and drives [`Store`] through its `Engine::open` path.

#![warn(missing_docs)]

pub mod error;
pub mod format;
pub mod journal;
pub mod payload;
pub mod record;
pub mod recovery;
pub mod snapshot;
pub mod store;
mod wire;

pub use error::StoreError;
pub use format::{crc32, TailStatus, MAX_RECORD_BYTES};
pub use journal::{Journal, JournalScan};
pub use record::{
    ChargeRecord, DomainSpec, RegisterRecord, ReleaseRecord, ReregisterRecord, StoreRecord,
};
pub use recovery::StoreState;
pub use snapshot::Snapshot;
pub use store::{
    GroupCommitConfig, PendingCommit, RecoveryReport, Store, StoreConfig, StoreObserver,
};

#[cfg(test)]
pub(crate) mod test_dir {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    static COUNTER: AtomicU64 = AtomicU64::new(0);

    /// A per-test scratch path under the target-adjacent temp dir, unique
    /// across processes (pid) and within one (counter).
    pub fn scratch_path(tag: &str) -> PathBuf {
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "privcluster-store-test-{}-{n}-{tag}",
            std::process::id()
        ))
    }
}
