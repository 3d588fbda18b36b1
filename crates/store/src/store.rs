//! The engine-facing store handle: one object tying journal, snapshots,
//! and the live compacted state together.
//!
//! # Group commit
//!
//! Every commit takes one path. The record's frame reaches the file
//! descriptor under the store lock (journal order = admission order, and
//! the unbuffered write already survives `kill -9`), and a dedicated
//! writer thread fsyncs once per batch, then releases every waiter whose
//! record the sync covered. [`Store::append_deferred`] returns a
//! [`PendingCommit`]; the caller's result may be released only after
//! `wait()` returns — the write-ahead contract, at one fsync per batch of
//! concurrent commits. Release records never wait for an fsync (see
//! [`Store::append`]). If the writer thread dies — a failed fsync, or a
//! panic — it leaves a sticky error behind and wakes every waiter, so each
//! pending and later commit fails rather than hangs.

use crate::error::StoreError;
use crate::journal::Journal;
use crate::record::StoreRecord;
use crate::recovery::StoreState;
use crate::snapshot::{has_snapshot, load_latest, prune_snapshots, write_snapshot};
use privcluster_obs::{event, EventStream, Histogram, Severity, Stopwatch};
use std::fs::File;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::time::Duration;

/// Telemetry hooks a host (the engine) can attach to a store: histograms
/// for commit fsync latency and group-commit batch sizes, and an event
/// stream for snapshot lifecycle moments. Per the obs no-payload-data
/// contract, the store reports timings, sequence numbers, batch counts,
/// and failure reasons — never record contents.
#[derive(Debug, Clone)]
pub struct StoreObserver {
    /// Receives the duration of each batch fsync, in seconds.
    pub fsync_seconds: Arc<Histogram>,
    /// Receives the number of records each batch fsync covered.
    pub group_commit_batch: Arc<Histogram>,
    /// Receives `store.snapshot` / `store.snapshot_failed` /
    /// `store.snapshot_prune_failed` events.
    pub events: Arc<EventStream>,
}

/// Tuning for the group-commit writer thread.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCommitConfig {
    /// Sync as soon as this many records are waiting (the dwell below is
    /// cut short). `1` gives every record its own fsync; `0` acts as `1`.
    pub max_batch: usize,
    /// How long the writer dwells (in microseconds) for more records to
    /// join a batch before syncing what it has. `0` syncs immediately —
    /// batching still emerges under load, because records that arrive
    /// while a sync is in flight share the next one.
    pub max_wait_us: u64,
}

impl Default for GroupCommitConfig {
    /// Batches of up to 64 records, synced with no dwell.
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 64,
            max_wait_us: 0,
        }
    }
}

/// Where and how a [`Store`] persists engine state.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Path of the append-only journal (created if absent).
    pub journal_path: PathBuf,
    /// Directory for periodic snapshots. `None` disables snapshots and the
    /// journal alone carries the full history. When set, every successful
    /// snapshot **checkpoints** the journal — truncating the records the
    /// snapshot now owns, so recovery reads one framed snapshot plus a
    /// bounded tail — which makes the snapshot directory part of the
    /// durable state: never delete it (or drop this setting) while keeping
    /// the journal. After each snapshot the directory is pruned to the
    /// newest two snapshot files.
    pub snapshot_dir: Option<PathBuf>,
    /// Write a snapshot after this many appends (0 disables automatic
    /// snapshots; [`Store::snapshot_now`] still works).
    pub snapshot_every: usize,
    /// How many released results the compacted state (and therefore each
    /// snapshot) retains — the engine passes its replay-cache capacity.
    pub max_retained_releases: usize,
    /// Tuning for the group-commit writer that makes every commit
    /// durable; `None` runs it with [`GroupCommitConfig::default`].
    pub group_commit: Option<GroupCommitConfig>,
}

impl StoreConfig {
    /// A config journaling to `path` with snapshots disabled and the
    /// default group-commit writer.
    pub fn journal_only(path: impl Into<PathBuf>) -> Self {
        StoreConfig {
            journal_path: path.into(),
            snapshot_dir: None,
            snapshot_every: 0,
            max_retained_releases: 256,
            group_commit: None,
        }
    }

    /// Whether a store opened with this config would recover any state,
    /// found without writing: a byte past the journal's magic, or a
    /// snapshot in the snapshot directory (a checkpoint leaves the journal
    /// at its magic and the state in the snapshot). A missing journal or
    /// directory holds none. Like [`Store::open`], it reads only the
    /// configured snapshot directory.
    pub fn holds_state(&self) -> Result<bool, StoreError> {
        if !Journal::is_empty_at(&self.journal_path)? {
            return Ok(true);
        }
        match &self.snapshot_dir {
            Some(dir) => has_snapshot(dir),
            None => Ok(false),
        }
    }
}

/// What [`Store::open`] found on disk, for the engine to replay.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The recovered compacted state (empty for a virgin store).
    pub state: StoreState,
    /// Whether any committed state was recovered (snapshot or journal
    /// records) — surfaced as `recovered` in the engine's status output.
    pub recovered: bool,
    /// Description of a torn journal tail, if one was found (and
    /// truncated). Committed records before the tear are all in `state`.
    pub torn_tail: Option<String>,
}

/// Shared state between appenders and the group-commit writer thread.
///
/// `appended` / `synced` are high-water sequence numbers, not counts:
/// `appended` is the highest fsync-bearing record whose frame has reached
/// the descriptor, `synced` the highest covered by a completed fsync (or
/// by a durable snapshot, which owns truncated records outright). The
/// commit queue is the gap between them.
#[derive(Debug)]
struct CommitState {
    appended: u64,
    synced: u64,
    /// Completed batch fsyncs (for tests and diagnostics).
    fsyncs: u64,
    /// Sticky first fsync failure: once a batch sync fails, every waiter
    /// at or past `synced` — and every later append — must fail, because
    /// their charges are not durable.
    error: Option<String>,
    shutdown: bool,
}

#[derive(Debug)]
struct GroupCommit {
    /// Always taken with poison recovery: every update under it is a
    /// single field store, so the state stays consistent after a panicked
    /// holder, and a waiter must always be able to read the sticky error.
    commit: Mutex<CommitState>,
    /// Wakes the writer (new work, or shutdown).
    work: Condvar,
    /// Wakes waiters (batch synced, snapshot advanced, or sticky error).
    done: Condvar,
    /// Makes the writer panic at its next batch, with the commit lock
    /// held (so the lock is poisoned too).
    #[cfg(test)]
    panic_writer: std::sync::atomic::AtomicBool,
}

/// A deferred append: the record's frame is on disk (it survives
/// `kill -9`), but its covering fsync may still be pending. Anything whose
/// release depends on this record being power-loss durable — a noisy
/// result covered by a budget charge, above all — must block on [`wait`]
/// first.
///
/// [`wait`]: PendingCommit::wait
#[derive(Debug)]
#[must_use = "a deferred append is durable only after `wait` returns"]
pub struct PendingCommit {
    /// The commit queue this record waits on; `None` for a release record,
    /// which never waits for an fsync.
    group: Option<Arc<GroupCommit>>,
    seq: u64,
}

impl PendingCommit {
    /// Blocks until the fsync (or durable snapshot) covering this record
    /// has completed, then returns its sequence number. Immediate for a
    /// release record, which never pays an fsync.
    pub fn wait(self) -> Result<u64, StoreError> {
        let Some(group) = self.group else {
            return Ok(self.seq);
        };
        let mut state = group.commit.lock().unwrap_or_else(PoisonError::into_inner);
        while state.synced < self.seq && state.error.is_none() {
            state = group.done.wait(state).unwrap_or_else(|p| p.into_inner());
        }
        if state.synced >= self.seq {
            return Ok(self.seq);
        }
        Err(StoreError::Io(state.error.clone().unwrap_or_else(|| {
            "group-commit writer unavailable".to_string()
        })))
    }
}

/// A durable store: append-only journal + periodic snapshots + the live
/// compacted state mirror.
#[derive(Debug)]
pub struct Store {
    inner: Mutex<Inner>,
    config: StoreConfig,
    observer: Arc<OnceLock<StoreObserver>>,
    group: Arc<GroupCommit>,
    /// The group-commit writer thread; `Drop` takes it to join it.
    writer: Option<std::thread::JoinHandle<()>>,
    /// Size in bytes of the newest snapshot file (0 before the first).
    snapshot_bytes: AtomicU64,
}

#[derive(Debug)]
struct Inner {
    journal: Journal,
    state: StoreState,
    appends_since_snapshot: usize,
}

impl Store {
    /// Opens the journal (and newest valid snapshot, when a snapshot
    /// directory is configured), replays everything into a [`StoreState`],
    /// and returns the store positioned to append after the last committed
    /// record. The group-commit writer thread is spawned here and joined
    /// on drop.
    pub fn open(config: StoreConfig) -> Result<(Store, RecoveryReport), StoreError> {
        let (snapshot, snapshot_bytes) = match &config.snapshot_dir {
            Some(dir) => match load_latest(dir)? {
                Some((snapshot, bytes)) => (Some(snapshot), bytes),
                None => (None, 0),
            },
            None => (None, 0),
        };
        let (journal, scan) = Journal::open(&config.journal_path)?;
        let commit_file = journal.try_clone_file()?;
        let state = StoreState::recover(
            snapshot.as_ref(),
            scan.records,
            config.max_retained_releases,
        );
        let recovered = state.seq() > 0;
        let report = RecoveryReport {
            state: state.clone(),
            recovered,
            torn_tail: scan.torn_tail,
        };
        let observer: Arc<OnceLock<StoreObserver>> = Arc::new(OnceLock::new());
        let group = Arc::new(GroupCommit {
            commit: Mutex::new(CommitState {
                appended: state.seq(),
                synced: state.seq(),
                fsyncs: 0,
                error: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            #[cfg(test)]
            panic_writer: Default::default(),
        });
        let thread_group = Arc::clone(&group);
        let thread_observer = Arc::clone(&observer);
        let gc_config = config.group_commit.unwrap_or_default();
        let writer = std::thread::Builder::new()
            .name("privcluster-group-commit".to_string())
            .spawn(move || {
                group_commit_writer(thread_group, commit_file, gc_config, thread_observer)
            })
            .map_err(|e| StoreError::Io(format!("cannot spawn group-commit writer: {e}")))?;
        Ok((
            Store {
                inner: Mutex::new(Inner {
                    journal,
                    state,
                    appends_since_snapshot: 0,
                }),
                config,
                observer,
                group,
                writer: Some(writer),
                snapshot_bytes: AtomicU64::new(snapshot_bytes),
            },
            report,
        ))
    }

    /// Appends one record and blocks until it is commit-durable. Returns
    /// the assigned sequence number. Equivalent to
    /// `append_deferred(record)?.wait()` — the group-commit batching still
    /// applies, this caller simply has nothing useful to do between the
    /// append and its fsync.
    ///
    /// Release records never pay their own fsync: their loss is benign (a
    /// free replay, never budget), the unbuffered write already survives
    /// `kill -9`, and power-loss durability arrives with the next charge's
    /// batch fsync — so the hot path stays at one fsync per admitted
    /// query, shared with every concurrent one.
    pub fn append(&self, record: StoreRecord) -> Result<u64, StoreError> {
        self.append_deferred(record)?.wait()
    }

    /// Appends one record (the store assigns its sequence number) and
    /// returns a [`PendingCommit`] instead of blocking on the fsync.
    ///
    /// The frame is written to the descriptor under the store lock —
    /// journal order always matches the order in which concurrent callers
    /// got here (for charges: admission order under the accountant lock) —
    /// but the fsync happens on the writer thread, shared by every record
    /// in the batch. The caller **must** call [`PendingCommit::wait`]
    /// before releasing any result that depends on this record being
    /// durable; that is the whole write-ahead invariant. Automatic
    /// snapshots fire from here and, being durable, release waiters of
    /// every record they cover.
    pub fn append_deferred(&self, record: StoreRecord) -> Result<PendingCommit, StoreError> {
        // privlint::allow(lock-unwrap): a panic between the frame write and
        // `state.apply` leaves a journaled seq the state never counted. A
        // recovered guard would give that seq to the next record, and replay
        // would drop that record as a duplicate, refunding it if it is a
        // charge, so a poisoned store stays dead.
        let mut inner = self.inner.lock().expect("store lock poisoned");
        let seq = inner.state.seq() + 1;
        let record = record.with_seq(seq);
        Self::append_locked(&mut inner, &record)?;
        // Release records skip the commit queue: nothing waits on them
        // (replaying a lost release just charges afresh, which is safe in
        // the never-refund direction), and their bytes reach the file
        // under the store lock, so the next covering batch fsync or
        // snapshot makes them durable for free.
        let group = (!matches!(record, StoreRecord::Release(_))).then(|| Arc::clone(&self.group));
        inner.state.apply(record);
        inner.appends_since_snapshot += 1;
        if self.config.snapshot_every > 0
            && inner.appends_since_snapshot >= self.config.snapshot_every
        {
            if let Err(e) = self.snapshot_locked(&mut inner) {
                // A failed snapshot does not lose state — the journal has
                // everything — so it degrades to a visible warning rather
                // than failing the append that triggered it.
                eprintln!("privcluster-store: snapshot failed: {e}");
                if let Some(observer) = self.observer.get() {
                    event!(
                        observer.events,
                        Severity::Warn,
                        "store.snapshot_failed",
                        journal_seq = seq,
                        reason = e.to_string(),
                    );
                }
            }
        }
        drop(inner);
        if let Some(g) = &group {
            // Publish the new high-water mark *after* releasing the store
            // lock, so the writer's fsync never contends with appenders.
            // Sound despite the out-of-order updates this allows: every
            // frame with a smaller sequence number was written under the
            // store lock before this one, so any fsync that covers `seq`
            // covers them too.
            let mut state = g.commit.lock().unwrap_or_else(PoisonError::into_inner);
            if seq > state.appended {
                state.appended = seq;
            }
            g.work.notify_one();
        }
        Ok(PendingCommit { group, seq })
    }

    /// The journal write itself, factored out so it never appears as a
    /// lock-acquiring call in the dataflow of `append`-named functions.
    fn append_locked(inner: &mut Inner, record: &StoreRecord) -> Result<(), StoreError> {
        inner.journal.append(record)
    }

    /// Attaches telemetry hooks. The first observer wins; later calls are
    /// ignored (the engine attaches exactly one at open time).
    pub fn set_observer(&self, observer: StoreObserver) {
        let _ = self.observer.set(observer);
    }

    /// Writes a snapshot of the current state immediately. Returns the
    /// snapshot path, or `None` when no snapshot directory is configured.
    pub fn snapshot_now(&self) -> Result<Option<PathBuf>, StoreError> {
        // privlint::allow(lock-unwrap): a poisoned state may lag its journal
        // (see `append_deferred`); snapshotting it would checkpoint away the
        // record it never counted.
        let mut inner = self.inner.lock().expect("store lock poisoned");
        self.snapshot_locked(&mut inner)
    }

    /// Writes a snapshot, checkpoints the journal against it, then prunes
    /// the snapshot directory down to the newest
    /// [`RETAINED_SNAPSHOTS`](crate::snapshot::RETAINED_SNAPSHOTS) files.
    fn snapshot_locked(&self, inner: &mut Inner) -> Result<Option<PathBuf>, StoreError> {
        let Some(dir) = &self.config.snapshot_dir else {
            return Ok(None);
        };
        let observer = self.observer.get();
        let clock = observer.map(|_| Stopwatch::start());
        let (path, bytes) = write_snapshot(dir, &inner.state.to_snapshot())?;
        // The snapshot is durable (fsync + atomic rename): checkpoint the
        // journal so recovery replays a bounded tail instead of the whole
        // history. A crash in between is safe — replay is sequence-gated.
        inner.journal.reset()?;
        inner.appends_since_snapshot = 0;
        self.snapshot_bytes.store(bytes, Ordering::Relaxed);
        {
            // The durable snapshot covers every record up to the current
            // sequence number — including any still queued for a group
            // fsync, whose journal bytes the reset just truncated. The
            // snapshot owns them now; release their waiters.
            let mut state = self
                .group
                .commit
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let seq = inner.state.seq();
            if seq > state.synced {
                state.synced = seq;
            }
            self.group.done.notify_all();
        }
        if let (Some(observer), Some(clock)) = (observer, clock) {
            event!(
                observer.events,
                Severity::Info,
                "store.snapshot",
                journal_seq = inner.state.seq(),
                elapsed_seconds = clock.elapsed_seconds(),
            );
        }
        // Older snapshots are never read again once this one is durable. A
        // file that cannot be deleted costs disk space, not state, so the
        // failure is a warning, not an error of the append that got here.
        if let Err(e) = prune_snapshots(dir) {
            eprintln!("privcluster-store: snapshot pruning failed: {e}");
            if let Some(observer) = observer {
                event!(
                    observer.events,
                    Severity::Warn,
                    "store.snapshot_prune_failed",
                    journal_seq = inner.state.seq(),
                    reason = e.to_string(),
                );
            }
        }
        Ok(Some(path))
    }

    /// Highest committed sequence number.
    pub fn last_seq(&self) -> u64 {
        // privlint::allow(lock-unwrap): a poisoned state may lag its journal
        // (see `append_deferred`), so its seq is not the committed one.
        self.inner.lock().expect("store lock poisoned").state.seq()
    }

    /// Records appended but not yet covered by a batch fsync.
    pub fn commit_queue_depth(&self) -> u64 {
        let state = self
            .group
            .commit
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        state.appended.saturating_sub(state.synced)
    }

    /// Whether commits can still become durable: `false` once the
    /// group-commit writer thread has exited (after a failed fsync, or a
    /// panic).
    pub fn writer_alive(&self) -> bool {
        self.writer
            .as_ref()
            .is_some_and(|writer| !writer.is_finished())
    }

    /// Whether the sticky commit error is set: a batch fsync failed or the
    /// writer died, so every later commit fails.
    pub fn commit_error(&self) -> bool {
        self.group
            .commit
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .error
            .is_some()
    }

    /// Size in bytes of the newest snapshot file — the one written last,
    /// or the one recovered at open (0 when there is none).
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes.load(Ordering::Relaxed)
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        self.group
            .commit
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .shutdown = true;
        self.group.work.notify_one();
        if let Some(writer) = self.writer.take() {
            // The writer drains (one final fsync over anything still
            // queued) before exiting, so a clean drop loses nothing.
            let _ = writer.join();
        }
    }
}

/// The group-commit writer loop: wait for work, optionally dwell for a
/// fuller batch, issue **one** `sync_data` covering everything appended so
/// far, release the covered waiters, repeat. Runs on its own thread with a
/// duplicated file handle, so the sync never holds the store lock and
/// appends proceed while a batch is flushing.
fn group_commit_writer(
    group: Arc<GroupCommit>,
    file: File,
    config: GroupCommitConfig,
    observer: Arc<OnceLock<StoreObserver>>,
) {
    /// Fails every waiter if the writer unwinds: without it a panic here
    /// would leave each `PendingCommit::wait` blocked forever on a `done`
    /// that nobody signals.
    struct DeathNotice<'a>(&'a GroupCommit);
    impl Drop for DeathNotice<'_> {
        fn drop(&mut self) {
            if std::thread::panicking() {
                let mut state = self.0.commit.lock().unwrap_or_else(PoisonError::into_inner);
                state
                    .error
                    .get_or_insert_with(|| "group-commit writer panicked".to_string());
                self.0.done.notify_all();
            }
        }
    }
    let _notice = DeathNotice(&group);
    loop {
        let (from, target) = {
            let mut state = group.commit.lock().unwrap_or_else(PoisonError::into_inner);
            while !state.shutdown && state.error.is_none() && state.appended <= state.synced {
                state = group.work.wait(state).unwrap_or_else(|p| p.into_inner());
            }
            if state.error.is_some() || (state.shutdown && state.appended <= state.synced) {
                group.done.notify_all();
                return;
            }
            if config.max_wait_us > 0 {
                // Dwell for a fuller batch: later enqueuers cut the dwell
                // short once `max_batch` records are waiting, and shutdown
                // or a snapshot-driven `synced` advance ends it early.
                let max_wait = config.max_wait_us as f64 / 1e6;
                let clock = Stopwatch::start();
                let full = config.max_batch.max(1) as u64;
                while !state.shutdown
                    && state.error.is_none()
                    && state.appended.saturating_sub(state.synced) < full
                {
                    let remaining = max_wait - clock.elapsed_seconds();
                    if remaining <= 0.0 {
                        break;
                    }
                    let (next, _) = group
                        .work
                        .wait_timeout(state, Duration::from_secs_f64(remaining))
                        .unwrap_or_else(|p| p.into_inner());
                    state = next;
                }
            }
            #[cfg(test)]
            if group.panic_writer.load(Ordering::SeqCst) {
                panic!("injected group-commit writer panic");
            }
            (state.synced, state.appended)
        };
        if target <= from {
            continue;
        }
        // Opportunistic coalescing: appenders that lost the CPU between
        // writing their frame and this snapshot get a scheduling slot to
        // join the batch. Unlike the dwell above this never waits on a
        // timer — it re-reads the queue after a bare yield (microseconds
        // against a ~100µs+ sync) and stops the moment the queue stops
        // growing or the batch is full, so an idle queue pays nothing.
        let mut target = target;
        let full = from + config.max_batch.max(1) as u64;
        let mut idle_yields = 0;
        while target < full && idle_yields < 2 {
            std::thread::yield_now();
            let state = group.commit.lock().unwrap_or_else(PoisonError::into_inner);
            if state.shutdown || state.error.is_some() {
                break;
            }
            if state.appended <= target {
                idle_yields += 1;
            } else {
                idle_yields = 0;
                target = state.appended.min(full);
            }
        }
        // One sync covers every record up to `target`: each frame reached
        // the shared file description (under the store lock) before its
        // sequence number was published to `appended`, so by the time
        // `target` was read above, all of its bytes had been written.
        let clock = Stopwatch::start();
        let result = file.sync_data();
        let elapsed = clock.elapsed_seconds();
        let drained = {
            let mut state = group.commit.lock().unwrap_or_else(PoisonError::into_inner);
            match result {
                Ok(()) => {
                    if target > state.synced {
                        if let Some(observer) = observer.get() {
                            observer.fsync_seconds.observe(elapsed);
                            observer
                                .group_commit_batch
                                .observe((target - state.synced) as f64);
                        }
                        state.synced = target;
                        state.fsyncs += 1;
                    }
                }
                Err(e) => {
                    state.error = Some(format!("group-commit fsync failed: {e}"));
                }
            }
            group.done.notify_all();
            state.error.is_some() || (state.shutdown && state.appended <= state.synced)
        };
        if drained {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::test_support::{charge, register, release};

    fn config(tag: &str, snapshot_every: usize) -> StoreConfig {
        let root = crate::test_dir::scratch_path(&format!("store-{tag}"));
        std::fs::remove_dir_all(&root).ok();
        std::fs::create_dir_all(&root).unwrap();
        StoreConfig {
            journal_path: root.join("journal.pcsj"),
            snapshot_dir: Some(root.join("snapshots")),
            snapshot_every,
            max_retained_releases: 16,
            group_commit: None,
        }
    }

    impl Store {
        /// Completed batch fsyncs.
        fn group_commit_fsyncs(&self) -> u64 {
            self.group
                .commit
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .fsyncs
        }
    }

    #[test]
    fn append_assigns_sequence_numbers_and_recovers() {
        let config = config("seq", 0);
        {
            let (store, report) = Store::open(config.clone()).unwrap();
            assert!(!report.recovered);
            assert_eq!(store.append(register(0, "a")).unwrap(), 1);
            assert_eq!(store.append(charge(0, "a", "q1", 0.5)).unwrap(), 2);
            assert_eq!(store.append(release(0, "a", "q1")).unwrap(), 3);
        }
        let (store, report) = Store::open(config.clone()).unwrap();
        assert!(report.recovered);
        assert!(report.torn_tail.is_none());
        assert_eq!(report.state.seq(), 3);
        assert_eq!(report.state.registers().len(), 1);
        assert_eq!(report.state.totals()["a"].count(), 1);
        assert_eq!(report.state.releases().len(), 1);
        assert_eq!(store.last_seq(), 3);
        std::fs::remove_dir_all(config.journal_path.parent().unwrap()).ok();
    }

    #[test]
    fn automatic_snapshots_checkpoint_the_journal() {
        let config = config("auto-snap", 2);
        let reference = {
            let (store, _) = Store::open(config.clone()).unwrap();
            store.append(register(0, "a")).unwrap();
            store.append(charge(0, "a", "q1", 0.25)).unwrap(); // snapshot at 2
            store.append(release(0, "a", "q1")).unwrap();
            store.append(charge(0, "a", "q2", 0.25)).unwrap(); // snapshot at 4
            let state = store.inner.lock().unwrap().state.clone();
            state
        };
        let snaps: Vec<_> = std::fs::read_dir(config.snapshot_dir.as_ref().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .collect();
        assert_eq!(snaps.len(), 2, "snapshot_every=2 over 4 appends");
        // Each snapshot checkpointed the journal: only the un-snapshotted
        // tail remains (here: nothing — the last append snapshotted).
        let journal_len = std::fs::metadata(&config.journal_path).unwrap().len();
        assert_eq!(
            journal_len,
            crate::format::JOURNAL_MAGIC.len() as u64,
            "journal must be truncated to its header after a covering snapshot"
        );
        // Recovery through snapshot + (empty) tail equals the pre-restart
        // state exactly, and appends keep numbering from where it left off.
        let (store, report) = Store::open(config.clone()).unwrap();
        assert!(report.recovered);
        assert!(report.state.same_state(&reference));
        assert_eq!(store.append(charge(0, "a", "q3", 0.25)).unwrap(), 5);
        std::fs::remove_dir_all(config.journal_path.parent().unwrap()).ok();
    }

    /// `holds_state` reads a missing journal and one a store opened and
    /// left at its magic as empty; a record, a torn tail or a snapshot
    /// behind a checkpointed journal as state. It writes nothing.
    #[test]
    fn holds_state_sees_records_tails_and_snapshots() {
        let config = config("holds-state", 2);
        assert!(!config.holds_state().unwrap());
        assert!(!config.journal_path.exists());
        drop(Store::open(config.clone()).unwrap());
        assert!(!config.holds_state().unwrap());
        {
            let (store, _) = Store::open(config.clone()).unwrap();
            store.append(register(0, "a")).unwrap();
            assert!(config.holds_state().unwrap());
            store.append(charge(0, "a", "q1", 0.25)).unwrap(); // snapshot at 2
        }
        let len = || std::fs::metadata(&config.journal_path).unwrap().len();
        let magic = crate::format::JOURNAL_MAGIC.len() as u64;
        assert_eq!(len(), magic);
        assert!(config.holds_state().unwrap());
        let mut journal_only = config.clone();
        journal_only.snapshot_dir = None;
        assert!(!journal_only.holds_state().unwrap());
        // One byte past the magic: a torn record is still state to refuse.
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&config.journal_path)
            .unwrap();
        std::io::Write::write_all(&mut file, &[0]).unwrap();
        assert!(journal_only.holds_state().unwrap());
        assert_eq!(len(), magic + 1);
        std::fs::remove_dir_all(config.journal_path.parent().unwrap()).ok();
    }

    #[test]
    fn group_commit_shares_one_fsync_across_concurrent_appends() {
        let mut config = config("group", 0);
        config.snapshot_dir = None;
        config.group_commit = Some(GroupCommitConfig {
            max_batch: 4,
            max_wait_us: 1_000_000,
        });
        {
            let store = Arc::new(Store::open(config.clone()).unwrap().0);
            // The register rides its own batch (nothing else is queued).
            assert_eq!(store.append(register(0, "a")).unwrap(), 1);
            assert_eq!(store.group_commit_fsyncs(), 1);
            // Four concurrent charges: all enqueue within the writer's
            // dwell, `max_batch` cuts it short, one fsync covers them all.
            let workers: Vec<_> = (0..4)
                .map(|i| {
                    let store = Arc::clone(&store);
                    std::thread::spawn(move || {
                        store
                            .append_deferred(charge(0, "a", &format!("q{i}"), 0.1))
                            .unwrap()
                            .wait()
                            .unwrap()
                    })
                })
                .collect();
            let mut seqs: Vec<u64> = workers.into_iter().map(|w| w.join().unwrap()).collect();
            seqs.sort_unstable();
            assert_eq!(seqs, vec![2, 3, 4, 5]);
            assert_eq!(
                store.group_commit_fsyncs(),
                2,
                "four concurrent charges must share one batch fsync"
            );
            assert_eq!(store.commit_queue_depth(), 0);
        }
        // Everything the waiters saw acknowledged is recovered.
        let (_, report) = Store::open(config.clone()).unwrap();
        assert_eq!(report.state.seq(), 5);
        assert_eq!(report.state.totals()["a"].count(), 4);
        std::fs::remove_dir_all(config.journal_path.parent().unwrap()).ok();
    }

    #[test]
    fn snapshot_releases_group_commit_waiters_without_an_fsync() {
        // Snapshot after every append, and a dwell long enough that a
        // waiter released by an fsync (rather than the snapshot) would
        // hang the test: the durable snapshot must stand in for the batch
        // fsync it made redundant.
        let mut config = config("group-snap", 1);
        config.group_commit = Some(GroupCommitConfig {
            max_batch: 1024,
            max_wait_us: 30_000_000,
        });
        {
            let (store, _) = Store::open(config.clone()).unwrap();
            assert_eq!(store.append(register(0, "a")).unwrap(), 1);
            assert_eq!(store.append(charge(0, "a", "q1", 0.5)).unwrap(), 2);
            assert_eq!(
                store.group_commit_fsyncs(),
                0,
                "snapshots covered every append"
            );
            assert_eq!(store.commit_queue_depth(), 0);
        }
        let (_, report) = Store::open(config.clone()).unwrap();
        assert_eq!(report.state.seq(), 2);
        assert_eq!(report.state.totals()["a"].count(), 1);
        std::fs::remove_dir_all(config.journal_path.parent().unwrap()).ok();
    }

    #[test]
    fn release_records_skip_the_commit_queue() {
        // Every *queued* record costs one visible fsync under max_batch 1,
        // and under the default writer (`journal_only`, `group_commit:
        // None`) when each append waits for its own before the next, so
        // the fsync counter detects a release sneaking into the queue.
        let mut batch_of_one = config("group-release", 0);
        batch_of_one.snapshot_dir = None;
        batch_of_one.group_commit = Some(GroupCommitConfig {
            max_batch: 1,
            max_wait_us: 0,
        });
        let default_writer =
            StoreConfig::journal_only(config("group-release-default", 0).journal_path);
        for config in [batch_of_one, default_writer] {
            let (store, _) = Store::open(config.clone()).unwrap();
            store.append(register(0, "a")).unwrap();
            store.append(charge(0, "a", "q1", 0.5)).unwrap();
            assert_eq!(store.group_commit_fsyncs(), 2);
            // A release never pays (or waits for) an fsync: it bypasses the
            // queue entirely and its wait resolves immediately.
            let pending = store.append_deferred(release(0, "a", "q1")).unwrap();
            assert_eq!(pending.wait().unwrap(), 3);
            assert_eq!(store.commit_queue_depth(), 0);
            assert_eq!(
                store.group_commit_fsyncs(),
                2,
                "a release must not buy an fsync"
            );
            drop(store);
            std::fs::remove_dir_all(config.journal_path.parent().unwrap()).ok();
        }
    }

    #[test]
    fn only_the_newest_two_snapshots_are_kept() {
        let config = config("retention", 0);
        let reference = {
            let (store, _) = Store::open(config.clone()).unwrap();
            store.append(register(0, "a")).unwrap();
            let mut newest = None;
            for i in 0..5 {
                store
                    .append(charge(0, "a", &format!("q{i}"), 0.125))
                    .unwrap();
                newest = store.snapshot_now().unwrap();
            }
            let newest = newest.expect("the snapshot directory is set");
            assert_eq!(
                store.snapshot_bytes(),
                std::fs::metadata(&newest).unwrap().len()
            );
            let state = store.inner.lock().unwrap().state.clone();
            state
        };
        let dir = config.snapshot_dir.clone().unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "snap-00000000000000000005.pcss",
                "snap-00000000000000000006.pcss",
            ]
        );
        // Recovery reads the newest: all five charges stand.
        let (store, report) = Store::open(config.clone()).unwrap();
        assert!(report.state.same_state(&reference));
        assert_eq!(report.state.totals()["a"].count(), 5);
        assert_eq!(
            store.snapshot_bytes(),
            std::fs::metadata(dir.join("snap-00000000000000000006.pcss"))
                .unwrap()
                .len()
        );
        std::fs::remove_dir_all(config.journal_path.parent().unwrap()).ok();
    }

    #[test]
    fn a_dead_writer_fails_its_waiters_instead_of_hanging_them() {
        let mut config = config("writer-panic", 0);
        config.snapshot_dir = None;
        let (store, _) = Store::open(config.clone()).unwrap();
        assert!(store.writer_alive());
        assert!(!store.commit_error());
        store.group.panic_writer.store(true, Ordering::SeqCst);
        let pending = store.append_deferred(charge(0, "a", "q1", 0.5)).unwrap();
        let (sender, receiver) = std::sync::mpsc::channel();
        std::thread::spawn(move || sender.send(pending.wait()));
        let outcome = receiver
            .recv_timeout(Duration::from_secs(5))
            .expect("a waiter on a dead writer must not hang");
        assert!(
            outcome.is_err(),
            "an unsynced charge must not be acknowledged"
        );
        assert!(store.commit_error());
        // Every later commit fails too, and the health accessors see it.
        assert!(store.append(charge(0, "a", "q2", 0.5)).is_err());
        for _ in 0..500 {
            if !store.writer_alive() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(!store.writer_alive());
        drop(store);
        std::fs::remove_dir_all(config.journal_path.parent().unwrap()).ok();
    }
}
