//! The engine: registration, admission (budget + cache), and execution.
//!
//! Admission is strictly ordered and execution is embarrassingly parallel:
//!
//! 1. **Admission** (sequential, in submission order): look the request up
//!    in the result cache — a hit is post-processing and charges nothing —
//!    otherwise validate it with the planner and charge the dataset's
//!    [`BudgetAccountant`]. A refused request never reaches the data.
//! 2. **Execution** (parallel): admitted plans run on the worker pool, each
//!    with its own seed-derived RNG stream, so the results of a batch are
//!    bit-identical whether run on 1 thread or 8.
//!
//! Failures *after* admission are not refunded: whether an algorithm fails
//! can itself depend on the data, so the spend must stand (the same policy a
//! GUPT-style deployment uses).
//!
//! [`BudgetAccountant`]: crate::accountant::BudgetAccountant

use crate::cache::ResultCache;
use crate::error::EngineError;
use crate::fingerprint::{
    registration_fingerprint, versioned_query_fingerprint, versioned_registration_fingerprint,
};
use crate::planner::{plan, Plan};
use crate::pool::run_on_pool;
use crate::query::{QueryRequest, QueryValue};
use crate::registry::{BackendChoice, DatasetEntry, DatasetRegistry};
use crate::telemetry::Telemetry;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::{LedgerTotals, PrivacyParams};
use privcluster_geometry::grid_profile::MAX_EXACT_POINTS;
use privcluster_geometry::sync::lock_recover;
use privcluster_geometry::{BackendKind, Dataset, GridDomain};
use privcluster_obs::{event, EventStream, MetricsSnapshot, Severity, Stopwatch};
use privcluster_store::{
    ChargeRecord, DomainSpec, RegisterRecord, ReleaseRecord, ReregisterRecord, Store, StoreConfig,
    StoreObserver, StoreRecord,
};
use serde::Serialize as _;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Engine tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Worker threads used by [`Engine::run_batch`].
    pub threads: usize,
    /// Capacity of the released-result cache (0 disables caching).
    pub cache_capacity: usize,
    /// Largest dataset (in points) that [`BackendChoice::Auto`] still
    /// serves with the exact `O(n²)` geometry backend; anything bigger gets
    /// the sub-quadratic projected backend. The default, 4096 points, caps
    /// an exact grid-profile build at about 100 MB (12 bytes per kept pair,
    /// at most `n(n+1)/2` pairs); at 65,536 points a build could hold
    /// 26 GB, which is the scaling cliff the projected backend removes. An
    /// exact backend takes at most 65,536 points whatever this says: a
    /// registration that resolves to one above that is refused.
    pub exact_backend_max_points: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            threads: std::thread::available_parallelism()
                .map(|n| n.get().min(4))
                .unwrap_or(1),
            cache_capacity: 256,
            exact_backend_max_points: 4096,
        }
    }
}

/// Public, non-sensitive description of a registered dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetStatus {
    /// Registered name.
    pub name: String,
    /// Position in the name's version chain (1 = original registration;
    /// each re-registration appends the next version).
    pub version: u64,
    /// Number of points (public: declared at registration).
    pub points: usize,
    /// Ambient dimension.
    pub dim: usize,
    /// Declared total budget.
    pub budget: PrivacyParams,
    /// Selected composition theorem.
    pub mode: CompositionMode,
    /// Which geometry backend serves this dataset's queries.
    pub backend: BackendKind,
    /// Queries granted so far.
    pub granted: usize,
    /// Queries refused so far.
    pub refused: usize,
    /// Composed spend under the selected theorem (`None` before any grant).
    pub spent: Option<PrivacyParams>,
    /// The chain's composed spend at the moment this version was created
    /// (`None` for version 1, or when nothing had been granted yet). The
    /// live `spent` keeps growing in the shared ledger; this pins what the
    /// version started from.
    pub inherited_spend: Option<PrivacyParams>,
    /// ε still unspent.
    pub remaining_epsilon: f64,
    /// δ still unspent (the other coordinate of the remaining budget, so
    /// operators can audit the full `(ε, δ)` headroom after a restart).
    pub remaining_delta: f64,
}

/// The engine's durability posture, reported through `status` so operators
/// can audit spend persistence after a restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityStatus {
    /// Whether a journal backs this engine (false = explicit in-memory
    /// mode: all budget state dies with the process).
    pub journaled: bool,
    /// Highest committed journal sequence number (0 when in-memory or
    /// before the first commit).
    pub journal_seq: u64,
    /// Whether this engine recovered prior committed state at open.
    pub recovered: bool,
}

/// The durability layer's health, exported as the `store_*` gauges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityHealth {
    /// Whether commits can still become durable: the store's group-commit
    /// writer thread is running, or the engine is in-memory and needs
    /// none.
    pub writer_alive: bool,
    /// Whether the store's sticky commit error is set (a batch fsync
    /// failed or the writer died, so every later charge fails).
    pub commit_error: bool,
    /// Size in bytes of the newest snapshot file (0 when there is none).
    pub snapshot_bytes: u64,
}

/// The response to a granted (or cache-served) query.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResponse {
    /// The released result.
    pub value: QueryValue,
    /// Whether the result came from the cache (in which case nothing was
    /// charged: replaying a released result is post-processing).
    pub cached: bool,
    /// What this query charged the ledger (`None` on cache hits).
    pub charged: Option<PrivacyParams>,
    /// ε still unspent on the dataset after this query.
    pub remaining_epsilon: f64,
}

/// A long-lived, concurrent clustering query engine with per-dataset
/// privacy-budget enforcement.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    registry: DatasetRegistry,
    cache: Mutex<ResultCache>,
    /// Cache keys of queries currently admitted but not yet finished.
    /// Concurrent identical requests coalesce on this set instead of each
    /// charging the budget for the same released value (the cache alone
    /// cannot prevent that: it is only filled after execution).
    pending: Mutex<std::collections::HashSet<String>>,
    pending_done: std::sync::Condvar,
    /// The write-ahead store (`None` = explicit in-memory mode). When
    /// present, registrations and admitted charges are journaled — and
    /// fsynced — *before* any result is released.
    store: Option<Store>,
    /// Whether this engine recovered committed state at open.
    recovered: bool,
    /// Serializes registration's check → journal → insert window so the
    /// journal's registration order always matches the registry's
    /// first-wins outcome (queries are untouched: they only take the
    /// per-dataset accountant lock).
    registration_serial: Mutex<()>,
    /// Always-on telemetry. Hot-path series are pre-resolved atomics, so
    /// instrumentation can never add a lock to admission — and because it
    /// is unconditional, there is no "metrics mode" whose behaviour could
    /// diverge from the un-instrumented one.
    telemetry: Telemetry,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(EngineConfig::default())
    }
}

impl Engine {
    /// Creates an engine in explicit **in-memory** mode: no journal, all
    /// budget state dies with the process. Use [`Engine::open`] for the
    /// durable mode a deployment should run in.
    pub fn new(config: EngineConfig) -> Self {
        Engine {
            cache: Mutex::new(ResultCache::new(config.cache_capacity)),
            registry: DatasetRegistry::new(),
            config,
            pending: Mutex::new(std::collections::HashSet::new()),
            pending_done: std::sync::Condvar::new(),
            store: None,
            recovered: false,
            registration_serial: Mutex::new(()),
            telemetry: Telemetry::new(),
        }
    }

    /// Opens an engine backed by a durable [`Store`]: loads the newest
    /// valid snapshot and the journal tail, replays them into a
    /// bit-identical registry / accountant / replay-cache state, and wires
    /// every later registration and admission through the write-ahead
    /// journal.
    ///
    /// Replay applies **every** committed charge unconditionally — a charge
    /// with no matching release (the crash window between journal commit
    /// and result release) keeps its budget spent, never refunded — and
    /// repopulates the zero-charge replay cache from the retained releases.
    /// The store's release-retention bound is aligned to the engine's cache
    /// capacity here, so a snapshot never carries replays the cache would
    /// immediately evict.
    pub fn open(config: EngineConfig, mut store_config: StoreConfig) -> Result<Self, EngineError> {
        store_config.max_retained_releases = config.cache_capacity;
        let (store, report) = Store::open(store_config)?;
        let mut engine = Engine::new(config);
        engine.recovered = report.recovered;
        if let Some(reason) = &report.torn_tail {
            // A torn tail is a crash signature, not an error: the record was
            // never acknowledged, so its result was never released. Committed
            // records before it are all replayed.
            eprintln!("privcluster-engine: journal had a torn tail (truncated): {reason}");
            event!(
                engine.telemetry.events(),
                Severity::Warn,
                "engine.journal_torn_tail",
                reason = reason.as_str(),
            );
        }

        // Replay registrations and re-registrations **merged in journal
        // order**, then install each dataset's charge totals. A
        // re-registration's inherited spend is the chain's composed spend
        // at that point in the journal: the store kept the dataset's totals
        // over the charges before it, and installing those before the
        // successor entry is built makes the recovered `inherited_spend`
        // bit-identical to what the live engine captured under the
        // accountant lock.
        enum Step<'a> {
            Register(&'a RegisterRecord),
            Reregister(&'a ReregisterRecord, LedgerTotals),
        }
        let mut steps: Vec<(u64, Step)> = Vec::new();
        for reg in report.state.registers() {
            steps.push((reg.seq, Step::Register(reg)));
        }
        for (rereg, inherited) in report.state.reregisters() {
            steps.push((rereg.seq, Step::Reregister(rereg, *inherited)));
        }
        steps.sort_by_key(|(seq, _)| *seq);
        for (_, step) in steps {
            match step {
                Step::Register(reg) => {
                    let kind = replayed_backend_kind(&reg.dataset, &reg.backend)?;
                    let domain = replayed_domain(&reg.dataset, &reg.domain)?;
                    let dataset = replayed_rows(&reg.dataset, &reg.rows)?;
                    let rebuilt = registration_fingerprint(
                        &reg.dataset,
                        &dataset,
                        &domain,
                        reg.budget,
                        reg.mode,
                        kind,
                    );
                    if rebuilt != reg.fingerprint {
                        return Err(EngineError::Durability(format!(
                            "registration fingerprint mismatch for `{}`: journal says {}, rebuilt {}",
                            reg.dataset, reg.fingerprint, rebuilt
                        )));
                    }
                    let entry = DatasetEntry::new(
                        &reg.dataset,
                        dataset,
                        domain,
                        reg.budget,
                        reg.mode,
                        kind,
                    )
                    .map_err(|e| EngineError::Durability(e.to_string()))?;
                    engine
                        .registry
                        .register(entry)
                        .map_err(|e| EngineError::Durability(e.to_string()))?;
                }
                Step::Reregister(rereg, inherited_totals) => {
                    let kind = replayed_backend_kind(&rereg.dataset, &rereg.backend)?;
                    let domain = replayed_domain(&rereg.dataset, &rereg.domain)?;
                    let dataset = replayed_rows(&rereg.dataset, &rereg.rows)?;
                    let current = engine.registry.get(&rereg.dataset).map_err(|_| {
                        EngineError::Durability(format!(
                            "journaled re-registration v{} references unregistered dataset `{}`",
                            rereg.version, rereg.dataset
                        ))
                    })?;
                    // The budget and mode are inherited, never journaled on
                    // the re-registration record: read them — and the spend
                    // accumulated so far — from the chain's accountant.
                    let (inherited, budget, mode) = {
                        let mut accountant = current.accountant();
                        accountant.restore_totals(inherited_totals);
                        (
                            accountant.composed_spend(),
                            accountant.budget(),
                            accountant.mode(),
                        )
                    };
                    let rebuilt = versioned_registration_fingerprint(
                        &rereg.dataset,
                        &dataset,
                        &domain,
                        budget,
                        mode,
                        kind,
                        rereg.version,
                    );
                    if rebuilt != rereg.fingerprint {
                        return Err(EngineError::Durability(format!(
                            "re-registration fingerprint mismatch for `{}` v{}: journal says {}, rebuilt {}",
                            rereg.dataset, rereg.version, rereg.fingerprint, rebuilt
                        )));
                    }
                    let entry = current
                        .make_successor(dataset, domain, kind, inherited)
                        .map_err(|e| EngineError::Durability(e.to_string()))?;
                    if entry.version() != rereg.version {
                        return Err(EngineError::Durability(format!(
                            "version chain of `{}` replays to {} but the journal says {}",
                            rereg.dataset,
                            entry.version(),
                            rereg.version
                        )));
                    }
                    engine
                        .registry
                        .push_version(entry)
                        .map_err(|e| EngineError::Durability(e.to_string()))?;
                }
            }
        }
        for (dataset, totals) in report.state.totals() {
            let entry = engine.registry.get(dataset).map_err(|_| {
                EngineError::Durability(format!(
                    "journaled charges reference unregistered dataset `{dataset}`"
                ))
            })?;
            entry.accountant().restore_totals(*totals);
        }
        // Build geometry backends for each chain's **latest** version only:
        // that is the version unpinned queries execute against. Superseded
        // versions mostly serve pinned replays out of the version-scoped
        // cache; if a pinned query does miss, the old version's backend is
        // built lazily on that first use instead of taxing every startup.
        for name in engine.registry.names() {
            let entry = engine.registry.get(&name)?;
            let build = Stopwatch::start();
            entry.backend(1);
            engine
                .telemetry
                .backend_build_seconds
                .observe(build.elapsed_seconds());
        }

        {
            let mut cache = lock_recover(&engine.cache);
            for release in report.state.releases() {
                match QueryValue::parse(&release.value) {
                    Ok(value) => cache.insert(release.fingerprint.clone(), value),
                    Err(e) => {
                        // Conservative and available: a release that no longer
                        // parses only loses its free replay — the charge
                        // backing it was already restored above.
                        eprintln!(
                            "privcluster-engine: dropping unparseable journaled release {}: {e}",
                            release.fingerprint
                        );
                        event!(
                            engine.telemetry.events(),
                            Severity::Warn,
                            "engine.release_dropped",
                            fingerprint = release.fingerprint.as_str(),
                            reason = e.to_string(),
                        );
                    }
                }
            }
        }

        store.set_observer(StoreObserver {
            fsync_seconds: Arc::clone(&engine.telemetry.fsync_seconds),
            group_commit_batch: Arc::clone(&engine.telemetry.group_commit_batch_size),
            events: Arc::clone(engine.telemetry.events()),
        });
        event!(
            engine.telemetry.events(),
            Severity::Info,
            "engine.recovery",
            journal_seq = store.last_seq(),
            recovered = report.recovered,
            torn_tail = report.torn_tail.is_some(),
            datasets = report.state.registers().len(),
            reregistrations = report.state.reregisters().len(),
            charges = report
                .state
                .totals()
                .values()
                .map(LedgerTotals::count)
                .sum::<u64>(),
            releases = report.state.releases().len(),
        );
        engine.store = Some(store);
        Ok(engine)
    }

    /// The engine configuration.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The engine's durability posture (journal presence, committed
    /// sequence number, and whether this process recovered prior state).
    pub fn durability(&self) -> DurabilityStatus {
        DurabilityStatus {
            journaled: self.store.is_some(),
            journal_seq: self.store.as_ref().map(Store::last_seq).unwrap_or(0),
            recovered: self.recovered,
        }
    }

    /// Writes a snapshot of the current durable state immediately (no-op
    /// returning `None` when in-memory or without a snapshot directory).
    pub fn snapshot_now(&self) -> Result<Option<std::path::PathBuf>, EngineError> {
        match &self.store {
            Some(store) => Ok(store.snapshot_now()?),
            None => Ok(None),
        }
    }

    /// The backend a registration of `n` points gets: the choice, with
    /// [`BackendChoice::Auto`] exact at or below
    /// [`EngineConfig::exact_backend_max_points`]. An exact backend above
    /// [`MAX_EXACT_POINTS`] points is refused, before anything is
    /// journaled: its profile builds pack pairs into 32 bits.
    fn kind_for(&self, choice: BackendChoice, n: usize) -> Result<BackendKind, EngineError> {
        let kind = match choice {
            BackendChoice::Exact => BackendKind::Exact,
            BackendChoice::Projected => BackendKind::Projected,
            BackendChoice::Auto if n <= self.config.exact_backend_max_points => BackendKind::Exact,
            BackendChoice::Auto => BackendKind::Projected,
        };
        if kind == BackendKind::Exact && n > MAX_EXACT_POINTS {
            return Err(EngineError::InvalidQuery(format!(
                "the exact backend takes at most {MAX_EXACT_POINTS} points, not {n}"
            )));
        }
        Ok(kind)
    }

    /// Registers an immutable dataset under `name` with a total privacy
    /// budget and a composition theorem, selecting the geometry backend
    /// automatically: exact at or below
    /// [`EngineConfig::exact_backend_max_points`] points, projected above.
    /// Names are write-once — new data for an existing name goes through
    /// [`Engine::reregister_dataset`], which inherits the ledger instead of
    /// declaring a budget.
    ///
    /// Registration also builds the dataset's shared geometry backend (the
    /// exact index, an `O(n d)` copy of the points, or the `O(n + B)`
    /// projected sites), so no later query ever rebuilds it. The first GoodRadius-based query for
    /// each cap `t` and domain builds and memoises that cap's grid profile
    /// of `L`.
    pub fn register_dataset(
        &self,
        name: impl Into<String>,
        dataset: Dataset,
        domain: GridDomain,
        budget: PrivacyParams,
        mode: CompositionMode,
    ) -> Result<DatasetStatus, EngineError> {
        self.register_dataset_with_backend(name, dataset, domain, budget, mode, BackendChoice::Auto)
    }

    /// [`Engine::register_dataset`] with an explicit backend choice — the
    /// wire protocol's optional `"backend"` field lands here, letting a
    /// client force the exact backend on a large dataset (accepting its
    /// profile builds' memory bill) or the projected sampler on a small
    /// one.
    pub fn register_dataset_with_backend(
        &self,
        name: impl Into<String>,
        dataset: Dataset,
        domain: GridDomain,
        budget: PrivacyParams,
        mode: CompositionMode,
        choice: BackendChoice,
    ) -> Result<DatasetStatus, EngineError> {
        let kind = self.kind_for(choice, dataset.len())?;
        let name = name.into();
        // The serial lock makes check → journal → insert one step, so the
        // journal's registration order always matches which racer the
        // write-once registry accepted (replay is first-wins by name).
        let _serial = self
            .registration_serial
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if self.registry.get(&name).is_ok() {
            return Err(EngineError::DatasetExists(name));
        }
        // Validation first (a registration that cannot build an entry must
        // never reach the journal — recovery replays every journaled
        // registration and would refuse to start on an invalid one)...
        let entry = DatasetEntry::new(name, dataset, domain, budget, mode, kind)?;
        // ...then write-ahead: the registration is durable before the
        // dataset becomes visible — otherwise a crash could leave charges
        // in the journal whose dataset the journal has never heard of.
        if let Some(store) = &self.store {
            store.append(StoreRecord::Register(RegisterRecord {
                seq: 0, // assigned by the store
                dataset: entry.name().to_string(),
                domain: DomainSpec {
                    dim: entry.domain().dim(),
                    size: entry.domain().size(),
                    min: entry.domain().min(),
                    max: entry.domain().max(),
                },
                budget,
                mode,
                backend: kind.as_str().to_string(),
                fingerprint: registration_fingerprint(
                    entry.name(),
                    entry.dataset(),
                    entry.domain(),
                    budget,
                    mode,
                    kind,
                ),
                rows: entry
                    .dataset()
                    .iter()
                    .map(|p| p.coords().to_vec())
                    .collect::<Vec<Vec<f64>>>(),
            }))?;
        }
        let entry = self.registry.register(entry)?;
        let build = Stopwatch::start();
        entry.backend(1);
        let build_seconds = build.elapsed_seconds();
        self.telemetry.backend_build_seconds.observe(build_seconds);
        self.telemetry.registrations_total.inc();
        event!(
            self.telemetry.events(),
            Severity::Info,
            "engine.register",
            dataset = entry.name(),
            points = entry.dataset().len(),
            dim = entry.dataset().dim(),
            backend = kind.as_str(),
            build_seconds = build_seconds,
        );
        Ok(self.status_of(&entry))
    }

    /// Re-registers an existing name with **new data** (and possibly a new
    /// domain), creating version `v + 1` of its chain with an
    /// automatically selected backend. The privacy ledger is *inherited*:
    /// the chain keeps the one budget and composition mode declared at
    /// original registration, every past charge still counts, and a budget
    /// exhausted on the old version stays exhausted on the new one.
    /// Re-registration buys fresh data — never fresh budget.
    pub fn reregister_dataset(
        &self,
        name: impl Into<String>,
        dataset: Dataset,
        domain: GridDomain,
    ) -> Result<DatasetStatus, EngineError> {
        self.reregister_dataset_with_backend(name, dataset, domain, BackendChoice::Auto)
    }

    /// [`Engine::reregister_dataset`] with an explicit backend choice (the
    /// wire protocol's optional `"backend"` field on `reregister`).
    pub fn reregister_dataset_with_backend(
        &self,
        name: impl Into<String>,
        dataset: Dataset,
        domain: GridDomain,
        choice: BackendChoice,
    ) -> Result<DatasetStatus, EngineError> {
        let kind = self.kind_for(choice, dataset.len())?;
        let name = name.into();
        // Same serial lock as registration: lookup → journal → push is one
        // step, so the journal's version order always matches the chain's.
        let _serial = self
            .registration_serial
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        let current = self.registry.get(&name)?;
        let entry = {
            // The accountant lock is held across capture → journal: charges
            // journal under this same lock, so the inherited spend recorded
            // here is exactly the composed spend of the charges that
            // precede the re-registration in the journal — which is what
            // recovery will recompute at this record's replay point.
            let accountant = current.accountant();
            let inherited = accountant.composed_spend();
            let budget = accountant.budget();
            let mode = accountant.mode();
            // Validation first: a re-registration that cannot build its
            // successor entry must never reach the journal.
            let entry = current.make_successor(dataset, domain, kind, inherited)?;
            // ...then write-ahead: the new version is durable before it
            // becomes visible, so a crash can never leave charges against a
            // version the journal has never heard of.
            if let Some(store) = &self.store {
                store.append(StoreRecord::Reregister(ReregisterRecord {
                    seq: 0, // assigned by the store
                    dataset: name.clone(),
                    version: entry.version(),
                    domain: DomainSpec {
                        dim: entry.domain().dim(),
                        size: entry.domain().size(),
                        min: entry.domain().min(),
                        max: entry.domain().max(),
                    },
                    backend: kind.as_str().to_string(),
                    fingerprint: versioned_registration_fingerprint(
                        &name,
                        entry.dataset(),
                        entry.domain(),
                        budget,
                        mode,
                        kind,
                        entry.version(),
                    ),
                    rows: entry
                        .dataset()
                        .iter()
                        .map(|p| p.coords().to_vec())
                        .collect::<Vec<Vec<f64>>>(),
                }))?;
            }
            self.registry.push_version(entry)?
        };
        let build = Stopwatch::start();
        entry.backend(1);
        let build_seconds = build.elapsed_seconds();
        self.telemetry.backend_build_seconds.observe(build_seconds);
        self.telemetry.reregistrations_total.inc();
        event!(
            self.telemetry.events(),
            Severity::Info,
            "engine.reregister",
            dataset = entry.name(),
            version = entry.version(),
            points = entry.dataset().len(),
            dim = entry.dataset().dim(),
            backend = kind.as_str(),
            build_seconds = build_seconds,
        );
        Ok(self.status_of(&entry))
    }

    /// The registered dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        self.registry.names()
    }

    /// The public status of a registered dataset (its latest version).
    pub fn status(&self, name: &str) -> Result<DatasetStatus, EngineError> {
        let entry = self.registry.get(name)?;
        Ok(self.status_of(&entry))
    }

    /// The public status of one exact version of a registered dataset. The
    /// budget columns are identical across versions (the ledger is shared);
    /// the data shape, backend, and inherited spend are per-version.
    pub fn status_version(&self, name: &str, version: u64) -> Result<DatasetStatus, EngineError> {
        let entry = self.registry.get_version(name, version)?;
        Ok(self.status_of(&entry))
    }

    fn status_of(&self, entry: &DatasetEntry) -> DatasetStatus {
        let accountant = entry.accountant();
        DatasetStatus {
            name: entry.name().to_string(),
            version: entry.version(),
            points: entry.dataset().len(),
            dim: entry.dataset().dim(),
            budget: accountant.budget(),
            mode: accountant.mode(),
            backend: entry.backend_kind(),
            granted: accountant.granted(),
            refused: accountant.refused(),
            spent: accountant.composed_spend(),
            inherited_spend: entry.inherited_spend(),
            remaining_epsilon: accountant.remaining_epsilon(),
            remaining_delta: accountant.remaining_delta(),
        }
    }

    /// Commits appended to the journal but not yet covered by a batch
    /// fsync (always 0 without a store).
    pub fn commit_queue_depth(&self) -> u64 {
        self.store.as_ref().map_or(0, |s| s.commit_queue_depth())
    }

    /// The store's durability health (healthy, with no snapshot, when
    /// in-memory).
    pub fn durability_health(&self) -> DurabilityHealth {
        match &self.store {
            Some(store) => DurabilityHealth {
                writer_alive: store.writer_alive(),
                commit_error: store.commit_error(),
                snapshot_bytes: store.snapshot_bytes(),
            },
            None => DurabilityHealth {
                writer_alive: true,
                commit_error: false,
                snapshot_bytes: 0,
            },
        }
    }

    /// Cache hit / miss counters of the released-result cache.
    pub fn cache_stats(&self) -> (u64, u64) {
        let cache = lock_recover(&self.cache);
        (cache.hits(), cache.misses())
    }

    /// The engine's telemetry plane (metrics registry + event stream).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The engine's structured event stream.
    pub fn events(&self) -> &Arc<EventStream> {
        self.telemetry.events()
    }

    /// A consistent point-in-time metrics snapshot, with the derived
    /// gauges refreshed first. Serves both the `metrics` wire op and the
    /// `--metrics` Prometheus endpoint.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.refresh_gauges();
        self.telemetry.registry().snapshot()
    }

    /// Recomputes the derived gauges — per-dataset budget headroom, spend
    /// counts, cache hits/misses, refusals, the commit queue and
    /// durability health, and the worker-pool occupancy.
    ///
    /// Gauges are **pulled** here (at snapshot/scrape time) rather than
    /// pushed from admission: a labeled-gauge write would take the metrics
    /// registry's lock on the admission path, and the headroom values live
    /// behind the accountant lock anyway. Scrapes pay the lookups; queries
    /// pay nothing.
    pub fn refresh_gauges(&self) {
        let registry = self.telemetry.registry();
        for name in self.registry.names() {
            let Ok(entry) = self.registry.get(&name) else {
                continue;
            };
            let labels: &[(&str, &str)] = &[("dataset", name.as_str())];
            let (granted, refused, remaining_epsilon, remaining_delta) = {
                let accountant = entry.accountant();
                (
                    accountant.granted(),
                    accountant.refused(),
                    accountant.remaining_epsilon(),
                    accountant.remaining_delta(),
                )
            };
            registry
                .gauge_with("budget_epsilon_remaining", labels)
                .set(remaining_epsilon);
            registry
                .gauge_with("budget_delta_remaining", labels)
                .set(remaining_delta);
            registry
                .gauge_with("budget_spend_count", labels)
                .set(granted as f64);
            registry
                .gauge_with("budget_refusals", labels)
                .set(refused as f64);
            registry
                .gauge_with("dataset_cache_hits", labels)
                .set(entry.cache_hit_count() as f64);
            registry
                .gauge_with("dataset_cache_misses", labels)
                .set(entry.cache_miss_count() as f64);
            registry
                .gauge_with("dataset_version", labels)
                .set(entry.version() as f64);
        }
        registry
            .gauge("commit_queue_depth")
            .set(self.commit_queue_depth() as f64);
        let health = self.durability_health();
        registry
            .gauge("store_writer_alive")
            .set(f64::from(u8::from(health.writer_alive)));
        registry
            .gauge("store_commit_error")
            .set(f64::from(u8::from(health.commit_error)));
        registry
            .gauge("store_snapshot_bytes")
            .set(health.snapshot_bytes as f64);
        registry
            .gauge("pool_queue_depth")
            .set(crate::pool::queue_depth() as f64);
        registry
            .gauge("pool_jobs_submitted_total")
            .set(crate::pool::jobs_submitted() as f64);
    }

    /// Admission with telemetry wrapped around [`Engine::admit_inner`]:
    /// times the whole admission (cache lookup + plan + charge + journal
    /// fsync) and classifies the outcome into the hit / granted / refused /
    /// error counters. Pure atomics — admission gains no lock and no
    /// behavioural branch from being observed.
    fn admit(&self, request: &QueryRequest) -> Result<Admitted, EngineError> {
        let clock = Stopwatch::start();
        self.telemetry.queries_total.inc();
        let outcome = self.admit_inner(request);
        self.telemetry
            .admission_seconds
            .observe(clock.elapsed_seconds());
        match &outcome {
            Ok(Admitted::Done(_)) => self.telemetry.cache_hits_total.inc(),
            Ok(Admitted::Run { .. }) => {
                self.telemetry.cache_misses_total.inc();
                self.telemetry.queries_granted_total.inc();
            }
            Err(EngineError::BudgetExhausted { .. }) => self.telemetry.refusals_total.inc(),
            Err(_) => self.telemetry.query_errors_total.inc(),
        }
        outcome
    }

    /// Admission only: cache lookup (coalescing with identical in-flight
    /// queries), then plan + charge. Returns either a finished response
    /// (cache hit) or the admitted plan to execute.
    fn admit_inner(&self, request: &QueryRequest) -> Result<Admitted, EngineError> {
        let (entry, key) = self.resolve(request)?;
        {
            let mut pending = lock_recover(&self.pending);
            loop {
                // The cache guard is transient, so pending → cache is the
                // only order in which both locks are ever held at once.
                if let Some(value) = lock_recover(&self.cache).get(&key) {
                    let remaining = entry.accountant().remaining_epsilon();
                    entry.record_cache_hit();
                    return Ok(Admitted::Done(QueryResponse {
                        value,
                        cached: true,
                        charged: None,
                        remaining_epsilon: remaining,
                    }));
                }
                if !pending.contains(&key) {
                    pending.insert(key.clone());
                    break;
                }
                // An identical query is executing right now: wait for it
                // and serve its released result instead of charging twice.
                pending = self
                    .pending_done
                    .wait(pending)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        }
        // From here this thread owns `key` in the pending set and must
        // release it on every exit path.
        let planned = plan(&request.query, request.privacy, &entry);
        let plan = match planned {
            Ok(plan) => plan,
            Err(e) => {
                self.release_pending(&key);
                return Err(e);
            }
        };
        let charged = {
            let mut accountant = entry.accountant();
            accountant.try_charge(request.privacy).and_then(|_| {
                // Write-ahead: the admitted charge is journaled while
                // the accountant lock is held — journal order is charge
                // order — *before* the plan runs or any result can be
                // released. If the append fails, the in-memory spend
                // stands (budget is never refunded) and the result is
                // withheld: the error below aborts admission before
                // execution.
                let ticket = match &self.store {
                    Some(store) => {
                        Some(store.append_deferred(StoreRecord::Charge(ChargeRecord {
                            seq: 0, // assigned by the store
                            dataset: entry.name().to_string(),
                            fingerprint: key.clone(),
                            label: request.query.label(),
                            params: request.privacy,
                        }))?)
                    }
                    None => None,
                };
                Ok((accountant.remaining_epsilon(), ticket))
            })
        };
        // The fsync wait happens *after* the accountant lock is dropped:
        // other queries on this dataset charge (and join the same batch)
        // while this one's fsync is in flight. The write-ahead contract is
        // untouched — nothing runs, and nothing can be released, until the
        // wait confirms the charge is durable.
        let charged = charged.and_then(|(remaining, ticket)| match ticket {
            Some(ticket) => ticket.wait().map(|_| remaining).map_err(EngineError::from),
            None => Ok(remaining),
        });
        let remaining_epsilon = match charged {
            Ok(remaining) => remaining,
            Err(e) => {
                self.release_pending(&key);
                return Err(e);
            }
        };
        entry.record_cache_miss();
        Ok(Admitted::Run {
            entry,
            plan,
            key,
            seed: request.seed,
            charged: request.privacy,
            remaining_epsilon,
        })
    }

    /// Resolves a request to the dataset version it runs against and the
    /// matching **version-scoped** cache/journal key: an explicit
    /// `version` pin reaches exactly that version (refused before any
    /// charge if it does not exist), an unpinned request reaches the
    /// latest. Version-scoping the key is a privacy invariant, not a perf
    /// detail — a result released against v1 data must never be replayed
    /// as an answer about v2 data.
    fn resolve(&self, request: &QueryRequest) -> Result<(Arc<DatasetEntry>, String), EngineError> {
        let entry = match request.version {
            Some(version) => self.registry.get_version(&request.dataset, version)?,
            None => self.registry.get(&request.dataset)?,
        };
        let key = versioned_query_fingerprint(request, entry.version());
        Ok((entry, key))
    }

    /// Removes a key from the in-flight set and wakes coalesced waiters.
    fn release_pending(&self, key: &str) {
        lock_recover(&self.pending).remove(key);
        self.pending_done.notify_all();
    }

    fn finish(
        &self,
        entry: &DatasetEntry,
        plan: &Plan,
        key: String,
        seed: u64,
        charged: PrivacyParams,
        remaining_epsilon: f64,
    ) -> Result<QueryResponse, EngineError> {
        // From admission until here this thread owns `key` in the pending
        // set. The guard ties its release to scope exit, so even a panic in
        // `plan.execute` cannot leak the key — without it, coalesced
        // waiters of the same request would block on the condvar forever
        // and the panicking thread's poisoned locks would take down every
        // subsequent query.
        struct PendingGuard<'a> {
            engine: &'a Engine,
            key: &'a str,
        }
        impl Drop for PendingGuard<'_> {
            fn drop(&mut self) {
                self.engine.release_pending(self.key);
            }
        }
        let _guard = PendingGuard {
            engine: self,
            key: &key,
        };

        // A panicking plan is a data-dependent failure like any other:
        // contain it to this query instead of unwinding through `serve`.
        // The spend stands (the engine never refunds post-admission
        // failures), and coalesced waiters re-admit on their own.
        let execute_clock = Stopwatch::start();
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| plan.execute(entry, seed)))
                .unwrap_or_else(|panic| {
                    let message = panic
                        .downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| panic.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "non-string panic payload".to_string());
                    Err(EngineError::ExecutionFailed(format!(
                        "query execution panicked: {message}"
                    )))
                });
        self.telemetry
            .execute_seconds
            .observe(execute_clock.elapsed_seconds());
        if let Ok(value) = &result {
            if let Some(store) = &self.store {
                // The release record enables zero-charge replay after
                // recovery. Its loss is benign — the charge above is already
                // durable, so a failed append only costs the free replay —
                // hence warn-and-continue rather than failing the query.
                if let Err(e) = store.append(StoreRecord::Release(ReleaseRecord {
                    seq: 0, // assigned by the store
                    dataset: entry.name().to_string(),
                    fingerprint: key.clone(),
                    value: value.to_json_value(),
                })) {
                    eprintln!("privcluster-engine: failed to journal a release record: {e}");
                }
            }
            lock_recover(&self.cache).insert(key.clone(), value.clone());
        }
        // The guard wakes coalesced waiters on every exit path: on success
        // they will find the cache entry, on failure (or panic) they will
        // admit and charge their own attempt, exactly as in the sequential
        // case.
        Ok(QueryResponse {
            value: result?,
            cached: false,
            charged: Some(charged),
            remaining_epsilon,
        })
    }

    /// Runs one query end to end: cache lookup, admission, execution.
    pub fn query(&self, request: &QueryRequest) -> Result<QueryResponse, EngineError> {
        match self.admit(request)? {
            Admitted::Done(response) => Ok(response),
            Admitted::Run {
                entry,
                plan,
                key,
                seed,
                charged,
                remaining_epsilon,
            } => self.finish(&entry, &plan, key, seed, charged, remaining_epsilon),
        }
    }

    /// Runs a batch of independent queries on the worker pool.
    ///
    /// Admission (budget charging and cache lookups) happens sequentially in
    /// submission order — so which queries are granted when the budget runs
    /// low does not depend on thread scheduling — and execution then fans
    /// out over [`EngineConfig::threads`] workers. Identical requests within
    /// one batch are admitted (and charged) once; later copies share the
    /// first copy's released result exactly like a cache hit, so repeats
    /// stay free in budget even before the first execution lands in the
    /// cache. Results come back in submission order and are bit-identical
    /// across thread counts.
    pub fn run_batch(&self, requests: &[QueryRequest]) -> Vec<Result<QueryResponse, EngineError>> {
        enum BatchSlot {
            Admitted(Result<Admitted, EngineError>),
            DuplicateOf(usize),
        }
        let mut first_by_key: HashMap<String, usize> = HashMap::new();
        let mut slots: Vec<BatchSlot> = Vec::with_capacity(requests.len());
        for (index, request) in requests.iter().enumerate() {
            // Dedupe on the *resolved* (version-scoped) key, so an unpinned
            // copy and a copy pinned to the current latest coalesce, while
            // a copy pinned to an older version does not. A request that
            // fails to resolve keeps its raw key; admission will report the
            // error itself.
            let key = self
                .resolve(request)
                .map(|(_, key)| key)
                .unwrap_or_else(|_| request.cache_key());
            if let Some(&first) = first_by_key.get(&key) {
                slots.push(BatchSlot::DuplicateOf(first));
                continue;
            }
            let admitted = self.admit(request);
            if matches!(admitted, Ok(Admitted::Run { .. })) {
                first_by_key.insert(key, index);
            }
            slots.push(BatchSlot::Admitted(admitted));
        }

        // Execute every uniquely admitted slot on the pool.
        let mut jobs = Vec::new();
        let mut job_targets = Vec::new();
        for (index, slot) in slots.iter_mut().enumerate() {
            if let BatchSlot::Admitted(admitted) = slot {
                let admitted =
                    std::mem::replace(admitted, Err(EngineError::Protocol(String::new())));
                job_targets.push(index);
                jobs.push(move || match admitted {
                    Err(e) => Err(e),
                    Ok(Admitted::Done(response)) => Ok(response),
                    Ok(Admitted::Run {
                        entry,
                        plan,
                        key,
                        seed,
                        charged,
                        remaining_epsilon,
                    }) => self.finish(&entry, &plan, key, seed, charged, remaining_epsilon),
                });
            }
        }
        let executed = run_on_pool(jobs, self.config.threads);
        let mut results: Vec<Option<Result<QueryResponse, EngineError>>> =
            (0..requests.len()).map(|_| None).collect();
        for (index, result) in job_targets.into_iter().zip(executed) {
            results[index] = Some(result);
        }
        // In-batch duplicates mirror their original: the released value is
        // shared (post-processing) and nothing extra is charged. The
        // reported budget headroom is looked up fresh — all of the batch's
        // charges landed during admission, so this matches what a status
        // call would say, rather than the original's admission-time value.
        for (index, slot) in slots.iter().enumerate() {
            if let BatchSlot::DuplicateOf(first) = slot {
                let mirrored = match results[*first]
                    .as_ref()
                    .expect("originals are filled before duplicates")
                {
                    Ok(response) => {
                        let remaining_epsilon = self
                            .registry
                            .get(&requests[index].dataset)
                            .map(|entry| entry.accountant().remaining_epsilon())
                            .unwrap_or(response.remaining_epsilon);
                        Ok(QueryResponse {
                            value: response.value.clone(),
                            cached: true,
                            charged: None,
                            remaining_epsilon,
                        })
                    }
                    Err(e) => Err(e.clone()),
                };
                results[index] = Some(mirrored);
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every batch slot is filled"))
            .collect()
    }
}

/// Resolves a journaled backend name during replay.
fn replayed_backend_kind(name: &str, backend: &str) -> Result<BackendKind, EngineError> {
    match backend {
        "exact" => Ok(BackendKind::Exact),
        "projected" => Ok(BackendKind::Projected),
        other => Err(EngineError::Durability(format!(
            "journaled registration of `{name}` names unknown backend `{other}`"
        ))),
    }
}

/// Rebuilds and validates a journaled domain during replay.
fn replayed_domain(name: &str, spec: &DomainSpec) -> Result<GridDomain, EngineError> {
    GridDomain::new(spec.dim, spec.size, spec.min, spec.max).map_err(|e| {
        EngineError::Durability(format!(
            "journaled domain of `{name}` does not validate: {e}"
        ))
    })
}

/// Rebuilds and validates journaled rows during replay.
fn replayed_rows(name: &str, rows: &[Vec<f64>]) -> Result<Dataset, EngineError> {
    Dataset::from_rows(rows.to_vec()).map_err(|e| {
        EngineError::Durability(format!("journaled rows of `{name}` do not validate: {e}"))
    })
}

/// The outcome of admission: already served (cache) or ready to run.
enum Admitted {
    Done(QueryResponse),
    Run {
        entry: Arc<DatasetEntry>,
        plan: Plan,
        key: String,
        seed: u64,
        charged: PrivacyParams,
        remaining_epsilon: f64,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::Query;
    use privcluster_datagen::planted_ball_cluster;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine_with_dataset(budget_epsilon: f64) -> Engine {
        let engine = Engine::new(EngineConfig {
            threads: 2,
            cache_capacity: 16,
            ..EngineConfig::default()
        });
        let domain = GridDomain::unit_cube(2, 1 << 10).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let inst = planted_ball_cluster(&domain, 400, 200, 0.02, &mut rng);
        engine
            .register_dataset(
                "demo",
                inst.data,
                domain,
                PrivacyParams::new(budget_epsilon, 1e-5).unwrap(),
                CompositionMode::Basic,
            )
            .unwrap();
        engine
    }

    fn radius_request(seed: u64) -> QueryRequest {
        QueryRequest {
            dataset: "demo".into(),
            version: None,
            seed,
            privacy: PrivacyParams::new(0.5, 1e-7).unwrap(),
            query: Query::GoodRadius { t: 200, beta: 0.1 },
        }
    }

    #[test]
    fn a_panicking_plan_releases_its_pending_key_and_spares_the_engine() {
        let engine = engine_with_dataset(10.0);
        let request = radius_request(1);
        let key = request.cache_key();
        // Simulate admission of a plan that will panic: the key is owned in
        // the pending set exactly as `admit` would leave it.
        lock_recover(&engine.pending).insert(key.clone());
        let entry = engine.registry.get("demo").unwrap();
        let err = engine
            .finish(
                &entry,
                &Plan::panicking_for_test(),
                key.clone(),
                1,
                PrivacyParams::new(0.5, 1e-7).unwrap(),
                9.5,
            )
            .unwrap_err();
        assert!(
            matches!(&err, EngineError::ExecutionFailed(m) if m.contains("panicked")),
            "got {err:?}"
        );
        // The drop guard released the key: coalesced waiters cannot hang...
        assert!(
            !lock_recover(&engine.pending).contains(&key),
            "pending key leaked after a panicking plan"
        );
        // ...and the engine keeps serving: the *same* request (same cache
        // key) admits, charges, and executes normally afterwards.
        let response = engine.query(&request).unwrap();
        assert!(!response.cached);
        assert_eq!(engine.status("demo").unwrap().granted, 1);
    }

    #[test]
    fn coalesced_waiters_survive_a_panicking_twin() {
        // One thread runs a panicking plan for a key; a racing identical
        // request coalesces on that key mid-flight. Before the drop guard,
        // the waiter blocked on the condvar forever (the panicking thread
        // never released the key) and the whole service wedged.
        let engine = std::sync::Arc::new(engine_with_dataset(10.0));
        let request = radius_request(7);
        let key = request.cache_key();
        lock_recover(&engine.pending).insert(key.clone());
        let waiter = {
            let engine = std::sync::Arc::clone(&engine);
            let request = request.clone();
            std::thread::spawn(move || engine.query(&request))
        };
        // Give the waiter a moment to park on the pending set, then panic
        // the in-flight twin.
        std::thread::sleep(std::time::Duration::from_millis(50));
        let entry = engine.registry.get("demo").unwrap();
        let _ = engine.finish(
            &entry,
            &Plan::panicking_for_test(),
            key,
            7,
            PrivacyParams::new(0.5, 1e-7).unwrap(),
            9.5,
        );
        let response = waiter.join().unwrap().unwrap();
        assert!(!response.cached, "the waiter re-admits and runs on its own");
    }

    #[test]
    fn poisoned_cache_and_pending_locks_recover() {
        let engine = engine_with_dataset(10.0);
        // Poison both mutexes the way a panicking holder would.
        for _ in 0..1 {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = engine.cache.lock().unwrap();
                panic!("poison the cache lock");
            }));
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = engine.pending.lock().unwrap();
                panic!("poison the pending lock");
            }));
        }
        assert!(engine.cache.is_poisoned());
        assert!(engine.pending.is_poisoned());
        // Every path that used to `.expect("lock poisoned")` now recovers.
        let first = engine.query(&radius_request(2)).unwrap();
        assert!(!first.cached);
        assert!(engine.query(&radius_request(2)).unwrap().cached);
        let (hits, misses) = engine.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn cache_hits_charge_nothing() {
        let engine = engine_with_dataset(2.0);
        let first = engine.query(&radius_request(1)).unwrap();
        assert!(!first.cached);
        assert!(first.charged.is_some());
        let second = engine.query(&radius_request(1)).unwrap();
        assert!(second.cached);
        assert!(second.charged.is_none());
        assert_eq!(second.value, first.value);
        assert_eq!(second.remaining_epsilon, first.remaining_epsilon);
        let status = engine.status("demo").unwrap();
        assert_eq!(status.granted, 1);
        let (hits, misses) = engine.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn budget_runs_out_and_refuses() {
        let engine = engine_with_dataset(1.0);
        // Two ε=0.5 queries fit; a third distinct one must be refused.
        engine.query(&radius_request(1)).unwrap();
        engine.query(&radius_request(2)).unwrap();
        let err = engine.query(&radius_request(3)).unwrap_err();
        assert!(matches!(err, EngineError::BudgetExhausted { .. }));
        // But the *same* queries keep being answered from the cache.
        assert!(engine.query(&radius_request(1)).unwrap().cached);
        let status = engine.status("demo").unwrap();
        assert_eq!(status.granted, 2);
        assert_eq!(status.refused, 1);
        assert!(status.remaining_epsilon < 1e-9);
    }

    #[test]
    fn invalid_queries_do_not_burn_budget() {
        let engine = engine_with_dataset(1.0);
        let mut bad = radius_request(1);
        bad.query = Query::GoodRadius {
            t: 100_000,
            beta: 0.1,
        };
        assert!(matches!(
            engine.query(&bad),
            Err(EngineError::InvalidQuery(_))
        ));
        let status = engine.status("demo").unwrap();
        assert_eq!(status.granted, 0);
        assert!((status.remaining_epsilon - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_dataset_is_reported() {
        let engine = engine_with_dataset(1.0);
        let mut req = radius_request(1);
        req.dataset = "nope".into();
        assert!(matches!(
            engine.query(&req),
            Err(EngineError::UnknownDataset(_))
        ));
        assert!(engine.status("nope").is_err());
        assert_eq!(engine.dataset_names(), vec!["demo".to_string()]);
    }

    #[test]
    fn concurrent_identical_queries_are_charged_once() {
        // Four threads race the same request on a budget that only fits one
        // ε = 0.5 charge twice: without in-flight coalescing, two racers
        // could both miss the cache and charge, exhausting the budget for
        // one logical query.
        let engine = engine_with_dataset(1.0);
        let request = radius_request(77);
        let responses: Vec<QueryResponse> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| scope.spawn(|| engine.query(&request).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let status = engine.status("demo").unwrap();
        assert_eq!(status.granted, 1, "identical racers must be charged once");
        assert_eq!(responses.iter().filter(|r| !r.cached).count(), 1);
        for response in &responses {
            assert_eq!(response.value, responses[0].value);
        }
        assert!((status.remaining_epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn in_batch_duplicates_are_charged_once() {
        let engine = engine_with_dataset(1.0);
        // Three copies of one ε = 0.5 request: only the first is charged,
        // even though none of them is in the cache at admission time.
        let reqs = vec![radius_request(1), radius_request(1), radius_request(1)];
        let out = engine.run_batch(&reqs);
        let first = out[0].as_ref().unwrap();
        assert!(!first.cached);
        assert!(first.charged.is_some());
        for later in &out[1..] {
            let later = later.as_ref().unwrap();
            assert!(later.cached);
            assert!(later.charged.is_none());
            assert_eq!(later.value, first.value);
        }
        let status = engine.status("demo").unwrap();
        assert_eq!(status.granted, 1);
        assert!((status.remaining_epsilon - 0.5).abs() < 1e-12);
    }

    #[test]
    fn batches_preserve_order_and_admission_sequence() {
        let engine = engine_with_dataset(1.0);
        // Budget fits exactly two of the three distinct queries: the *first
        // two* must be granted, the third refused — regardless of threads.
        let reqs = vec![radius_request(10), radius_request(11), radius_request(12)];
        let out = engine.run_batch(&reqs);
        assert!(out[0].is_ok());
        assert!(out[1].is_ok());
        assert!(matches!(
            out[2].as_ref().unwrap_err(),
            EngineError::BudgetExhausted { .. }
        ));
    }
}
