//! The dataset registry: named, versioned datasets with their domains,
//! budgets, and accountants.
//!
//! Registration is the engine's trust boundary: a dataset enters with a
//! declared total [`PrivacyParams`] budget and a composition theorem, and
//! every later query is charged against that budget by the entry's
//! [`BudgetAccountant`]. A name holds a **version chain** of entries: each
//! re-registration appends an immutable version `v+1` with fresh data and a
//! fresh geometry backend, while the accountant — and therefore the ledger
//! and the declared budget — is **shared across the whole chain**. Spend
//! against any version composes with spend against every other, so a
//! budget exhausted on v1 stays exhausted on v2; re-registration can never
//! reset it. Individual entries are immutable after construction (the
//! ledger inside the shared accountant is the only mutable state), so
//! readers never need a write lock.

use crate::accountant::BudgetAccountant;
use crate::error::EngineError;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::sync::{lock_recover, read_recover, write_recover};
use privcluster_geometry::{
    BackendKind, Dataset, GeometryBackend, GeometryIndex, GridDomain, ProjectedBackend,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// How a registration picks the dataset's geometry backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Exact below the engine's configured point threshold
    /// (`EngineConfig::exact_backend_max_points`), projected above it.
    #[default]
    Auto,
    /// Force the exact backend (`O(n²)` profile builds), up to its 65,536
    /// points.
    Exact,
    /// Force the sub-quadratic projected backend regardless of size.
    Projected,
}

impl BackendChoice {
    /// Parses the wire name (`"auto"`, `"exact"`, `"projected"`).
    pub fn parse(name: &str) -> Result<Self, EngineError> {
        match name {
            "auto" => Ok(BackendChoice::Auto),
            "exact" => Ok(BackendChoice::Exact),
            "projected" => Ok(BackendChoice::Projected),
            other => Err(EngineError::Protocol(format!(
                "field `backend` must be \"auto\", \"exact\" or \"projected\", got `{other}`"
            ))),
        }
    }
}

/// Per-dataset cache telemetry, shared by every version in a chain so the
/// counters survive re-registration. Plain atomics (not metrics series) so
/// the admission path stays lock-free; the engine exports them as labeled
/// gauges at snapshot time.
#[derive(Debug, Default)]
struct CacheStats {
    hits: AtomicU64,
    misses: AtomicU64,
}

/// One version of a registered dataset.
///
/// The data, domain, and geometry backend belong to this version alone;
/// the accountant (budget + ledger) and cache counters are shared with
/// every other version of the same name.
#[derive(Debug)]
pub struct DatasetEntry {
    name: String,
    /// This entry's position in the name's version chain (1 = original
    /// registration).
    version: u64,
    dataset: Dataset,
    domain: GridDomain,
    /// Shared across the whole version chain: spend against any version
    /// composes against the one budget declared at original registration.
    accountant: Arc<Mutex<BudgetAccountant>>,
    /// The composed spend the chain had already accumulated when this
    /// version was created (`None` for version 1, and for later versions
    /// created before any grant). Recorded for status output — the live
    /// spend keeps growing in the shared accountant.
    inherited_spend: Option<PrivacyParams>,
    /// Which geometry backend serves this version (resolved from the
    /// registration's [`BackendChoice`] at admission, so readers never see
    /// `Auto`).
    backend_kind: BackendKind,
    /// The shared per-version geometry backend — the exact
    /// `O(n² d)`-distances [`GeometryIndex`] or the sub-quadratic
    /// [`ProjectedBackend`], per `backend_kind` — built once (at
    /// registration by the engine, or on first use) and reused by every
    /// later query. Versions are immutable, so it can never go stale.
    backend: OnceLock<Arc<dyn GeometryBackend>>,
    cache_stats: Arc<CacheStats>,
}

impl DatasetEntry {
    /// Builds a version-1 entry with a fresh accountant, validating that
    /// the data lives in the domain's ambient dimension and that every
    /// coordinate is finite. `backend_kind`
    /// must already be resolved (the engine maps [`BackendChoice::Auto`] to
    /// a concrete kind using its size threshold before constructing the
    /// entry).
    pub fn new(
        name: impl Into<String>,
        dataset: Dataset,
        domain: GridDomain,
        budget: PrivacyParams,
        mode: CompositionMode,
        backend_kind: BackendKind,
    ) -> Result<Self, EngineError> {
        let name = name.into();
        Self::check_data(&name, &dataset, &domain)?;
        let accountant = BudgetAccountant::new(&name, budget, mode)?;
        Ok(DatasetEntry {
            name,
            version: 1,
            dataset,
            domain,
            accountant: Arc::new(Mutex::new(accountant)),
            inherited_spend: None,
            backend_kind,
            backend: OnceLock::new(),
            cache_stats: Arc::new(CacheStats::default()),
        })
    }

    /// Refuses data outside the domain's dimension, and any coordinate that
    /// is not finite (JSON's `1e400` parses to `+∞`): no backend places it.
    fn check_data(name: &str, dataset: &Dataset, domain: &GridDomain) -> Result<(), EngineError> {
        if dataset.dim() != domain.dim() {
            return Err(EngineError::InvalidQuery(format!(
                "dataset `{name}` has dimension {} but its domain has dimension {}",
                dataset.dim(),
                domain.dim()
            )));
        }
        if let Some(row) = dataset.iter().position(|p| !p.is_finite()) {
            return Err(EngineError::InvalidQuery(format!(
                "dataset `{name}` has a coordinate that is not finite in row {row}"
            )));
        }
        Ok(())
    }

    /// Builds this entry's successor version: fresh data, domain, and
    /// backend slot, with the accountant and cache counters **shared** —
    /// the construction that makes ledger inheritance structural rather
    /// than bookkept. `inherited_spend` is the chain's composed spend at
    /// creation time, captured by the caller while holding the accountant
    /// lock so it is consistent with the journal order.
    pub fn make_successor(
        &self,
        dataset: Dataset,
        domain: GridDomain,
        backend_kind: BackendKind,
        inherited_spend: Option<PrivacyParams>,
    ) -> Result<Self, EngineError> {
        Self::check_data(&self.name, &dataset, &domain)?;
        Ok(DatasetEntry {
            name: self.name.clone(),
            version: self.version + 1,
            dataset,
            domain,
            accountant: Arc::clone(&self.accountant),
            inherited_spend,
            backend_kind,
            backend: OnceLock::new(),
            cache_stats: Arc::clone(&self.cache_stats),
        })
    }

    /// Telemetry: counts one cache-served admission of this dataset.
    pub(crate) fn record_cache_hit(&self) {
        self.cache_stats.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Telemetry: counts one charged (cache-missing) admission.
    pub(crate) fn record_cache_miss(&self) {
        self.cache_stats.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Cache-served admissions of this dataset (all versions) so far.
    pub fn cache_hit_count(&self) -> u64 {
        self.cache_stats.hits.load(Ordering::Relaxed)
    }

    /// Charged (cache-missing) admissions of this dataset (all versions)
    /// so far.
    pub fn cache_miss_count(&self) -> u64 {
        self.cache_stats.misses.load(Ordering::Relaxed)
    }

    /// The entry's shared [`GeometryBackend`], building it on first call
    /// and returning the cached copy (an `O(1)` `Arc` clone) ever after.
    /// Builds are deterministic, so it does not matter which caller wins
    /// the race. `threads` is unused: no build runs in parallel. The
    /// signature stays because perfbench's traced passes name it.
    pub fn backend(&self, _threads: usize) -> Arc<dyn GeometryBackend> {
        Arc::clone(self.backend.get_or_init(|| match self.backend_kind {
            BackendKind::Exact => Arc::new(GeometryIndex::build(&self.dataset)),
            BackendKind::Projected => Arc::new(ProjectedBackend::build_default(&self.dataset)),
        }))
    }

    /// Which backend kind serves this dataset.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend_kind
    }

    /// The dataset's registered name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// This entry's version in the name's chain (1 = original
    /// registration).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The chain's composed spend at the moment this version was created
    /// (`None` for version 1, or when nothing had been granted yet).
    pub fn inherited_spend(&self) -> Option<PrivacyParams> {
        self.inherited_spend
    }

    /// The immutable data.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The grid domain the data lives in.
    pub fn domain(&self) -> &GridDomain {
        &self.domain
    }

    /// Locks and returns the entry's budget accountant, recovering it if a
    /// charging thread panicked (its totals change only by whole
    /// assignment, in [`BudgetAccountant::try_charge`] and
    /// [`BudgetAccountant::restore_totals`], so no panic leaves them
    /// half-updated).
    pub fn accountant(&self) -> std::sync::MutexGuard<'_, BudgetAccountant> {
        lock_recover(&self.accountant)
    }
}

/// A concurrent map of registered datasets, each a version chain ordered
/// oldest-first (index `i` holds version `i + 1`).
#[derive(Debug, Default)]
pub struct DatasetRegistry {
    entries: RwLock<HashMap<String, Vec<Arc<DatasetEntry>>>>,
}

impl DatasetRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        DatasetRegistry::default()
    }

    /// Registers a version-1 entry; refuses to overwrite an existing name
    /// (new data for an existing name goes through [`push_version`], which
    /// inherits the ledger — a fresh `register` would reset the budget).
    ///
    /// [`push_version`]: DatasetRegistry::push_version
    pub fn register(&self, entry: DatasetEntry) -> Result<Arc<DatasetEntry>, EngineError> {
        debug_assert_eq!(entry.version(), 1, "register() is for version-1 entries");
        let mut entries = write_recover(&self.entries);
        if entries.contains_key(entry.name()) {
            return Err(EngineError::DatasetExists(entry.name().to_string()));
        }
        let entry = Arc::new(entry);
        entries.insert(entry.name().to_string(), vec![Arc::clone(&entry)]);
        Ok(entry)
    }

    /// Appends the next version to an existing name's chain. The entry must
    /// have been built with [`DatasetEntry::make_successor`] from the
    /// chain's current latest version — a gap or duplicate version is a
    /// durability-ordering bug and is refused.
    pub fn push_version(&self, entry: DatasetEntry) -> Result<Arc<DatasetEntry>, EngineError> {
        let mut entries = write_recover(&self.entries);
        let chain = entries
            .get_mut(entry.name())
            .ok_or_else(|| EngineError::UnknownDataset(entry.name().to_string()))?;
        let latest = chain.last().expect("version chains are never empty");
        if entry.version() != latest.version() + 1 {
            return Err(EngineError::Durability(format!(
                "version chain of `{}` is at {} but the new entry claims {}",
                entry.name(),
                latest.version(),
                entry.version()
            )));
        }
        let entry = Arc::new(entry);
        chain.push(Arc::clone(&entry));
        Ok(entry)
    }

    /// Looks up a dataset by name, returning the **latest** version.
    pub fn get(&self, name: &str) -> Result<Arc<DatasetEntry>, EngineError> {
        read_recover(&self.entries)
            .get(name)
            .map(|chain| Arc::clone(chain.last().expect("version chains are never empty")))
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))
    }

    /// Looks up an exact dataset version.
    pub fn get_version(&self, name: &str, version: u64) -> Result<Arc<DatasetEntry>, EngineError> {
        let entries = read_recover(&self.entries);
        let chain = entries
            .get(name)
            .ok_or_else(|| EngineError::UnknownDataset(name.to_string()))?;
        // Chains are gapless from 1, so the version is its own index.
        version
            .checked_sub(1)
            .and_then(|i| chain.get(i as usize))
            .cloned()
            .ok_or(EngineError::UnknownVersion {
                dataset: name.to_string(),
                version,
            })
    }

    /// The registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = read_recover(&self.entries).keys().cloned().collect();
        names.sort();
        names
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        read_recover(&self.entries).len()
    }

    /// Whether no dataset is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(name: &str) -> DatasetEntry {
        DatasetEntry::new(
            name,
            Dataset::from_rows(vec![vec![0.5, 0.5]; 10]).unwrap(),
            GridDomain::unit_cube(2, 1 << 8).unwrap(),
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            CompositionMode::Basic,
            BackendKind::Exact,
        )
        .unwrap()
    }

    #[test]
    fn registration_is_write_once() {
        let registry = DatasetRegistry::new();
        assert!(registry.is_empty());
        registry.register(entry("a")).unwrap();
        registry.register(entry("b")).unwrap();
        assert!(matches!(
            registry.register(entry("a")),
            Err(EngineError::DatasetExists(_))
        ));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["a".to_string(), "b".to_string()]);
        let got = registry.get("a").unwrap();
        assert_eq!(got.name(), "a");
        assert_eq!(got.dataset().len(), 10);
        assert_eq!(got.domain().dim(), 2);
        assert!(matches!(
            registry.get("missing"),
            Err(EngineError::UnknownDataset(_))
        ));
    }

    #[test]
    fn entry_validates_dimensions() {
        let err = DatasetEntry::new(
            "bad",
            Dataset::from_rows(vec![vec![0.5; 3]; 5]).unwrap(),
            GridDomain::unit_cube(2, 1 << 8).unwrap(),
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            CompositionMode::Basic,
            BackendKind::Exact,
        );
        assert!(err.is_err());
    }

    #[test]
    fn entry_builds_the_backend_its_kind_names() {
        let registry = DatasetRegistry::new();
        let exact = registry.register(entry("exact")).unwrap();
        assert!(exact.backend.get().is_none());
        assert_eq!(exact.backend(1).kind(), BackendKind::Exact);
        assert!(exact.backend.get().is_some());

        let projected = DatasetEntry::new(
            "projected",
            Dataset::from_rows(vec![vec![0.5, 0.5]; 10]).unwrap(),
            GridDomain::unit_cube(2, 1 << 8).unwrap(),
            PrivacyParams::new(1.0, 1e-6).unwrap(),
            CompositionMode::Basic,
            BackendKind::Projected,
        )
        .unwrap();
        assert_eq!(projected.backend_kind(), BackendKind::Projected);
        assert_eq!(projected.backend(1).kind(), BackendKind::Projected);
        // Later calls return the same shared backend.
        assert!(Arc::ptr_eq(&projected.backend(1), &projected.backend(1)));
    }

    #[test]
    fn backend_choice_parses_wire_names() {
        assert_eq!(BackendChoice::parse("auto").unwrap(), BackendChoice::Auto);
        assert_eq!(BackendChoice::parse("exact").unwrap(), BackendChoice::Exact);
        assert_eq!(
            BackendChoice::parse("projected").unwrap(),
            BackendChoice::Projected
        );
        assert!(BackendChoice::parse("mystery").is_err());
        assert_eq!(BackendChoice::default(), BackendChoice::Auto);
    }

    #[test]
    fn version_chains_inherit_the_accountant_and_stats() {
        let registry = DatasetRegistry::new();
        let v1 = registry.register(entry("a")).unwrap();
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.inherited_spend(), None);
        let spend = PrivacyParams::new(0.5, 1e-7).unwrap();
        v1.accountant().try_charge(spend).unwrap();
        v1.record_cache_hit();

        let inherited = v1.accountant().composed_spend();
        let v2 = v1
            .make_successor(
                Dataset::from_rows(vec![vec![0.25, 0.25]; 20]).unwrap(),
                GridDomain::unit_cube(2, 1 << 8).unwrap(),
                BackendKind::Exact,
                inherited,
            )
            .unwrap();
        let v2 = registry.push_version(v2).unwrap();
        assert_eq!(v2.version(), 2);
        assert_eq!(v2.inherited_spend(), inherited);
        assert_eq!(v2.dataset().len(), 20, "v2 serves the new data");

        // `get` resolves to the latest; the pin reaches both versions; the
        // ledger and cache counters are one object across the chain.
        assert_eq!(registry.get("a").unwrap().version(), 2);
        assert_eq!(registry.get_version("a", 1).unwrap().dataset().len(), 10);
        assert_eq!(registry.get_version("a", 2).unwrap().dataset().len(), 20);
        assert!(matches!(
            registry.get_version("a", 3),
            Err(EngineError::UnknownVersion { version: 3, .. })
        ));
        assert!(matches!(
            registry.get_version("a", 0),
            Err(EngineError::UnknownVersion { .. })
        ));
        assert!(matches!(
            registry.get_version("missing", 1),
            Err(EngineError::UnknownDataset(_))
        ));
        assert_eq!(v2.accountant().granted(), 1, "ledger is inherited");
        v2.accountant().try_charge(spend).unwrap();
        assert_eq!(v1.accountant().granted(), 2, "and shared both ways");
        assert_eq!(v2.cache_hit_count(), 1, "stats are inherited");
        // Registration stays write-once; the chain refuses version gaps.
        assert!(matches!(
            registry.register(entry("a")),
            Err(EngineError::DatasetExists(_))
        ));
        let gap = v2
            .make_successor(
                Dataset::from_rows(vec![vec![0.5, 0.5]; 5]).unwrap(),
                GridDomain::unit_cube(2, 1 << 8).unwrap(),
                BackendKind::Exact,
                None,
            )
            .unwrap();
        // Push v3 twice: the second must be refused (duplicate version).
        registry.push_version(gap).unwrap();
        let dup = v2
            .make_successor(
                Dataset::from_rows(vec![vec![0.5, 0.5]; 5]).unwrap(),
                GridDomain::unit_cube(2, 1 << 8).unwrap(),
                BackendKind::Exact,
                None,
            )
            .unwrap();
        assert!(matches!(
            registry.push_version(dup),
            Err(EngineError::Durability(_))
        ));
        assert_eq!(registry.len(), 1, "len counts names, not versions");
    }

    #[test]
    fn accountant_is_shared_through_the_entry() {
        let registry = DatasetRegistry::new();
        let e = registry.register(entry("a")).unwrap();
        e.accountant()
            .try_charge(PrivacyParams::new(0.5, 1e-7).unwrap())
            .unwrap();
        // Visible through a fresh lookup: the entry is shared, not cloned.
        assert_eq!(registry.get("a").unwrap().accountant().granted(), 1);
    }
}
