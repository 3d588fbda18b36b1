//! Recovery semantics, end to end through `Engine::open` (the PR's
//! acceptance criterion):
//!
//! * driving a dataset to `BudgetExhausted`, reopening the store, and
//!   checking that refusals persist while cached replays still cost zero
//!   and return bit-identical values;
//! * a simulated `kill -9` between journal commit and result release
//!   (a charge record with no release record) keeps its budget spent
//!   after recovery — never refunded;
//! * a truncated/corrupt journal tail is detected via checksum and does
//!   not refund any committed charge;
//! * a checksum-valid journal whose registration or re-registration
//!   fingerprint disagrees with its record is refused at open;
//! * recovery through a snapshot equals recovery from the journal alone,
//!   and reopening twice is idempotent.

use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{
    protocol, query_fingerprint, registration_fingerprint, versioned_registration_fingerprint,
    Engine, EngineConfig, EngineError, Query, QueryRequest, Store, StoreConfig,
};
use privcluster_geometry::{BackendKind, Dataset, GridDomain};
use privcluster_store::{DomainSpec, RegisterRecord, ReregisterRecord, StoreRecord};
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "privcluster-durability-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig::journal_only(dir.join("journal.pcsj"))
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: 2,
        cache_capacity: 16,
        ..EngineConfig::default()
    }
}

fn rows() -> Vec<Vec<f64>> {
    // A small deterministic two-blob layout; content only needs to be
    // stable, not clustered.
    (0..60)
        .map(|i| {
            let base = if i % 3 == 0 { 0.2 } else { 0.7 };
            vec![base + 0.001 * (i % 7) as f64, base - 0.001 * (i % 5) as f64]
        })
        .collect()
}

fn register(engine: &Engine, budget_epsilon: f64) {
    engine
        .register_dataset(
            "demo",
            Dataset::from_rows(rows()).unwrap(),
            GridDomain::unit_cube(2, 1 << 10).unwrap(),
            PrivacyParams::new(budget_epsilon, 1e-5).unwrap(),
            CompositionMode::Basic,
        )
        .unwrap();
}

fn request(seed: u64) -> QueryRequest {
    QueryRequest {
        dataset: "demo".into(),
        version: None,
        seed,
        privacy: PrivacyParams::new(0.5, 1e-7).unwrap(),
        query: Query::GoodRadius { t: 20, beta: 0.1 },
    }
}

#[test]
fn exhausted_budgets_survive_restarts_and_replays_stay_free() {
    let dir = scratch_dir("exhaustion");

    // Phase 1: exhaust the budget (fits exactly two ε = 0.5 queries).
    let (value_one, value_two, status_before) = {
        let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
        assert!(!engine.durability().recovered, "virgin journal");
        register(&engine, 1.0);
        let one = engine.query(&request(1)).unwrap();
        let two = engine.query(&request(2)).unwrap();
        assert!(matches!(
            engine.query(&request(3)).unwrap_err(),
            EngineError::BudgetExhausted { .. }
        ));
        (one.value, two.value, engine.status("demo").unwrap())
    };

    // Phase 2: reopen on the same journal — as after a crash or restart.
    let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
    let durability = engine.durability();
    assert!(durability.journaled);
    assert!(durability.recovered);
    assert!(
        durability.journal_seq >= 5,
        "register + 2×(charge, release)"
    );

    // Registry and spend are bit-identical to the pre-restart state.
    let status = engine.status("demo").unwrap();
    assert_eq!(status.name, status_before.name);
    assert_eq!(status.points, status_before.points);
    assert_eq!(status.dim, status_before.dim);
    assert_eq!(status.backend, status_before.backend);
    assert_eq!(status.granted, status_before.granted);
    assert_eq!(
        status.spent, status_before.spent,
        "spend must be bit-identical"
    );
    assert_eq!(
        status.remaining_epsilon.to_bits(),
        status_before.remaining_epsilon.to_bits()
    );
    assert_eq!(
        status.remaining_delta.to_bits(),
        status_before.remaining_delta.to_bits()
    );

    // Refusal behavior persists: a fresh distinct query is still refused.
    assert!(matches!(
        engine.query(&request(4)).unwrap_err(),
        EngineError::BudgetExhausted { .. }
    ));

    // Cached replays cost zero and are bit-identical to the pre-crash
    // releases — and to what an uninterrupted in-memory run produces.
    for (seed, expected) in [(1, &value_one), (2, &value_two)] {
        let replay = engine.query(&request(seed)).unwrap();
        assert!(replay.cached, "seed {seed} must replay from the journal");
        assert!(replay.charged.is_none());
        assert_eq!(&replay.value, expected, "seed {seed} value drifted");
    }
    let fresh = Engine::new(engine_config());
    register(&fresh, 1.0);
    assert_eq!(fresh.query(&request(1)).unwrap().value, value_one);
    assert_eq!(fresh.query(&request(2)).unwrap().value, value_two);
    // The replays charged nothing: granted count unchanged.
    assert_eq!(
        engine.status("demo").unwrap().granted,
        status_before.granted
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn reregistration_recovers_version_scoped_caches_and_inherited_spend() {
    let dir = scratch_dir("reregister");
    let new_rows: Vec<Vec<f64>> = (0..80)
        .map(|i| {
            let base = if i % 2 == 0 { 0.35 } else { 0.6 };
            vec![base + 0.002 * (i % 5) as f64, base + 0.001 * (i % 9) as f64]
        })
        .collect();

    // Phase 1: spend half the budget on v1, re-register, spend the rest on
    // v2 — the same request keys differently against each version.
    let (v1_value, v2_value, status_before) = {
        let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
        register(&engine, 1.0);
        let v1 = engine.query(&request(1)).unwrap();
        let status = engine
            .reregister_dataset(
                "demo",
                Dataset::from_rows(new_rows.clone()).unwrap(),
                GridDomain::unit_cube(2, 1 << 10).unwrap(),
            )
            .unwrap();
        assert_eq!(status.version, 2);
        assert_eq!(status.points, 80);
        let inherited = status.inherited_spend.expect("v1 spend is inherited");
        assert!((inherited.epsilon() - 0.5).abs() < 1e-12);
        // The unpinned repeat targets v2: a fresh (charged) execution, not
        // a replay of the v1 result.
        let v2 = engine.query(&request(1)).unwrap();
        assert!(!v2.cached, "the v1 cache entry must not serve v2");
        assert!(v2.charged.is_some());
        // ε = 0.5 + 0.5 spent: the inherited ledger is now exhausted.
        assert!(matches!(
            engine.query(&request(3)).unwrap_err(),
            EngineError::BudgetExhausted { .. }
        ));
        (v1.value, v2.value, engine.status("demo").unwrap())
    };
    assert_ne!(v1_value, v2_value, "different data, different answer");

    // Phase 2: reopen — as after a crash. The version chain, the inherited
    // spend, and both versions' cache entries are all rebuilt from the
    // journal.
    let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
    let status = engine.status("demo").unwrap();
    assert_eq!(status.version, 2);
    assert_eq!(status.granted, status_before.granted);
    assert_eq!(status.spent, status_before.spent, "spend is bit-identical");
    assert_eq!(status.inherited_spend, status_before.inherited_spend);
    // Exhausted on v1 stays exhausted on v2 (and vice versa): fresh
    // queries are refused against either version.
    assert!(matches!(
        engine.query(&request(3)).unwrap_err(),
        EngineError::BudgetExhausted { .. }
    ));
    let mut pinned_fresh = request(4);
    pinned_fresh.version = Some(1);
    assert!(matches!(
        engine.query(&pinned_fresh).unwrap_err(),
        EngineError::BudgetExhausted { .. }
    ));
    // The replay cache is version-scoped: the unpinned repeat replays the
    // v2 release, the v1 pin replays the v1 release, and they differ.
    let replay_v2 = engine.query(&request(1)).unwrap();
    assert!(replay_v2.cached, "v2 release must replay from the journal");
    assert_eq!(replay_v2.value, v2_value);
    let mut pinned = request(1);
    pinned.version = Some(1);
    let replay_v1 = engine.query(&pinned).unwrap();
    assert!(replay_v1.cached, "v1 release must replay from the journal");
    assert_eq!(replay_v1.value, v1_value);
    // Per-version status survives recovery too.
    let v1_status = engine.status_version("demo", 1).unwrap();
    assert_eq!((v1_status.version, v1_status.points), (1, 60));
    assert_eq!(v1_status.inherited_spend, None);
    assert!(matches!(
        engine.status_version("demo", 3).unwrap_err(),
        EngineError::UnknownVersion { version: 3, .. }
    ));

    // Phase 3: checkpoint into a snapshot (format v2 carries the version
    // table) and recover from it — identical to journal recovery.
    let mut with_snapshots = store_config(&dir);
    with_snapshots.snapshot_dir = Some(dir.join("snapshots"));
    let checkpoint_status = {
        let engine = Engine::open(engine_config(), with_snapshots.clone()).unwrap();
        engine.snapshot_now().unwrap().expect("snapshot dir is set");
        engine.status("demo").unwrap()
    };
    let engine = Engine::open(engine_config(), with_snapshots).unwrap();
    assert_eq!(engine.status("demo").unwrap(), checkpoint_status);
    assert_eq!(engine.status("demo").unwrap().version, 2);
    assert!(engine.query(&request(1)).unwrap().cached);
    let mut pinned = request(1);
    pinned.version = Some(1);
    assert_eq!(engine.query(&pinned).unwrap().value, v1_value);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_charge_without_a_release_stays_spent_after_recovery() {
    let dir = scratch_dir("charged-unreleased");

    // Run one real query so the journal holds a register + charge + release.
    {
        let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
        register(&engine, 2.0);
        engine.query(&request(1)).unwrap();
    }

    // Simulate `kill -9` between journal commit and result release: the
    // journal gains a committed charge record with no release record —
    // exactly what the write-ahead ordering leaves behind when the process
    // dies after fsync but before the response leaves. The store API is the
    // same code path the engine's admission uses.
    let victim = request(2);
    let fingerprint = query_fingerprint(&victim);
    {
        let (store, _) = Store::open(store_config(&dir)).unwrap();
        store
            .append(StoreRecord::Charge(privcluster_store::ChargeRecord {
                seq: 0,
                dataset: "demo".into(),
                fingerprint: fingerprint.clone(),
                label: "good_radius(t=20)".into(),
                params: victim.privacy,
            }))
            .unwrap();
    }

    // Recovery: the composed spend includes the unreleased charge — the
    // ledger is ≥ the pre-crash admitted spend, never refunded.
    let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
    let status = engine.status("demo").unwrap();
    assert_eq!(
        status.granted, 2,
        "released + unreleased charges both count"
    );
    let spent = status.spent.unwrap();
    assert!(
        (spent.epsilon() - 1.0).abs() < 1e-12,
        "0.5 released + 0.5 unreleased, got ε = {}",
        spent.epsilon()
    );

    // The victim's result was never released, so re-asking is a *new*
    // interaction: it misses the cache and is charged again (conservative:
    // budget is spent on both sides, never refunded on either).
    let rerun = engine.query(&victim).unwrap();
    assert!(
        !rerun.cached,
        "an unreleased charge must not populate the cache"
    );
    assert!(rerun.charged.is_some());
    assert_eq!(engine.status("demo").unwrap().granted, 3);

    // …and that re-charge is itself durable: a further reopen still sees
    // composed spend 1.5 (idempotent replay, no seq collisions).
    drop(engine);
    let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
    let spent = engine.status("demo").unwrap().spent.unwrap();
    assert!(
        (spent.epsilon() - 1.5).abs() < 1e-12,
        "got ε = {}",
        spent.epsilon()
    );
    assert_eq!(engine.status("demo").unwrap().granted, 3);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_tails_are_detected_and_never_refund_budget() {
    let dir = scratch_dir("torn-tail");
    let journal = dir.join("journal.pcsj");

    let status_before = {
        let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
        // Budget fits exactly the two ε = 0.5 queries below, so any refund
        // caused by tail damage would show up as a third grant succeeding.
        register(&engine, 1.0);
        engine.query(&request(1)).unwrap();
        engine.query(&request(2)).unwrap();
        engine.status("demo").unwrap()
    };

    // Append half a record — a crash mid-append. The checksum layer must
    // detect it; every committed charge stays.
    let intact = std::fs::read(&journal).unwrap();
    let mut torn = intact.clone();
    torn.extend_from_slice(&42u32.to_le_bytes()); // length prefix, no body
    torn.extend_from_slice(&[0xAB, 0xCD]);
    std::fs::write(&journal, &torn).unwrap();
    {
        let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
        let status = engine.status("demo").unwrap();
        assert_eq!(status.granted, status_before.granted);
        assert_eq!(
            status.spent, status_before.spent,
            "torn tail must not refund"
        );
        assert!(engine.query(&request(1)).unwrap().cached);
    }

    // Corrupt a byte *inside* the last committed record: that record is
    // lost (it was the release — worst case a free replay), but nothing
    // before it is, and nothing is refunded.
    let mut corrupt = intact.clone();
    let last = corrupt.len() - 3;
    corrupt[last] ^= 0x10;
    std::fs::write(&journal, &corrupt).unwrap();
    {
        let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
        let status = engine.status("demo").unwrap();
        assert_eq!(
            status.granted, status_before.granted,
            "charges precede the damaged release and must all survive"
        );
        assert_eq!(status.spent, status_before.spent);
        // The first query's release is intact; the second lost its replay
        // but *not* its spend.
        assert!(engine.query(&request(1)).unwrap().cached);
        assert!(matches!(
            engine.query(&request(3)).unwrap_err(),
            EngineError::BudgetExhausted { .. }
        ));
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// The journal form of the domain `register` declares.
fn unit_square_spec() -> DomainSpec {
    DomainSpec {
        dim: 2,
        size: 1 << 10,
        min: 0.0,
        max: 1.0,
    }
}

/// Appends `record` to the journal under `dir` through the store API, the
/// path the engine's own appends take, so the record is checksum-valid;
/// then requires `Engine::open` to refuse the journal.
fn assert_forged_record_is_refused(dir: &Path, record: StoreRecord) {
    {
        let (store, _) = Store::open(store_config(dir)).unwrap();
        store.append(record).unwrap();
    }
    let err = Engine::open(engine_config(), store_config(dir)).unwrap_err();
    assert!(
        matches!(&err, EngineError::Durability(m) if m.contains("fingerprint mismatch")),
        "got {err:?}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn replay_refuses_a_registration_fingerprinted_for_another_budget() {
    // The record's budget was edited after the engine fingerprinted it.
    let dir = scratch_dir("forged-register");
    let fingerprint = registration_fingerprint(
        "demo",
        &Dataset::from_rows(rows()).unwrap(),
        &GridDomain::unit_cube(2, 1 << 10).unwrap(),
        PrivacyParams::new(100.0, 1e-5).unwrap(),
        CompositionMode::Basic,
        BackendKind::Exact,
    );
    let record = RegisterRecord {
        seq: 0,
        dataset: "demo".into(),
        domain: unit_square_spec(),
        budget: PrivacyParams::new(1.0, 1e-5).unwrap(),
        mode: CompositionMode::Basic,
        backend: "exact".into(),
        fingerprint,
        rows: rows(),
    };
    assert_forged_record_is_refused(&dir, StoreRecord::Register(record));
}

#[test]
fn replay_refuses_a_reregistration_fingerprinted_for_other_rows() {
    // After a valid registration, a re-registration carrying other rows
    // than the ones it was fingerprinted for.
    let dir = scratch_dir("forged-reregister");
    register(
        &Engine::open(engine_config(), store_config(&dir)).unwrap(),
        1.0,
    );
    let other_rows: Vec<Vec<f64>> = rows().into_iter().map(|r| vec![r[1], r[0]]).collect();
    let fingerprint = versioned_registration_fingerprint(
        "demo",
        &Dataset::from_rows(other_rows).unwrap(),
        &GridDomain::unit_cube(2, 1 << 10).unwrap(),
        PrivacyParams::new(1.0, 1e-5).unwrap(),
        CompositionMode::Basic,
        BackendKind::Exact,
        2,
    );
    let record = ReregisterRecord {
        seq: 0,
        dataset: "demo".into(),
        version: 2,
        domain: unit_square_spec(),
        backend: "exact".into(),
        fingerprint,
        rows: rows(),
    };
    assert_forged_record_is_refused(&dir, StoreRecord::Reregister(record));
}

#[test]
fn snapshot_recovery_equals_journal_recovery() {
    let dir = scratch_dir("snapshots");

    // Phase 1, journal only: build up state and capture it.
    let status_before = {
        let engine = Engine::open(engine_config(), store_config(&dir)).unwrap();
        register(&engine, 4.0);
        for seed in 1..=3 {
            engine.query(&request(seed)).unwrap();
        }
        engine.status("demo").unwrap()
    };

    // Phase 2: recover from the journal, then checkpoint into a snapshot
    // (which truncates the journal — the snapshot now owns the history).
    let mut with_snapshots = store_config(&dir);
    with_snapshots.snapshot_dir = Some(dir.join("snapshots"));
    let journal_path = dir.join("journal.pcsj");
    let (journal_status, journal_values) = {
        let engine = Engine::open(engine_config(), with_snapshots.clone()).unwrap();
        let values: Vec<_> = (1..=3)
            .map(|seed| engine.query(&request(seed)).unwrap().value)
            .collect();
        engine.snapshot_now().unwrap().expect("snapshot dir is set");
        (engine.status("demo").unwrap(), values)
    };
    assert_eq!(std::fs::read_dir(dir.join("snapshots")).unwrap().count(), 1);
    let truncated = std::fs::metadata(&journal_path).unwrap().len();
    assert!(
        truncated <= 8,
        "snapshot must checkpoint the journal, {truncated} bytes left"
    );

    // Phase 3: recover purely from the snapshot (the journal is now just a
    // header) — state and replays must be identical to the journal replay.
    let engine = Engine::open(engine_config(), with_snapshots.clone()).unwrap();
    let status = engine.status("demo").unwrap();
    assert_eq!(
        status, journal_status,
        "snapshot recovery diverged from journal recovery"
    );
    assert_eq!(status.granted, status_before.granted);
    assert_eq!(status.spent, status_before.spent);
    for (seed, expected) in (1..=3).zip(journal_values.iter()) {
        let replay = engine.query(&request(seed)).unwrap();
        assert!(replay.cached, "seed {seed} must replay from the snapshot");
        assert_eq!(&replay.value, expected);
    }

    // Reopening is idempotent: recovery appends nothing, and the sequence
    // counter survives the checkpoint (replay would misbehave on reuse).
    let seq = engine.durability().journal_seq;
    drop(engine);
    let again = Engine::open(engine_config(), with_snapshots).unwrap();
    assert_eq!(again.durability().journal_seq, seq);
    assert_eq!(again.status("demo").unwrap(), journal_status);
    // A post-checkpoint query lands in the truncated journal as the tail.
    let fresh = again.query(&request(4)).unwrap();
    assert!(!fresh.cached);
    assert!(again.durability().journal_seq > seq);
    drop(again);
    let final_engine = Engine::open(engine_config(), {
        let mut c = store_config(&dir);
        c.snapshot_dir = Some(dir.join("snapshots"));
        c
    })
    .unwrap();
    assert_eq!(final_engine.status("demo").unwrap().granted, 4);
    assert_eq!(final_engine.query(&request(4)).unwrap().value, fresh.value);

    std::fs::remove_dir_all(&dir).ok();
}

fn store_fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../store/tests/data")
}

/// Copies a committed store fixture (journal, optional snapshot
/// directory) into a scratch directory, since opening a store may write.
fn fixture_copy(name: &str, tag: &str) -> PathBuf {
    let source = store_fixtures().join(name);
    let dir = scratch_dir(tag);
    std::fs::copy(source.join("journal.pcsj"), dir.join("journal.pcsj")).unwrap();
    if let Ok(entries) = std::fs::read_dir(source.join("snapshots")) {
        std::fs::create_dir_all(dir.join("snapshots")).unwrap();
        for entry in entries {
            let entry = entry.unwrap();
            std::fs::copy(entry.path(), dir.join("snapshots").join(entry.file_name())).unwrap();
        }
    }
    dir
}

/// The `status` objects of a transcript's lines, as JSON text: the float
/// writer prints the shortest round-trip form, so equal text means equal
/// bits.
fn status_objects(transcript: &str) -> Vec<String> {
    transcript
        .lines()
        .map(|line| {
            let value: serde::Value = serde_json::from_str(line).unwrap();
            let status = value
                .as_object()
                .and_then(|fields| fields.iter().find(|(k, _)| k == "status"))
                .map(|(_, v)| v)
                .expect("a status response");
            serde_json::to_string(status).unwrap()
        })
        .collect()
}

/// What `engine` answers to the status requests of a fixture's request
/// script (`requests`, a file name under the store fixtures).
fn fixture_statuses(engine: &Engine, requests: &str) -> Vec<String> {
    let requests = std::fs::read_to_string(store_fixtures().join(requests)).unwrap();
    requests
        .lines()
        .filter_map(|line| match protocol::Request::parse(line) {
            Ok(protocol::Request::Status { dataset, version }) => {
                let status = match version {
                    Some(version) => engine.status_version(&dataset, version),
                    None => engine.status(&dataset),
                };
                Some(serde_json::to_string(&protocol::status_value(&status.unwrap())).unwrap())
            }
            _ => None,
        })
        .collect()
}

/// `crates/store/tests/data` holds a version-2 snapshot and its journal
/// tail, and a journal-only copy of the same history, both written by the
/// record-list snapshot writer this crate used before payload version 3:
/// `serve --snapshot-every 11` (and plain `serve --journal`) over
/// `v2_requests.jsonl` — two datasets, one basic and one advanced, each
/// re-registered between charges — with `v2_statuses.jsonl` the status
/// answers that writer's server gave before shutting down. Recovering
/// either copy, and recovering the version-5 snapshot written from the
/// first, must answer every status field — spend, headroom and each
/// version's inherited spend — bit for bit as that server did.
#[test]
fn version_two_snapshots_recover_bit_identically_to_a_journal_replay() {
    let expected = status_objects(
        &std::fs::read_to_string(store_fixtures().join("v2_statuses.jsonl")).unwrap(),
    );
    assert_eq!(expected.len(), 4);

    let journal_dir = fixture_copy("v2_journal_only", "v2-journal-only");
    let engine = Engine::open(engine_config(), store_config(&journal_dir)).unwrap();
    assert_eq!(
        fixture_statuses(&engine, "v2_requests.jsonl"),
        expected,
        "journal-only replay"
    );
    drop(engine);

    let snapshot_dir = fixture_copy("v2_snapshot", "v2-snapshot");
    let mut config = store_config(&snapshot_dir);
    config.snapshot_dir = Some(snapshot_dir.join("snapshots"));
    {
        let engine = Engine::open(engine_config(), config.clone()).unwrap();
        assert_eq!(engine.durability().journal_seq, 16);
        assert_eq!(
            fixture_statuses(&engine, "v2_requests.jsonl"),
            expected,
            "v2 snapshot + tail"
        );
        engine.snapshot_now().unwrap().expect("snapshot dir is set");
    }
    let engine = Engine::open(engine_config(), config).unwrap();
    assert_eq!(
        fixture_statuses(&engine, "v2_requests.jsonl"),
        expected,
        "v5 snapshot written from it"
    );

    std::fs::remove_dir_all(&journal_dir).ok();
    std::fs::remove_dir_all(&snapshot_dir).ok();
}

/// `crates/store/tests/data/v3_snapshot` was written by the last writer of
/// JSON rows: `serve --snapshot-dir --snapshot-every 8` over
/// `v3_requests.jsonl`. It holds a version-3 snapshot at seq 8 (two
/// registrations of dimension 2 and 3, one re-registration, their charges)
/// and a journal tail whose re-registration and registration (on the
/// projected backend) carry their rows as JSON arrays; `v3_statuses.jsonl`
/// holds the status answers that server gave before shutting down.
/// Recovering it, and recovering the version-5 snapshot written from it,
/// must answer every status field bit for bit as that server did.
#[test]
fn json_row_journals_and_version_three_snapshots_recover_bit_identically() {
    let expected = status_objects(
        &std::fs::read_to_string(store_fixtures().join("v3_statuses.jsonl")).unwrap(),
    );
    assert_eq!(expected.len(), 5);

    let dir = fixture_copy("v3_snapshot", "v3-snapshot");
    let mut config = store_config(&dir);
    config.snapshot_dir = Some(dir.join("snapshots"));
    {
        let engine = Engine::open(engine_config(), config.clone()).unwrap();
        assert_eq!(engine.durability().journal_seq, 15);
        assert_eq!(
            fixture_statuses(&engine, "v3_requests.jsonl"),
            expected,
            "v3 snapshot + JSON-row journal tail"
        );
        let path = engine.snapshot_now().unwrap().expect("snapshot dir is set");
        // After the magic and the frame's length and checksum: the
        // row-block tag, where a version-3 payload has `{`.
        assert_eq!(std::fs::read(path).unwrap()[16], 0xB1);
    }
    let engine = Engine::open(engine_config(), config).unwrap();
    assert_eq!(
        fixture_statuses(&engine, "v3_requests.jsonl"),
        expected,
        "v5 snapshot written from it"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// `crates/store/tests/data/v4_snapshot` was written by the last writer of
/// `f64`-only row blocks: `serve --snapshot-dir --snapshot-every 8` over
/// `v4_requests.jsonl`. Its version-4 snapshot at seq 8 holds an on-grid
/// registration (`alpha`, synthetic and so snapped to its grid), an
/// off-grid one (`bravo`, inline points) and `alpha`'s on-grid
/// re-registration; its journal tail adds an on-grid registration on a
/// 200-value grid over [−2, 3] (`charlie`, projected backend) and
/// `bravo`'s off-grid re-registration, every row as raw `f64`.
/// `v4_statuses.jsonl` holds the status answers that server gave before
/// shutting down. Recovering it, and recovering the version-5 snapshot
/// written from it, in which the three on-grid blocks become grid
/// indices, must answer every status field bit for bit as that server
/// did.
#[test]
fn f64_block_journals_and_version_four_snapshots_recover_bit_identically() {
    let expected = status_objects(
        &std::fs::read_to_string(store_fixtures().join("v4_statuses.jsonl")).unwrap(),
    );
    assert_eq!(expected.len(), 5);

    let dir = fixture_copy("v4_snapshot", "v4-snapshot");
    let mut config = store_config(&dir);
    config.snapshot_dir = Some(dir.join("snapshots"));
    {
        let engine = Engine::open(engine_config(), config.clone()).unwrap();
        assert_eq!(engine.durability().journal_seq, 15);
        assert_eq!(
            fixture_statuses(&engine, "v4_requests.jsonl"),
            expected,
            "v4 snapshot + f64-block journal tail"
        );
        let path = engine.snapshot_now().unwrap().expect("snapshot dir is set");
        // After the magic, the frame's length and checksum, the row-block
        // tag and the header length: the header.
        let bytes = std::fs::read(path).unwrap();
        let len = u32::from_le_bytes(bytes[17..21].try_into().unwrap()) as usize;
        let header = std::str::from_utf8(&bytes[21..21 + len]).unwrap();
        assert!(header.starts_with(r#"{"version":5,"#), "{header}");
        assert_eq!(header.matches(r#""width":"#).count(), 3, "{header}");
    }
    let engine = Engine::open(engine_config(), config).unwrap();
    assert_eq!(
        fixture_statuses(&engine, "v4_requests.jsonl"),
        expected,
        "v5 snapshot written from it"
    );

    std::fs::remove_dir_all(&dir).ok();
}
