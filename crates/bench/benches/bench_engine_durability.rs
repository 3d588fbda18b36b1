//! Durability overhead: what the write-ahead journal costs on admission,
//! and what snapshots buy at recovery.
//!
//! Group 1 (`engine_admission_durability`) runs the same 8-query batch
//! against a long-lived engine in two modes — in-memory and journaled —
//! so the fsync cost per admitted query is visible in the perf
//! trajectory. Fresh seeds defeat the result cache; the dataset is small
//! so admission (and its two journal appends per query) dominates.
//!
//! Group 2 (`engine_recovery_replay`) measures `Engine::open` on a journal
//! holding 10k records, with and without a covering snapshot: the snapshot
//! replaces tail replay with one framed read, which is the entire reason
//! `--snapshot-every` exists.
//!
//! Group 3 (`store_registration_record`) times the store layer alone on
//! the records a large registration writes: `Store::append` of one
//! 20,000 × 2 re-registration record (its fsync included), and
//! `Store::open` of a journal holding ten of them — the set-up and
//! recovery costs that registration rows put on `projected-large`. It
//! runs both on uniform off-grid rows, which the journal stores as raw
//! `f64`, and (rows suffixed `_on_grid`) on rows snapped to a 1,025-value
//! grid as `projected-large`'s are, which it stores as 2-byte grid
//! indices. Each journal first registers the dataset, so every
//! re-registration is applied to the store's state (and its rows cloned
//! there) as in a real recovery.
//!
//! Group 4 (`accountant_try_charge`) times granted
//! `BudgetAccountant::try_charge` calls on an accountant that already
//! holds 10², 10³, 10⁴ or 10⁵ charges, under basic and advanced
//! composition — the admission-path cost that must not grow with the
//! ledger. Each sample runs [`CHARGES_PER_SAMPLE`] charges on a fresh clone
//! of the prepared accountant (cloned outside the timing, and dropped after
//! the group), so the printed time is per batch of that many charges.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::{
    query_fingerprint, BudgetAccountant, Engine, EngineConfig, Query, QueryRequest,
};
use privcluster_geometry::{Dataset, GridDomain};
use privcluster_store::{
    ChargeRecord, DomainSpec, RegisterRecord, ReleaseRecord, ReregisterRecord, Store, StoreConfig,
    StoreRecord,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BATCH: u64 = 8;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(3))
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "privcluster-bench-durability-{}-{tag}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn rows(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|i| vec![0.3 + 0.001 * (i % 13) as f64, 0.6 - 0.001 * (i % 11) as f64])
        .collect()
}

fn register(engine: &Engine) {
    engine
        .register_dataset(
            "bench",
            Dataset::from_rows(rows(120)).unwrap(),
            GridDomain::unit_cube(2, 1 << 10).unwrap(),
            // Roomy budget: overhead, not enforcement, is being measured.
            PrivacyParams::new(1e6, 0.5).unwrap(),
            CompositionMode::Basic,
        )
        .unwrap();
}

fn request(seed: u64) -> QueryRequest {
    QueryRequest {
        dataset: "bench".into(),
        version: None,
        seed,
        privacy: PrivacyParams::new(0.01, 1e-9).unwrap(),
        query: Query::GoodRadius { t: 40, beta: 0.1 },
    }
}

fn run_batch(engine: &Engine, next_seed: &AtomicU64) {
    let first = next_seed.fetch_add(BATCH, Ordering::Relaxed);
    for seed in first..first + BATCH {
        engine.query(&request(seed)).unwrap();
    }
}

fn bench_admission(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_admission_durability");

    let in_memory = Engine::new(EngineConfig::default());
    register(&in_memory);
    let seeds = AtomicU64::new(0);
    group.bench_function("in_memory_8_queries", |b| {
        b.iter(|| run_batch(&in_memory, &seeds))
    });

    let dir = scratch_dir("admission-fsync");
    let journaled = Engine::open(
        EngineConfig::default(),
        StoreConfig::journal_only(dir.join("journal.pcsj")),
    )
    .unwrap();
    register(&journaled);
    let seeds = AtomicU64::new(0);
    group.bench_function("journaled_fsync_8_queries", |b| {
        b.iter(|| run_batch(&journaled, &seeds))
    });

    group.finish();
    std::fs::remove_dir_all(&dir).ok();
}

/// Builds a journal with one real registration and `records` synthetic
/// charge/release pairs (the exact shape the engine writes), returning the
/// store config pointing at it.
fn journal_with_records(tag: &str, records: usize) -> StoreConfig {
    let dir = scratch_dir(tag);
    let mut config = StoreConfig::journal_only(dir.join("journal.pcsj"));
    config.snapshot_dir = Some(dir.join("snapshots"));
    {
        // The registration record must be engine-authentic (recovery
        // verifies its fingerprint), so route it through a real engine.
        let engine = Engine::open(EngineConfig::default(), config.clone()).unwrap();
        register(&engine);
    }
    {
        let (store, _) = Store::open(config.clone()).unwrap();
        for i in 0..records / 2 {
            let fingerprint = query_fingerprint(&request(i as u64));
            store
                .append(StoreRecord::Charge(ChargeRecord {
                    seq: 0,
                    dataset: "bench".into(),
                    fingerprint: fingerprint.clone(),
                    label: format!("good_radius(t=40)#{i}"),
                    params: PrivacyParams::new(1e-4, 1e-12).unwrap(),
                }))
                .unwrap();
            store
                .append(StoreRecord::Release(ReleaseRecord {
                    seq: 0,
                    dataset: "bench".into(),
                    fingerprint,
                    value: Value::Object(vec![
                        ("type".to_string(), Value::String("radius".to_string())),
                        ("radius".to_string(), Value::Number(0.001 * i as f64)),
                    ]),
                }))
                .unwrap();
        }
    }
    config
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_recovery_replay");
    group.sample_size(10);

    let journal_only = journal_with_records("replay-journal", 10_000);
    group.bench_function("open_10k_records_journal_only", |b| {
        b.iter(|| {
            let engine = Engine::open(EngineConfig::default(), journal_only.clone()).unwrap();
            assert!(engine.durability().recovered);
            assert_eq!(engine.status("bench").unwrap().granted, 5_000);
        })
    });

    let snapshotted = journal_with_records("replay-snapshot", 10_000);
    {
        let (store, _) = Store::open(snapshotted.clone()).unwrap();
        store.snapshot_now().unwrap().expect("snapshot dir is set");
    }
    group.bench_function("open_10k_records_with_snapshot", |b| {
        b.iter(|| {
            let engine = Engine::open(EngineConfig::default(), snapshotted.clone()).unwrap();
            assert!(engine.durability().recovered);
            assert_eq!(engine.status("bench").unwrap().granted, 5_000);
        })
    });

    group.finish();
    std::fs::remove_dir_all(journal_only.journal_path.parent().unwrap()).ok();
    std::fs::remove_dir_all(snapshotted.journal_path.parent().unwrap()).ok();
}

/// Points per record of `store_registration_record`, as in
/// `projected-large`.
const REGISTRATION_POINTS: usize = 20_000;

/// The 2-d domain of `store_registration_record`'s off-grid rows.
const OFF_GRID_DOMAIN: DomainSpec = DomainSpec {
    dim: 2,
    size: 1 << 10,
    min: 0.0,
    max: 1.0,
};

/// The 2-d domain of its on-grid rows: 1,025 values per axis, as in
/// `projected-large`.
const ON_GRID_DOMAIN: DomainSpec = DomainSpec {
    dim: 2,
    size: 1025,
    min: 0.0,
    max: 1.0,
};

/// Version 1 of dataset "bench", with a single row: the re-registrations
/// after it carry the rows being timed.
fn registration(domain: &DomainSpec) -> StoreRecord {
    StoreRecord::Register(RegisterRecord {
        seq: 0,
        dataset: "bench".into(),
        domain: domain.clone(),
        budget: PrivacyParams::new(1.0, 1e-6).unwrap(),
        mode: CompositionMode::Basic,
        backend: "projected".into(),
        fingerprint: "r|bench|1x2".into(),
        rows: vec![vec![0.5, 0.5]],
    })
}

/// Re-registration `version` of dataset "bench" with `rows` on `domain`.
fn reregistration(version: u64, domain: &DomainSpec, rows: &[Vec<f64>]) -> StoreRecord {
    StoreRecord::Reregister(ReregisterRecord {
        seq: 0,
        dataset: "bench".into(),
        version,
        domain: domain.clone(),
        backend: "projected".into(),
        fingerprint: format!("r|bench|{REGISTRATION_POINTS}x2|v{version}"),
        rows: rows.to_vec(),
    })
}

fn bench_registration_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_registration_record");
    group.sample_size(20);
    let mut rng = StdRng::seed_from_u64(20);
    let uniform: Vec<Vec<f64>> = (0..REGISTRATION_POINTS)
        .map(|_| vec![rng.gen::<f64>(), rng.gen::<f64>()])
        .collect();
    // Snapped as `GridDomain::snap` does: `min + round((c − min)/step)·step`.
    let step = (ON_GRID_DOMAIN.max - ON_GRID_DOMAIN.min) / (ON_GRID_DOMAIN.size - 1) as f64;
    let snapped: Vec<Vec<f64>> = uniform
        .iter()
        .map(|row| {
            row.iter()
                .map(|&c| ON_GRID_DOMAIN.min + ((c - ON_GRID_DOMAIN.min) / step).round() * step)
                .collect()
        })
        .collect();
    let sets = [
        ("", OFF_GRID_DOMAIN, uniform),
        ("_on_grid", ON_GRID_DOMAIN, snapped),
    ];

    for (suffix, domain, rows) in &sets {
        let dir = scratch_dir(&format!("registration-append{suffix}"));
        let (store, _) = Store::open(StoreConfig::journal_only(dir.join("journal.pcsj"))).unwrap();
        store.append(registration(domain)).unwrap();
        let mut version = 1;
        group.bench_function(format!("append_{REGISTRATION_POINTS}x2{suffix}"), |b| {
            b.iter_batched(
                || {
                    version += 1;
                    reregistration(version, domain, rows)
                },
                |record| store.append(record).unwrap(),
                BatchSize::PerIteration,
            )
        });
        drop(store);
        std::fs::remove_dir_all(&dir).ok();

        let open_dir = scratch_dir(&format!("registration-open{suffix}"));
        let config = StoreConfig::journal_only(open_dir.join("journal.pcsj"));
        {
            let (store, _) = Store::open(config.clone()).unwrap();
            store.append(registration(domain)).unwrap();
            for version in 2..12 {
                store.append(reregistration(version, domain, rows)).unwrap();
            }
        }
        group.bench_function(format!("open_10_records{suffix}"), |b| {
            b.iter(|| {
                let (store, report) = Store::open(config.clone()).unwrap();
                assert_eq!(report.state.reregisters().len(), 10);
                store
            })
        });
        std::fs::remove_dir_all(&open_dir).ok();
    }
    group.finish();
}

/// Charges per timed sample of `accountant_try_charge`.
const CHARGES_PER_SAMPLE: usize = 100;

fn bench_try_charge(c: &mut Criterion) {
    let mut group = c.benchmark_group("accountant_try_charge");
    group.sample_size(20);
    let charge = PrivacyParams::new(1e-4, 1e-12).unwrap();
    // Roomy: every charge is granted, however many came before.
    let budget = PrivacyParams::new(1e6, 0.5).unwrap();
    let modes = [
        ("basic", CompositionMode::Basic),
        ("advanced", CompositionMode::Advanced { delta_prime: 1e-6 }),
    ];
    for (mode_name, mode) in modes {
        for prior in [100usize, 1_000, 10_000, 100_000] {
            let mut prepared = BudgetAccountant::new("bench", budget, mode).unwrap();
            for _ in 0..prior {
                prepared.try_charge(charge).unwrap();
            }
            let mut spent = Vec::with_capacity(64);
            group.bench_function(format!("{mode_name}/{prior}"), |b| {
                b.iter_batched(
                    || prepared.clone(),
                    |mut accountant| {
                        for _ in 0..CHARGES_PER_SAMPLE {
                            accountant.try_charge(charge).unwrap();
                        }
                        spent.push(accountant);
                    },
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_admission, bench_recovery, bench_registration_record, bench_try_charge
}
criterion_main!(benches);
