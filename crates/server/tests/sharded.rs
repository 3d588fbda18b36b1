//! Sharded-front-end semantics, end to end through the wire protocol:
//!
//! * a multi-shard server produces the *same transcript* as a single
//!   shard on the same request script (routing is an implementation
//!   detail, not a wire-visible one);
//! * backpressure is deterministic: a batch that exceeds a shard's
//!   in-flight bound is rejected whole with a structured `retry` error,
//!   the rejection counter increments, and the shard keeps serving;
//! * the durability-health gauges exist per shard only, so a merged
//!   scrape never shows one shard's state under another's name;
//! * (property) any interleaving of per-dataset query streams, admitted
//!   through a 2-shard journaled server with group commit, recovers to
//!   the same per-dataset ledger state as sequential admission through
//!   one in-memory engine.

use privcluster_engine::{Engine, EngineConfig, GroupCommitConfig, StoreConfig};
use privcluster_server::{shard_of, ShardedServer};
use proptest::prelude::*;
use serde::Value;
use std::path::{Path, PathBuf};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("privcluster-sharded-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn engine_config() -> EngineConfig {
    EngineConfig {
        threads: 2,
        cache_capacity: 16,
        ..EngineConfig::default()
    }
}

fn in_memory_server(shards: usize, max_inflight: usize) -> ShardedServer {
    let engines = (0..shards).map(|_| Engine::new(engine_config())).collect();
    ShardedServer::new(engines, max_inflight)
}

/// A journaled server whose shard `i` journals to `journal-shard<i>.pcsj`
/// under `dir` — the same layout for open and reopen, so recovery is
/// exercised per shard.
fn journaled_server(
    dir: &Path,
    shards: usize,
    group_commit: Option<GroupCommitConfig>,
) -> ShardedServer {
    let engines = (0..shards)
        .map(|i| {
            let mut config = StoreConfig::journal_only(dir.join(format!("journal-shard{i}.pcsj")));
            config.group_commit = group_commit;
            Engine::open(engine_config(), config).expect("open journaled shard")
        })
        .collect();
    ShardedServer::new(engines, 0)
}

fn register_line(dataset: &str, epsilon: f64) -> String {
    format!(
        "{{\"op\":\"register\",\"dataset\":\"{dataset}\",\"domain\":{{\"dim\":2,\"size\":1024}},\
         \"budget\":{{\"epsilon\":{epsilon},\"delta\":0.0001}},\"composition\":\"basic\",\
         \"synthetic\":{{\"kind\":\"planted_ball\",\"n\":64,\"cluster_size\":32,\
         \"cluster_radius\":0.05,\"seed\":11}}}}"
    )
}

fn query_line(dataset: &str, seed: u64) -> String {
    format!(
        "{{\"op\":\"query\",\"dataset\":\"{dataset}\",\"seed\":{seed},\"epsilon\":0.1,\
         \"delta\":1e-9,\"query\":{{\"type\":\"good_radius\",\"t\":16,\"beta\":0.1}}}}"
    )
}

fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn respond(server: &ShardedServer, line: &str) -> Value {
    let (value, _) = server.handle_line(line);
    value
}

#[test]
fn multi_shard_transcript_matches_single_shard() {
    let datasets = ["alpha", "bravo", "charlie", "delta", "echo"];
    let mut script: Vec<String> = datasets
        .iter()
        .map(|name| register_line(name, 4.0))
        .collect();
    for (i, name) in datasets.iter().enumerate() {
        script.push(query_line(name, 100 + i as u64));
        script.push(query_line(name, 200 + i as u64));
    }
    // A replayed query (same fingerprint) must be cached on both layouts.
    script.push(query_line("alpha", 100));
    script.push("{\"op\":\"status\",\"dataset\":\"charlie\"}".to_string());
    // A batch spanning every dataset, with a member on an unregistered one
    // in the middle: split/reassembly must preserve request order, and
    // the refused member's error must land in its own slot among released
    // results from other shards. The members are `good_radius` at t = 16,
    // which the singles above release, so the two layouts are compared on
    // released values.
    let mut members: Vec<String> = datasets
        .iter()
        .enumerate()
        .map(|(i, name)| {
            format!(
                "{{\"dataset\":\"{name}\",\"seed\":{},\"epsilon\":0.1,\"delta\":1e-9,\
                 \"query\":{{\"type\":\"good_radius\",\"t\":16,\"beta\":0.1}}}}",
                300 + i as u64
            )
        })
        .collect();
    members.insert(
        2,
        "{\"dataset\":\"ghost\",\"seed\":1,\"epsilon\":0.1,\"delta\":1e-9,\
         \"query\":{\"type\":\"good_radius\",\"t\":16,\"beta\":0.1}}"
            .to_string(),
    );
    script.push(format!(
        "{{\"op\":\"batch\",\"requests\":[{}]}}",
        members.join(",")
    ));
    script.push("{\"op\":\"list\"}".to_string());
    script.push("{\"op\":\"status\",\"dataset\":\"echo\",\"version\":1}".to_string());

    let single = in_memory_server(1, 0);
    let sharded = in_memory_server(4, 0);
    for line in &script {
        let a = serde_json::to_string(&respond(&single, line)).unwrap();
        let b = serde_json::to_string(&respond(&sharded, line)).unwrap();
        assert_eq!(a, b, "transcript diverged on request: {line}");
        if line.contains("\"op\":\"batch\"") {
            // The ghost member, and only it, is refused as unknown; every
            // other member was admitted on its own shard and released a
            // result.
            let batch: Value = serde_json::from_str(&a).unwrap();
            let slots = get(&batch, "responses").and_then(Value::as_array).unwrap();
            let unknown: Vec<bool> = slots
                .iter()
                .map(|slot| {
                    let slot = serde_json::to_string(slot).unwrap();
                    slot.contains("\"kind\":\"unknown_dataset\"")
                })
                .collect();
            assert_eq!(unknown, [false, false, true, false, false, false], "{a}");
            for (i, slot) in slots.iter().enumerate().filter(|&(i, _)| i != 2) {
                assert_eq!(get(slot, "ok"), Some(&Value::Bool(true)), "slot {i}: {a}");
                assert!(get(slot, "result").is_some(), "slot {i}: {a}");
            }
        }
    }
}

#[test]
fn overloaded_shard_rejects_with_retry_and_keeps_serving() {
    let server = in_memory_server(1, 2);
    let registered = respond(&server, &register_line("alpha", 8.0));
    assert_eq!(get(&registered, "ok"), Some(&Value::Bool(true)));

    // A batch of 3 needs 3 slots on the (only) shard; the bound is 2, so
    // the whole batch is rejected — all or nothing, never half a batch.
    let members: Vec<String> = (0..3)
        .map(|i| {
            format!(
                "{{\"dataset\":\"alpha\",\"seed\":{i},\"epsilon\":0.1,\"delta\":1e-9,\
                 \"query\":{{\"type\":\"good_radius\",\"t\":16,\"beta\":0.1}}}}"
            )
        })
        .collect();
    let overload = format!("{{\"op\":\"batch\",\"requests\":[{}]}}", members.join(","));
    let rejected = respond(&server, &overload);
    assert_eq!(get(&rejected, "ok"), Some(&Value::Bool(false)));
    assert_eq!(
        get(&rejected, "error")
            .and_then(|e| get(e, "kind"))
            .and_then(Value::as_str),
        Some("retry"),
        "{rejected:?}"
    );
    assert_eq!(server.rejections(), 1);

    // The rejection released its reservation: a within-bound batch and a
    // plain query both still succeed, and no budget was charged for the
    // rejected batch.
    let within = format!(
        "{{\"op\":\"batch\",\"requests\":[{}]}}",
        members[..2].join(",")
    );
    let accepted = respond(&server, &within);
    assert_eq!(
        get(&accepted, "ok"),
        Some(&Value::Bool(true)),
        "{accepted:?}"
    );
    let query = respond(&server, &query_line("alpha", 7));
    assert_eq!(get(&query, "ok"), Some(&Value::Bool(true)), "{query:?}");
    let status = respond(&server, "{\"op\":\"status\",\"dataset\":\"alpha\"}");
    let granted = get(&status, "status")
        .and_then(|s| get(s, "granted"))
        .and_then(Value::as_f64);
    assert_eq!(granted, Some(3.0), "2 batch members + 1 query, not 6");
    assert_eq!(server.rejections(), 1, "successes count no rejections");
}

#[test]
fn durability_gauges_carry_their_shard() {
    let dir = scratch_dir("health-gauges");
    let engines = (0..2)
        .map(|i| {
            let mut config = StoreConfig::journal_only(dir.join(format!("journal-shard{i}.pcsj")));
            config.snapshot_dir = Some(dir.join(format!("snapshots-shard{i}")));
            Engine::open(engine_config(), config).expect("open journaled shard")
        })
        .collect();
    let server = ShardedServer::new(engines, 0);
    // Only shard 0 holds a snapshot.
    let name = (0..)
        .map(|i| format!("d{i}"))
        .find(|name| shard_of(name, 2) == 0)
        .unwrap();
    let registered = respond(&server, &register_line(&name, 1.0));
    assert_eq!(get(&registered, "ok"), Some(&Value::Bool(true)));
    server.engines()[0]
        .snapshot_now()
        .unwrap()
        .expect("snapshot dir is set");
    let bytes = server.engines()[0].durability_health().snapshot_bytes;
    assert!(bytes > 0);

    let metrics = server.metrics_snapshot();
    assert_eq!(
        metrics.gauge("store_snapshot_bytes{shard=\"0\"}"),
        Some(bytes as f64)
    );
    assert_eq!(
        metrics.gauge("store_snapshot_bytes{shard=\"1\"}"),
        Some(0.0)
    );
    // An unlabelled copy merged from both shards would read the last
    // shard's state, whichever shard it describes.
    for gauge in [
        "store_snapshot_bytes",
        "store_writer_alive",
        "store_commit_error",
        "commit_queue_depth",
    ] {
        assert_eq!(metrics.gauge(gauge), None, "unlabelled `{gauge}`");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The per-dataset `status` object (budget, spend, grant/refusal counts) —
/// everything ledger-visible, nothing layout-visible.
fn status_object(server: &ShardedServer, dataset: &str) -> String {
    let response = respond(
        server,
        &format!("{{\"op\":\"status\",\"dataset\":\"{dataset}\"}}"),
    );
    let status = get(&response, "status").unwrap_or(&Value::Null);
    serde_json::to_string(status).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6 })]

    /// Interleaved multi-shard admission with group commit journals the
    /// same per-dataset ledger state as sequential single-engine
    /// admission — and recovery reproduces it bit-for-bit.
    #[test]
    fn interleaved_sharded_journal_replays_to_sequential_ledger_state(
        seeds_a in prop::collection::vec(0u64..1000, 1..5),
        seeds_b in prop::collection::vec(0u64..1000, 1..5),
        picks in prop::collection::vec(0.0f64..1.0, 0..8),
    ) {
        // The two datasets must route to different shards, or no history
        // crosses shards.
        prop_assert_ne!(shard_of("alpha", 2), shard_of("echo", 2));
        let take_a: Vec<bool> = picks.iter().map(|&p| p < 0.5).collect();
        // Merge the two per-dataset streams under the proptest-chosen
        // pattern (then drain whichever remains).
        let mut lines = Vec::new();
        let (mut a, mut b) = (seeds_a.iter(), seeds_b.iter());
        for &pick_a in &take_a {
            let next = if pick_a {
                a.next().map(|s| ("alpha", s))
            } else {
                b.next().map(|s| ("echo", s))
            };
            if let Some((dataset, &seed)) = next {
                lines.push(query_line(dataset, seed));
            }
        }
        lines.extend(a.map(|&s| query_line("alpha", s)));
        lines.extend(b.map(|&s| query_line("echo", s)));

        let dir = scratch_dir("proptest");
        {
            let sharded = journaled_server(&dir, 2, Some(GroupCommitConfig {
                max_batch: 8,
                max_wait_us: 0,
            }));
            for dataset in ["alpha", "echo"] {
                let registered = respond(&sharded, &register_line(dataset, 2.0));
                prop_assert_eq!(get(&registered, "ok"), Some(&Value::Bool(true)));
            }
            for line in &lines {
                respond(&sharded, line);
            }
            // Dropping the server drops the engines, joining every
            // shard's group-commit writer.
        }

        let sequential = in_memory_server(1, 0);
        respond(&sequential, &register_line("alpha", 2.0));
        respond(&sequential, &register_line("echo", 2.0));
        for line in &lines {
            respond(&sequential, line);
        }

        let recovered = journaled_server(&dir, 2, None);
        for dataset in ["alpha", "echo"] {
            let recovered_status = status_object(&recovered, dataset);
            let sequential_status = status_object(&sequential, dataset);
            prop_assert_eq!(recovered_status, sequential_status);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
