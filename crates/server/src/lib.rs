//! `privcluster-server` — the serving layer above `privcluster-engine`:
//! per-dataset engine shards behind one wire protocol, admission
//! backpressure, and concurrent TCP serving.
//!
//! The engine enforces the paper's privacy guarantees through one budget
//! ledger per dataset, but a single engine serializes *all* tenants on one
//! registration lock and one journal. This crate routes each dataset to
//! one of N engine **shards** — each shard owns its registration lock,
//! accountants, journal file, and snapshot directory — so load on one hot
//! tenant never serializes another. [`ShardedServer::handle`] is the one
//! place a [`Request`] is dispatched to an engine, whatever the shard
//! count: requests that address one dataset (`register`, `reregister`,
//! `query`, `status`) route by a deterministic hash of the dataset name;
//! `batch` splits per query and reassembles in request order; `list` and
//! `metrics` merge across shards. Every response is encoded by the
//! engine's `protocol` module, and the transcript does not depend on the
//! shard count (`tests/sharded.rs` compares one shard with four).
//!
//! **Backpressure**: each shard bounds its in-flight admissions. At the
//! bound, a request gets a structured `retry` protocol error immediately
//! instead of queueing without limit — the client backs off and retries,
//! and the server's memory stays bounded no matter how many connections
//! pile on. (Per-connection in-flight is bounded at 1 by the protocol
//! itself: a connection's requests are served strictly in order.)
//!
//! Durability is unchanged from the engine: every shard is a write-ahead
//! engine whose store's group-commit writer (see
//! [`GroupCommitConfig`](privcluster_store::GroupCommitConfig)) lets
//! concurrent charges on a shard share batch fsyncs without weakening the
//! charge-before-release invariant.

#![warn(missing_docs)]

pub mod net;

use privcluster_engine::protocol::{
    durability_value, error_json, error_value, ok_value, query_value, status_value,
};
use privcluster_engine::{Engine, EngineError, QueryRequest, Request};
use privcluster_obs::{Counter, Gauge, MetricsRegistry, MetricsSnapshot};
use serde::Value;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Routes a dataset name to a shard index: FNV-1a over the name, reduced
/// modulo the shard count. Deterministic across restarts — a dataset's
/// journal records always land in the same shard's journal, so per-shard
/// recovery sees every record it owns (`serve` refuses a restart with
/// another `--shards`; see the README's "Serving at scale" section).
pub fn shard_of(dataset: &str, shards: usize) -> usize {
    debug_assert!(shards > 0, "shard count must be positive");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in dataset.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards.max(1) as u64) as usize
}

/// A sharded front end over N engines, and the one dispatcher of the wire
/// protocol: every transport and every in-process caller goes through
/// [`ShardedServer::handle`].
#[derive(Debug)]
pub struct ShardedServer {
    shards: Vec<Arc<Engine>>,
    /// Per-shard in-flight admission counts (queries, registrations, and
    /// batch members currently inside a shard).
    inflight: Vec<AtomicUsize>,
    /// Per-shard in-flight bound; `0` disables backpressure.
    max_inflight: usize,
    /// Server-level series (everything that is not per-engine): the
    /// backpressure counter and the per-shard gauges.
    registry: Arc<MetricsRegistry>,
    rejections: Arc<Counter>,
    inflight_gauges: Vec<Arc<Gauge>>,
    queue_gauges: Vec<Arc<Gauge>>,
    /// Per shard: `store_writer_alive`, `store_commit_error` and
    /// `store_snapshot_bytes`.
    health_gauges: Vec<[Arc<Gauge>; 3]>,
}

/// RAII decrement of a shard's in-flight count.
struct InflightGuard<'a> {
    server: &'a ShardedServer,
    shard: usize,
    cost: usize,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.server.inflight[self.shard].fetch_sub(self.cost, Ordering::AcqRel);
    }
}

impl ShardedServer {
    /// Builds the front end over already-opened engine shards (the serve
    /// binary opens one journaled engine per shard; tests pass in-memory
    /// engines). `max_inflight` bounds each shard's concurrent admissions;
    /// `0` means unbounded.
    pub fn new(engines: Vec<Engine>, max_inflight: usize) -> ShardedServer {
        assert!(!engines.is_empty(), "a server needs at least one shard");
        let registry = Arc::new(MetricsRegistry::new());
        let rejections = registry.counter("backpressure_rejections_total");
        let mut inflight_gauges = Vec::with_capacity(engines.len());
        let mut queue_gauges = Vec::with_capacity(engines.len());
        let mut health_gauges = Vec::with_capacity(engines.len());
        for i in 0..engines.len() {
            let label = i.to_string();
            let labels: &[(&str, &str)] = &[("shard", label.as_str())];
            inflight_gauges.push(registry.gauge_with("shard_inflight", labels));
            queue_gauges.push(registry.gauge_with("commit_queue_depth", labels));
            health_gauges.push(
                [
                    "store_writer_alive",
                    "store_commit_error",
                    "store_snapshot_bytes",
                ]
                .map(|name| registry.gauge_with(name, labels)),
            );
        }
        ShardedServer {
            inflight: engines.iter().map(|_| AtomicUsize::new(0)).collect(),
            shards: engines.into_iter().map(Arc::new).collect(),
            max_inflight,
            registry,
            rejections,
            inflight_gauges,
            queue_gauges,
            health_gauges,
        }
    }

    /// The number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The engine shards, in shard order (for startup banners and tests).
    pub fn engines(&self) -> &[Arc<Engine>] {
        &self.shards
    }

    /// Backpressure rejections issued so far.
    pub fn rejections(&self) -> u64 {
        self.rejections.get()
    }

    /// Reserves `cost` admission slots on `shard`, or rejects: over the
    /// bound, the count is restored, the rejection is counted, and the
    /// caller must answer with the `retry` error instead of queueing.
    fn try_admit(&self, shard: usize, cost: usize) -> Option<InflightGuard<'_>> {
        let occupied = self.inflight[shard].fetch_add(cost, Ordering::AcqRel) + cost;
        if self.max_inflight > 0 && occupied > self.max_inflight {
            self.inflight[shard].fetch_sub(cost, Ordering::AcqRel);
            self.rejections.inc();
            return None;
        }
        Some(InflightGuard {
            server: self,
            shard,
            cost,
        })
    }

    fn retry_error(&self, shard: usize) -> Value {
        error_value(
            "retry",
            &format!(
                "shard {shard} admission queue is full ({} in flight); back off and retry",
                self.max_inflight
            ),
        )
    }

    /// Handles one parsed request, returning the response value and
    /// whether a shutdown was requested: the only code that dispatches a
    /// [`Request`] to an engine. Single-dataset ops route to their shard;
    /// `batch` splits per query; `list`/`metrics` merge shards; `shutdown`
    /// acknowledges and stops the serve loop. The request is taken by
    /// value, so a registration's inline rows move into its dataset.
    pub fn handle(&self, request: Request) -> (Value, bool) {
        let response = match request {
            Request::Register(reg) => self.admit(&reg.dataset, |engine| {
                let data = reg.source.materialize(&reg.domain)?;
                let status = engine.register_dataset_with_backend(
                    &reg.dataset,
                    data,
                    reg.domain,
                    reg.budget,
                    reg.mode,
                    reg.backend,
                )?;
                Ok(ok_value(
                    "register",
                    vec![("status", status_value(&status))],
                ))
            }),
            Request::Reregister(rereg) => self.admit(&rereg.dataset, |engine| {
                let data = rereg.source.materialize(&rereg.domain)?;
                let status = engine.reregister_dataset_with_backend(
                    &rereg.dataset,
                    data,
                    rereg.domain,
                    rereg.backend,
                )?;
                Ok(ok_value(
                    "reregister",
                    vec![("status", status_value(&status))],
                ))
            }),
            Request::Query(query) => self.admit(&query.dataset, |engine| {
                Ok(query_value(&query.dataset, &engine.query(&query)))
            }),
            Request::Batch(requests) => self.handle_batch(requests),
            Request::Status { dataset, version } => {
                // Status is a read — it must stay answerable under load, so
                // it bypasses the admission gate.
                let engine = &self.shards[shard_of(&dataset, self.shards.len())];
                let status = match version {
                    Some(version) => engine.status_version(&dataset, version),
                    None => engine.status(&dataset),
                };
                match status {
                    Ok(status) => ok_value(
                        "status",
                        vec![
                            ("status", status_value(&status)),
                            ("durability", durability_value(engine.durability())),
                        ],
                    ),
                    Err(e) => error_json(&e),
                }
            }
            Request::List => {
                let mut names: Vec<String> = self
                    .shards
                    .iter()
                    .flat_map(|shard| shard.dataset_names())
                    .collect();
                // Each shard's list is sorted; the merged list re-sorts so
                // the response is independent of the shard layout.
                names.sort();
                let names = names.into_iter().map(Value::String).collect();
                ok_value("list", vec![("datasets", Value::Array(names))])
            }
            Request::Metrics => ok_value(
                "metrics",
                vec![("metrics", self.metrics_snapshot().to_json_value())],
            ),
            Request::Shutdown => return (ok_value("shutdown", Vec::new()), true),
        };
        (response, false)
    }

    /// Runs a single-dataset admission on `dataset`'s shard under one
    /// admission slot, or answers with the `retry` error when the shard is
    /// full.
    fn admit(
        &self,
        dataset: &str,
        run: impl FnOnce(&Engine) -> Result<Value, EngineError>,
    ) -> Value {
        let shard = shard_of(dataset, self.shards.len());
        match self.try_admit(shard, 1) {
            Some(_guard) => run(&self.shards[shard]).unwrap_or_else(|e| error_json(&e)),
            None => self.retry_error(shard),
        }
    }

    /// Parses and handles one request line (the serve-loop handler).
    pub fn handle_line(&self, line: &str) -> (Value, bool) {
        match Request::parse(line) {
            Ok(request) => self.handle(request),
            Err(e) => (error_json(&e), false),
        }
    }

    /// A batch moves its members into per-shard sub-batches (each
    /// preserving the original relative order), reserves every touched
    /// shard's slots up front — all or nothing, so a saturated shard
    /// rejects the whole batch rather than running half of it — and
    /// encodes each member's result into its request slot. With one shard
    /// the sub-batch is the whole batch.
    fn handle_batch(&self, requests: Vec<QueryRequest>) -> Value {
        let shard_count = self.shards.len();
        let total = requests.len();
        // Each shard's members, moved out of the batch, with their slots.
        let mut by_shard: Vec<(Vec<usize>, Vec<QueryRequest>)> =
            (0..shard_count).map(|_| (Vec::new(), Vec::new())).collect();
        for (slot, request) in requests.into_iter().enumerate() {
            let (slots, members) = &mut by_shard[shard_of(&request.dataset, shard_count)];
            slots.push(slot);
            members.push(request);
        }
        let mut guards = Vec::new();
        for (shard, (_, members)) in by_shard.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            match self.try_admit(shard, members.len()) {
                Some(guard) => guards.push(guard),
                None => return self.retry_error(shard),
            }
        }
        let mut responses = vec![Value::Null; total];
        for (shard, (slots, members)) in by_shard.iter().enumerate() {
            if members.is_empty() {
                continue;
            }
            let results = self.shards[shard].run_batch(members);
            for ((&slot, request), result) in slots.iter().zip(members).zip(&results) {
                responses[slot] = query_value(&request.dataset, result);
            }
        }
        drop(guards);
        ok_value("batch", vec![("responses", Value::Array(responses))])
    }

    /// One merged metrics snapshot: per-shard gauges are refreshed from the
    /// live atomics, engine snapshots merge counter-wise and bucket-wise
    /// (see `MetricsSnapshot::merge`), and the server's own series join
    /// last. Shards merge in index order, so the rendering is
    /// deterministic.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        for (i, engine) in self.shards.iter().enumerate() {
            self.inflight_gauges[i].set(self.inflight[i].load(Ordering::Acquire) as f64);
            self.queue_gauges[i].set(engine.commit_queue_depth() as f64);
            let health = engine.durability_health();
            let [alive, error, bytes] = &self.health_gauges[i];
            alive.set(f64::from(u8::from(health.writer_alive)));
            error.set(f64::from(u8::from(health.commit_error)));
            bytes.set(health.snapshot_bytes as f64);
        }
        let mut merged = self.shards[0].metrics_snapshot();
        for shard in &self.shards[1..] {
            merged.merge(&shard.metrics_snapshot());
        }
        merged.merge(&self.registry.snapshot());
        merged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_routing_is_deterministic_and_in_range() {
        for shards in [1, 2, 4, 7] {
            for name in ["alpha", "bravo", "charlie", "delta", ""] {
                let a = shard_of(name, shards);
                let b = shard_of(name, shards);
                assert_eq!(a, b);
                assert!(a < shards);
            }
        }
        // One shard routes everything to shard 0.
        assert_eq!(shard_of("anything", 1), 0);
        // The reference FNV-1a fold, pinned: a silent change to the hash
        // would re-route datasets away from their journals on restart.
        assert_eq!(shard_of("alpha", 4), {
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in b"alpha" {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
            (h % 4) as usize
        });
    }
}
