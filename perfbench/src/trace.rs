//! The traced in-process run (`--trace 1`).
//!
//! Tracing is never on while end-to-end metrics are taken: this run comes
//! after the TCP run and replays the same requests, in the order the TCP
//! run sent them, through five in-process passes, timing calls into the
//! public functions of each layer from the outside:
//!
//! * A — `ShardedServer::handle_line` on shards opened with `Engine::open`
//!   and the workload's store config (and `Request::parse` on its own);
//! * B — `Engine::query`, `Engine::run_batch` and
//!   `Engine::reregister_dataset_with_backend` on a fresh identical stack,
//!   plus cold batches on in-memory engines with pools of 1 and 2;
//! * C — the same record stream through `Store::append_deferred`,
//!   `PendingCommit::wait` and `Store::append`;
//! * D — geometry builds and the first `l_profile(cap)` per version;
//! * E — `plan` + `Plan::execute` per query on prebuilt, warm backends.
//!
//! Every call is a span (name, start, end, parent, request id). Spans of
//! one request link across passes: the engine call's parent is the
//! request's `handle_line` span, and store, geometry and core spans hang
//! off the engine call. A layer's self time is its span minus its
//! children; what the directly timed calls (parse, store, geometry, core)
//! leave of each request's `handle_line` span is its unattributed
//! remainder. Spans and per-request remainders are written to
//! `.bench_trace/<workload>.jsonl` when the run ends.

use crate::gen::{Class, Inputs, Op};
use crate::service::{self, TcpRun};
use crate::stats::median;
use crate::Metric;
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_engine::protocol::{DataSource, Request};
use privcluster_engine::{
    plan, registration_fingerprint, versioned_query_fingerprint,
    versioned_registration_fingerprint, DatasetEntry, Engine, EngineConfig, GroupCommitConfig,
    QueryRequest, StoreConfig,
};
use privcluster_geometry::{
    BackendKind, Dataset, DistanceMatrix, GeometryBackend, GeometryIndex, GridDomain,
    ProjectedBackend, ProjectedConfig,
};
use privcluster_server::{shard_of, ShardedServer};
use privcluster_store::{
    ChargeRecord, DomainSpec, RegisterRecord, ReleaseRecord, ReregisterRecord, Store, StoreRecord,
};
use serde::{Serialize, Value};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Cold batches re-run on pools of 1 and 2 threads.
const BATCH_PROBES: usize = 5;
/// Repetitions of the `Store::open` and `Store::snapshot_now` timings.
const STORE_REPEATS: usize = 3;

pub struct Traced {
    pub metrics: Vec<Metric>,
    pub violations: Vec<String>,
}

struct Span {
    parent: Option<usize>,
    request: usize,
    pass: char,
    name: &'static str,
    start: f64,
    end: f64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn time<T>(
        &mut self,
        pass: char,
        name: &'static str,
        request: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = self.epoch.elapsed().as_secs_f64();
        let out = f();
        let end = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            parent,
            request,
            pass,
            name,
            start,
            end,
        });
        (out, self.spans.len() - 1)
    }

    fn ms(&self, span: usize) -> f64 {
        (self.spans[span].end - self.spans[span].start) * 1e3
    }
}

/// One request of the replayed stream, parsed once.
struct Req<'a> {
    op: &'a Op,
    /// The parsed request; a registration's rows live in `creates` instead.
    request: Request,
    /// The dataset version a `register` or `reregister` creates.
    creates: Option<Arc<Version>>,
    /// Each query's dataset version at this point of the stream, in request
    /// order (what the engine resolves an unpinned query to).
    targets: Vec<Arc<Version>>,
    timed: bool,
    /// The TCP latency (timed requests only), in ms.
    tcp_ms: Option<f64>,
    /// The TCP answer.
    tcp_answer: &'a str,
}

/// Per-request timings (ms), summed over the spans of each kind.
#[derive(Default, Clone)]
struct Cost {
    handle: f64,
    handle_span: usize,
    parse: f64,
    engine: f64,
    engine_span: Option<usize>,
    store: f64,
    store_register: f64,
    geometry: f64,
    geometry_build: f64,
    core: f64,
}

/// One version of a dataset: what the stream registered, and what it
/// inherits (budget and composition come from the original registration).
struct Version {
    name: String,
    number: u64,
    domain: GridDomain,
    budget: PrivacyParams,
    mode: CompositionMode,
    rows: Vec<Vec<f64>>,
}

impl Version {
    /// The backend the served engine builds for this version.
    fn kind(&self) -> BackendKind {
        if self.rows.len() <= EngineConfig::default().exact_backend_max_points {
            BackendKind::Exact
        } else {
            BackendKind::Projected
        }
    }

    fn data(&self) -> Result<Dataset, String> {
        Dataset::from_rows(self.rows.clone()).map_err(|e| e.to_string())
    }
}

fn engine_config(threads: usize) -> EngineConfig {
    EngineConfig {
        threads,
        ..EngineConfig::default()
    }
}

/// Shard `shard`'s store config under `dir`, named as `serve` names it.
fn store_config(inputs: &Inputs, dir: &Path, shard: usize) -> StoreConfig {
    let shards = inputs.spec.shards;
    let journal = if shards == 1 {
        dir.join("journal.pcsj")
    } else {
        dir.join(format!("journal-shard{shard}.pcsj"))
    };
    let mut config = StoreConfig::journal_only(journal);
    if inputs.spec.snapshots {
        let snapshots = dir.join("snapshots");
        config.snapshot_dir = Some(if shards == 1 {
            snapshots
        } else {
            snapshots.join(format!("shard{shard}"))
        });
    }
    config.snapshot_every = 1024;
    config.group_commit = Some(GroupCommitConfig {
        max_batch: 64,
        max_wait_us: 0,
    });
    config.max_retained_releases = EngineConfig::default().cache_capacity;
    config
}

fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Moves a registration's inline rows out of its parsed request.
fn take_rows(source: &mut DataSource) -> Result<Vec<Vec<f64>>, String> {
    match std::mem::replace(source, DataSource::Points(Vec::new())) {
        DataSource::Points(rows) => Ok(rows),
        DataSource::Synthetic(_) => Err("the benchmark sends inline points only".into()),
    }
}

/// One request of the stream before parsing: its op, whether it was
/// timed, its TCP latency in ms, and its TCP answer.
type Sent<'a> = (&'a Op, bool, Option<f64>, &'a str);

/// Parses the stream once, attaching to each request the dataset versions
/// it creates or queries.
fn replayed(stream: Vec<Sent<'_>>) -> Result<Vec<Req<'_>>, String> {
    let mut current: HashMap<String, Arc<Version>> = HashMap::new();
    let mut reqs = Vec::with_capacity(stream.len());
    for (op, timed, tcp_ms, tcp_answer) in stream {
        let mut request = Request::parse(&op.line).map_err(|e| e.to_string())?;
        let mut creates = None;
        let queried: Vec<String> = match &mut request {
            Request::Register(r) => {
                creates = Some(Version {
                    name: r.dataset.clone(),
                    number: 1,
                    domain: r.domain.clone(),
                    budget: r.budget,
                    mode: r.mode,
                    rows: take_rows(&mut r.source)?,
                });
                Vec::new()
            }
            Request::Reregister(r) => {
                let previous = current.get(&r.dataset).ok_or("unregistered dataset")?;
                creates = Some(Version {
                    name: r.dataset.clone(),
                    number: previous.number + 1,
                    domain: r.domain.clone(),
                    budget: previous.budget,
                    mode: previous.mode,
                    rows: take_rows(&mut r.source)?,
                });
                Vec::new()
            }
            Request::Query(q) => vec![q.dataset.clone()],
            Request::Batch(queries) => queries.iter().map(|q| q.dataset.clone()).collect(),
            _ => Vec::new(),
        };
        let targets = queried
            .iter()
            .map(|name| current.get(name).cloned().ok_or("unregistered dataset"))
            .collect::<Result<Vec<_>, _>>()?;
        let creates = creates.map(Arc::new);
        if let Some(version) = &creates {
            current.insert(version.name.clone(), Arc::clone(version));
        }
        reqs.push(Req {
            op,
            request,
            creates,
            targets,
            timed,
            tcp_ms,
            tcp_answer,
        });
    }
    Ok(reqs)
}

/// The released values of an answer: one per query it carries.
fn released_values(answer: &Value) -> Vec<Option<String>> {
    let items = service::members(answer);
    if items.is_empty() {
        vec![service::released(answer)]
    } else {
        items.iter().map(service::released).collect()
    }
}

fn median_or_zero(samples: &[f64]) -> f64 {
    median(samples).unwrap_or(0.0)
}

pub fn run(
    inputs: &Inputs,
    tcp: &TcpRun,
    work: &Path,
    root: &Path,
    seed: u64,
) -> Result<Traced, String> {
    // The replayed stream: set-up requests, then the timed requests in the
    // order the TCP run sent them.
    let mut stream: Vec<Sent> = inputs
        .registers
        .iter()
        .chain(&inputs.warmup)
        .zip(&tcp.setup_responses)
        .map(|(op, answer)| (op, false, None, answer.as_str()))
        .collect();
    let mut timed: Vec<(f64, usize, usize)> = Vec::new();
    for (c, samples) in tcp.samples.iter().enumerate() {
        for (i, s) in samples.iter().enumerate() {
            timed.push((s.sent, c, i));
        }
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    for (_, c, i) in timed {
        let sample = &tcp.samples[c][i];
        stream.push((
            &inputs.conns[c][i],
            true,
            Some(sample.latency * 1e3),
            &sample.response,
        ));
    }
    let reqs = replayed(stream)?;

    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let mut costs = vec![Cost::default(); reqs.len()];
    let mut violations = Vec::new();
    let mut metrics = Vec::new();
    let mut metric = |name: &'static str, value: f64, unit: &'static str| {
        metrics.push(Metric { name, value, unit });
    };

    let a = pass_a(
        inputs,
        &reqs,
        work,
        &mut tracer,
        &mut costs,
        &mut violations,
    )?;
    let b = pass_b(inputs, &reqs, work, &mut tracer, &mut costs)?;
    let c = pass_c(
        inputs,
        &reqs,
        &a.answers,
        work,
        tcp,
        &mut tracer,
        &mut costs,
    )?;
    let d = pass_d(&reqs, &mut tracer, &mut costs)?;
    let e = pass_e(
        inputs,
        &reqs,
        &a.answers,
        &mut tracer,
        &mut costs,
        &mut violations,
    )?;

    // Per-class samples of the timed requests.
    let mut single_tcp = Vec::new();
    let mut single_handle = Vec::new();
    let mut server_self = Vec::new();
    let mut parse_single = Vec::new();
    let mut parse_register = Vec::new();
    let mut admit_self = Vec::new();
    let mut cache_hit = Vec::new();
    let mut register_self = Vec::new();
    let mut unattributed_single = Vec::new();
    let (mut unattributed_total, mut root_total) = (0.0, 0.0);
    let mut summaries = String::new();
    for (id, (req, cost)) in reqs.iter().zip(&costs).enumerate() {
        let attributed = cost.parse + cost.store + cost.geometry + cost.core;
        let unattributed = cost.handle - attributed;
        if !req.timed {
            continue;
        }
        writeln!(
            summaries,
            "{{\"request\":{id},\"class\":\"{:?}\",\"tcp_ms\":{},\"root_ms\":{},\"attributed_ms\":{attributed},\"unattributed_ms\":{unattributed}}}",
            req.op.class,
            req.tcp_ms.unwrap_or(0.0),
            cost.handle
        )
        .expect("write to String");
        unattributed_total += unattributed;
        root_total += cost.handle;
        match req.op.class {
            Class::Query | Class::Replay => {
                single_tcp.push(req.tcp_ms.unwrap_or(0.0));
                single_handle.push(cost.handle);
                server_self.push(cost.handle - cost.engine);
                parse_single.push(cost.parse);
                unattributed_single.push(unattributed);
                if req.op.class == Class::Replay {
                    cache_hit.push(cost.engine);
                } else {
                    admit_self.push(cost.engine - cost.store - cost.core);
                }
            }
            Class::Reregister => {
                parse_register.push(cost.parse);
                register_self.push(cost.engine - cost.geometry_build - cost.store_register);
            }
            Class::Batch => {}
        }
    }

    metric("server.self_p50_ms", median_or_zero(&server_self), "ms");
    metric("server.retries", tcp.retries as f64, "count");
    metric(
        "net.overhead_p50_ms",
        median_or_zero(&single_tcp) - median_or_zero(&single_handle),
        "ms",
    );
    metric("engine.parse_p50_ms", median_or_zero(&parse_single), "ms");
    metric(
        "engine.parse_register_p50_ms",
        median_or_zero(&parse_register),
        "ms",
    );
    metric(
        "engine.admit_self_p50_ms",
        median_or_zero(&admit_self),
        "ms",
    );
    metric("engine.cache_hit_p50_ms", median_or_zero(&cache_hit), "ms");
    metric(
        "engine.cache_hit_ratio",
        if b.replays == 0 {
            0.0
        } else {
            b.uncharged_replays as f64 / b.replays as f64
        },
        "ratio",
    );
    metric("engine.batch_1t_ms", median_or_zero(&b.batch_1t), "ms");
    metric("engine.batch_2t_ms", median_or_zero(&b.batch_2t), "ms");
    metric(
        "engine.register_self_ms",
        median_or_zero(&register_self),
        "ms",
    );
    metric("store.append_p50_ms", median_or_zero(&c.append), "ms");
    metric("store.commit_wait_p50_ms", median_or_zero(&c.wait), "ms");
    metric(
        "store.fsyncs_per_charge",
        a.fsyncs
            .map_or(-1.0, |f| f as f64 / a.charges.max(1) as f64),
        "ratio",
    );
    metric(
        "store.bytes_per_query",
        a.disk_bytes as f64 / a.charges.max(1) as f64,
        "B",
    );
    metric("store.snapshot_ms", c.snapshot_ms, "ms");
    metric(
        "store.register_append_ms",
        median_or_zero(&c.register_append),
        "ms",
    );
    metric("store.open_s", c.open_s, "s");
    metric("geometry.matrix_build_ms", median_or_zero(&d.matrix), "ms");
    metric(
        "geometry.profile_build_ms",
        median_or_zero(&d.profile),
        "ms",
    );
    metric(
        "geometry.profile_breakpoints",
        median_or_zero(&d.breakpoints),
        "count",
    );
    metric(
        "geometry.projected_build_ms",
        median_or_zero(&d.projected),
        "ms",
    );
    metric(
        "geometry.projected_profile_ms",
        median_or_zero(&d.projected_profile),
        "ms",
    );
    metric(
        "core.good_radius_p50_ms",
        median_or_zero(&e.good_radius),
        "ms",
    );
    metric("core.failures", e.failures as f64, "count");
    metric(
        "trace.unattributed_p50_ms",
        median_or_zero(&unattributed_single),
        "ms",
    );
    metric(
        "trace.unattributed_share",
        if root_total > 0.0 {
            unattributed_total / root_total
        } else {
            0.0
        },
        "ratio",
    );

    write_trace(inputs, root, seed, &tracer, &summaries)?;
    Ok(Traced {
        metrics,
        violations,
    })
}

struct PassA {
    /// Each request's answer.
    answers: Vec<Value>,
    /// Group-commit fsyncs the engines' store observers counted.
    fsyncs: Option<u64>,
    /// Queries admitted (charged).
    charges: u64,
    disk_bytes: u64,
}

/// Pass A: the sharded front end, sequentially, over the whole stream.
/// Also checks bit-identity: every value the TCP run released must equal
/// the one this sequential replay releases.
fn pass_a(
    inputs: &Inputs,
    reqs: &[Req],
    work: &Path,
    tracer: &mut Tracer,
    costs: &mut [Cost],
    violations: &mut Vec<String>,
) -> Result<PassA, String> {
    let dir = fresh_dir(work, "traceA")?;
    let engines = (0..inputs.spec.shards)
        .map(|s| Engine::open(engine_config(2), store_config(inputs, &dir, s)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let server = ShardedServer::new(engines, inputs.spec.max_inflight.unwrap_or(0));
    let mut answers = Vec::with_capacity(reqs.len());
    let mut charges = 0;
    let mut mismatches = 0;
    for (id, req) in reqs.iter().enumerate() {
        let line = req.op.line.as_str();
        let (_, parse_span) = tracer.time('A', "engine.parse", id, None, || Request::parse(line));
        let ((answer, _), handle_span) = tracer.time('A', "server.handle_line", id, None, || {
            server.handle_line(line)
        });
        tracer.spans[parse_span].parent = Some(handle_span);
        costs[id].parse = tracer.ms(parse_span);
        costs[id].handle = tracer.ms(handle_span);
        costs[id].handle_span = handle_span;
        if req.op.class != Class::Reregister {
            let tcp = service::parse(req.tcp_answer)?;
            if released_values(&tcp) != released_values(&answer) {
                mismatches += 1;
                if mismatches <= 3 {
                    eprintln!(
                        "{:?} released {:?} over TCP but {:?} in the sequential replay",
                        req.op.class,
                        released_values(&tcp),
                        released_values(&answer)
                    );
                }
            }
        }
        for item in service::members(&answer).iter().chain([&answer]) {
            if matches!(service::field(item, "charged"), Some(Value::Object(_))) {
                charges += 1;
            }
        }
        answers.push(answer);
    }
    if mismatches > 0 {
        violations.push(format!(
            "{mismatches} answers released over TCP differ from the sequential in-process replay"
        ));
    }
    let snapshot = server.metrics_snapshot().to_json_value();
    let fsyncs = service::field(&snapshot, "histograms")
        .and_then(|h| service::field(h, "group_commit_batch_size"))
        .and_then(|h| service::field(h, "count"))
        .and_then(Value::as_f64)
        .map(|c| c as u64);
    drop(server);
    Ok(PassA {
        answers,
        fsyncs,
        charges,
        disk_bytes: crate::tcp::dir_bytes(&dir),
    })
}

struct PassB {
    replays: u64,
    uncharged_replays: u64,
    batch_1t: Vec<f64>,
    batch_2t: Vec<f64>,
}

/// Pass B: the engine calls the front end makes, on a fresh identical
/// stack; then the first few timed batches again, cold, on in-memory
/// engines with pools of 1 and 2 threads.
fn pass_b(
    inputs: &Inputs,
    reqs: &[Req],
    work: &Path,
    tracer: &mut Tracer,
    costs: &mut [Cost],
) -> Result<PassB, String> {
    let dir = fresh_dir(work, "traceB")?;
    let shards = inputs.spec.shards;
    let engines = (0..shards)
        .map(|s| Engine::open(engine_config(2), store_config(inputs, &dir, s)))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let mut out = PassB {
        replays: 0,
        uncharged_replays: 0,
        batch_1t: Vec::new(),
        batch_2t: Vec::new(),
    };
    let mut probes = 0;
    for (id, req) in reqs.iter().enumerate() {
        let parent = Some(costs[id].handle_span);
        let (ms, span) = match (&req.request, &req.creates) {
            (Request::Register(r), Some(v)) => {
                let data = v.data()?;
                let engine = &engines[shard_of(&v.name, shards)];
                let (result, span) = tracer.time('B', "engine.register", id, parent, || {
                    engine.register_dataset_with_backend(
                        v.name.clone(),
                        data,
                        v.domain.clone(),
                        v.budget,
                        v.mode,
                        r.backend,
                    )
                });
                result.map_err(|e| e.to_string())?;
                (tracer.ms(span), span)
            }
            (Request::Reregister(r), Some(v)) => {
                let data = v.data()?;
                let engine = &engines[shard_of(&v.name, shards)];
                let (result, span) = tracer.time('B', "engine.reregister", id, parent, || {
                    engine.reregister_dataset_with_backend(
                        v.name.clone(),
                        data,
                        v.domain.clone(),
                        r.backend,
                    )
                });
                result.map_err(|e| e.to_string())?;
                (tracer.ms(span), span)
            }
            (Request::Query(q), _) => {
                let engine = &engines[shard_of(&q.dataset, shards)];
                let (result, span) =
                    tracer.time('B', "engine.query", id, parent, || engine.query(q));
                if req.op.class == Class::Replay {
                    out.replays += 1;
                    if matches!(&result, Ok(r) if r.cached && r.charged.is_none()) {
                        out.uncharged_replays += 1;
                    }
                }
                (tracer.ms(span), span)
            }
            (Request::Batch(queries), _) => {
                // Split per shard, preserving order, as the front end does.
                let mut total = 0.0;
                let mut last = None;
                for (s, engine) in engines.iter().enumerate() {
                    let subset: Vec<QueryRequest> = queries
                        .iter()
                        .filter(|q| shard_of(&q.dataset, shards) == s)
                        .cloned()
                        .collect();
                    if subset.is_empty() {
                        continue;
                    }
                    let (_, span) = tracer.time('B', "engine.run_batch", id, parent, || {
                        engine.run_batch(&subset)
                    });
                    total += tracer.ms(span);
                    last = Some(span);
                }
                if req.timed && probes < BATCH_PROBES {
                    probes += 1;
                    out.batch_1t
                        .push(cold_batch(queries, &req.targets, 1, id, parent, tracer)?);
                    out.batch_2t
                        .push(cold_batch(queries, &req.targets, 2, id, parent, tracer)?);
                }
                (total, last.ok_or("empty batch")?)
            }
            _ => continue,
        };
        costs[id].engine = ms;
        costs[id].engine_span = Some(span);
    }
    Ok(out)
}

/// Times `Engine::run_batch` of `queries` on a fresh in-memory engine with
/// a pool of `threads`, holding the queried versions (`targets`): the batch
/// builds every profile it needs (cold).
fn cold_batch(
    queries: &[QueryRequest],
    targets: &[Arc<Version>],
    threads: usize,
    id: usize,
    parent: Option<usize>,
    tracer: &mut Tracer,
) -> Result<f64, String> {
    let engine = Engine::new(engine_config(threads));
    let mut registered = HashSet::new();
    for v in targets {
        if registered.insert(v.name.as_str()) {
            engine
                .register_dataset(&v.name, v.data()?, v.domain.clone(), v.budget, v.mode)
                .map_err(|e| e.to_string())?;
        }
    }
    let name = if threads == 1 {
        "engine.batch_1t"
    } else {
        "engine.batch_2t"
    };
    let (_, span) = tracer.time('B', name, id, parent, || engine.run_batch(queries));
    Ok(tracer.ms(span))
}

struct PassC {
    append: Vec<f64>,
    wait: Vec<f64>,
    register_append: Vec<f64>,
    snapshot_ms: f64,
    open_s: f64,
}

/// Pass C: the write-ahead record stream the engine produces, straight
/// into fresh stores; then `Store::snapshot_now` on the end state and
/// `Store::open` on the TCP run's journal and snapshots.
fn pass_c(
    inputs: &Inputs,
    reqs: &[Req],
    answers: &[Value],
    work: &Path,
    tcp: &TcpRun,
    tracer: &mut Tracer,
    costs: &mut [Cost],
) -> Result<PassC, String> {
    let dir = fresh_dir(work, "traceC")?;
    let shards = inputs.spec.shards;
    let open = |dir: &Path, snapshot_dir: Option<PathBuf>| {
        (0..shards)
            .map(|s| {
                let mut config = store_config(inputs, dir, s);
                if let Some(snapshots) = &snapshot_dir {
                    config.snapshot_dir = Some(
                        config
                            .snapshot_dir
                            .unwrap_or(snapshots.join(format!("shard{s}"))),
                    );
                    config.snapshot_every = 0;
                }
                Store::open(config).map(|(store, _)| store)
            })
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())
    };
    let stores = open(&dir, None)?;
    let mut out = PassC {
        append: Vec::new(),
        wait: Vec::new(),
        register_append: Vec::new(),
        snapshot_ms: 0.0,
        open_s: 0.0,
    };
    for (id, req) in reqs.iter().enumerate() {
        let parent = costs[id].engine_span;
        costs[id].store = match (&req.request, &req.creates) {
            (_, Some(v)) => {
                let record = registration_record(v)?;
                let store = &stores[shard_of(&v.name, shards)];
                let (result, span) = tracer.time('C', "store.append_register", id, parent, || {
                    store.append(record)
                });
                result.map_err(|e| e.to_string())?;
                costs[id].store_register = tracer.ms(span);
                if req.timed {
                    out.register_append.push(tracer.ms(span));
                }
                tracer.ms(span)
            }
            (Request::Query(q), None) if req.op.class != Class::Replay => charge_and_release(
                std::slice::from_ref(q),
                req,
                &answers[id],
                &stores,
                shards,
                id,
                parent,
                tracer,
                &mut out,
            )?,
            (Request::Batch(queries), None) => charge_and_release(
                queries,
                req,
                &answers[id],
                &stores,
                shards,
                id,
                parent,
                tracer,
                &mut out,
            )?,
            _ => 0.0,
        };
    }
    drop(stores);

    // Snapshot the end state, into a fresh directory where the workload
    // itself keeps none; the median of a few.
    let mut snapshot = Vec::new();
    let stores = open(&dir, Some(dir.join("snapC")))?;
    for _ in 0..STORE_REPEATS {
        let clock = Instant::now();
        for store in &stores {
            store.snapshot_now().map_err(|e| e.to_string())?;
        }
        snapshot.push(clock.elapsed().as_secs_f64() * 1e3);
    }
    drop(stores);
    out.snapshot_ms = median_or_zero(&snapshot);

    let mut opens = Vec::new();
    for _ in 0..STORE_REPEATS {
        let clock = Instant::now();
        let stores = open(&tcp.state_dir, None)?;
        opens.push(clock.elapsed().as_secs_f64());
        drop(stores);
    }
    out.open_s = median_or_zero(&opens);
    Ok(out)
}

/// The journal record that registers (version 1) or re-registers `v`.
fn registration_record(v: &Version) -> Result<StoreRecord, String> {
    let data = v.data()?;
    let domain = domain_spec(&v.domain);
    let backend = v.kind().as_str().to_string();
    Ok(if v.number == 1 {
        StoreRecord::Register(RegisterRecord {
            seq: 0,
            dataset: v.name.clone(),
            domain,
            budget: v.budget,
            mode: v.mode,
            backend,
            fingerprint: registration_fingerprint(
                &v.name,
                &data,
                &v.domain,
                v.budget,
                v.mode,
                v.kind(),
            ),
            rows: v.rows.clone(),
        })
    } else {
        StoreRecord::Reregister(ReregisterRecord {
            seq: 0,
            dataset: v.name.clone(),
            version: v.number,
            domain,
            backend,
            fingerprint: versioned_registration_fingerprint(
                &v.name,
                &data,
                &v.domain,
                v.budget,
                v.mode,
                v.kind(),
                v.number,
            ),
            rows: v.rows.clone(),
        })
    })
}

fn domain_spec(domain: &GridDomain) -> DomainSpec {
    DomainSpec {
        dim: domain.dim(),
        size: domain.size(),
        min: domain.min(),
        max: domain.max(),
    }
}

/// The engine's record pattern for admitted queries: each charge is
/// appended and waited for in admission order, then each release is
/// appended. Returns the total store time in ms.
#[allow(clippy::too_many_arguments)]
fn charge_and_release(
    queries: &[QueryRequest],
    req: &Req,
    answer: &Value,
    stores: &[Store],
    shards: usize,
    id: usize,
    parent: Option<usize>,
    tracer: &mut Tracer,
    out: &mut PassC,
) -> Result<f64, String> {
    let items = service::members(answer);
    let items: Vec<&Value> = if items.is_empty() {
        vec![answer]
    } else {
        items.iter().collect()
    };
    let mut total = 0.0;
    let mut released = Vec::new();
    for ((q, target), item) in queries.iter().zip(&req.targets).zip(&items) {
        let fingerprint = versioned_query_fingerprint(q, target.number);
        let store = &stores[shard_of(&q.dataset, shards)];
        let record = StoreRecord::Charge(ChargeRecord {
            seq: 0,
            dataset: q.dataset.clone(),
            fingerprint: fingerprint.clone(),
            label: q.query.label(),
            params: q.privacy,
        });
        let (pending, append) = tracer.time('C', "store.append_deferred", id, parent, || {
            store.append_deferred(record)
        });
        let pending = pending.map_err(|e| e.to_string())?;
        let (result, wait) = tracer.time('C', "store.wait", id, parent, || pending.wait());
        result.map_err(|e| e.to_string())?;
        total += tracer.ms(append) + tracer.ms(wait);
        if req.timed {
            out.append.push(tracer.ms(append));
            out.wait.push(tracer.ms(wait));
        }
        if let Some(value) = service::field(item, "result") {
            released.push((q, fingerprint, value.clone()));
        }
    }
    for (q, fingerprint, value) in released {
        let store = &stores[shard_of(&q.dataset, shards)];
        let record = StoreRecord::Release(ReleaseRecord {
            seq: 0,
            dataset: q.dataset.clone(),
            fingerprint,
            value,
        });
        let (result, span) = tracer.time('C', "store.append_release", id, parent, || {
            store.append(record)
        });
        result.map_err(|e| e.to_string())?;
        total += tracer.ms(span);
    }
    Ok(total)
}

struct PassD {
    matrix: Vec<f64>,
    profile: Vec<f64>,
    breakpoints: Vec<f64>,
    projected: Vec<f64>,
    projected_profile: Vec<f64>,
}

/// Pass D: each version's geometry build, and the first `l_profile(cap)`
/// of each version and cap, charged to the request that first needs it.
fn pass_d(reqs: &[Req], tracer: &mut Tracer, costs: &mut [Cost]) -> Result<PassD, String> {
    let mut out = PassD {
        matrix: Vec::new(),
        profile: Vec::new(),
        breakpoints: Vec::new(),
        projected: Vec::new(),
        projected_profile: Vec::new(),
    };
    let mut current: HashMap<String, (Arc<dyn GeometryBackend>, HashSet<usize>)> = HashMap::new();
    for (id, req) in reqs.iter().enumerate() {
        let parent = costs[id].engine_span;
        if let Some(v) = &req.creates {
            let data = v.data()?;
            let backend: Arc<dyn GeometryBackend> = match v.kind() {
                BackendKind::Exact => {
                    let (dm, span) = tracer.time('D', "geometry.matrix_build", id, parent, || {
                        DistanceMatrix::build_parallel(&data, 2)
                    });
                    out.matrix.push(tracer.ms(span));
                    costs[id].geometry_build += tracer.ms(span);
                    Arc::new(GeometryIndex::from_matrix(dm))
                }
                BackendKind::Projected => {
                    let (backend, span) =
                        tracer.time('D', "geometry.projected_build", id, parent, || {
                            ProjectedBackend::build(&data, ProjectedConfig::default())
                        });
                    out.projected.push(tracer.ms(span));
                    costs[id].geometry_build += tracer.ms(span);
                    Arc::new(backend)
                }
            };
            costs[id].geometry += costs[id].geometry_build;
            current.insert(v.name.clone(), (backend, HashSet::new()));
        }
        let queries: &[QueryRequest] = match &req.request {
            Request::Query(q) if req.op.class != Class::Replay => std::slice::from_ref(q),
            Request::Batch(queries) => queries,
            _ => &[],
        };
        for q in queries {
            let Some((backend, built)) = current.get_mut(&q.dataset) else {
                continue;
            };
            let cap = cap_of(q);
            if cap == 0 || !built.insert(cap) {
                continue;
            }
            let exact = backend.kind() == BackendKind::Exact;
            let name = if exact {
                "geometry.profile_build"
            } else {
                "geometry.projected_profile"
            };
            let (profile, span) = tracer.time('D', name, id, parent, || backend.l_profile(cap));
            costs[id].geometry += tracer.ms(span);
            if exact {
                out.profile.push(tracer.ms(span));
                out.breakpoints.push(profile.breakpoints().len() as f64);
            } else {
                out.projected_profile.push(tracer.ms(span));
            }
        }
    }
    Ok(out)
}

fn cap_of(q: &QueryRequest) -> usize {
    match &q.query {
        privcluster_engine::Query::GoodRadius { t, .. } => *t,
        _ => 0,
    }
}

struct PassE {
    good_radius: Vec<f64>,
    failures: u64,
}

/// Pass E: `plan` + `Plan::execute` for every executed query, against
/// entries whose backend and every profile the workload uses are built
/// beforehand. Each value must equal the one pass A released.
fn pass_e(
    inputs: &Inputs,
    reqs: &[Req],
    answers: &[Value],
    tracer: &mut Tracer,
    costs: &mut [Cost],
    violations: &mut Vec<String>,
) -> Result<PassE, String> {
    let mut out = PassE {
        good_radius: Vec::new(),
        failures: 0,
    };
    let mut entries: HashMap<String, Arc<DatasetEntry>> = HashMap::new();
    let mut mismatches = 0;
    for (id, req) in reqs.iter().enumerate() {
        let parent = costs[id].engine_span;
        if let Some(v) = &req.creates {
            entries.insert(v.name.clone(), warm_entry(inputs, v)?);
        }
        let (queries, items): (&[QueryRequest], Vec<Value>) = match &req.request {
            Request::Query(q) if req.op.class != Class::Replay => {
                (std::slice::from_ref(q), vec![answers[id].clone()])
            }
            Request::Batch(queries) => (queries, service::members(&answers[id])),
            _ => continue,
        };
        for (q, item) in queries.iter().zip(&items) {
            let entry = entries.get(&q.dataset).ok_or("unregistered dataset")?;
            let (result, span) = tracer.time('E', "core.good_radius", id, parent, || {
                plan(&q.query, q.privacy, entry).and_then(|p| p.execute(entry, q.seed))
            });
            costs[id].core += tracer.ms(span);
            if req.timed {
                out.good_radius.push(tracer.ms(span));
            }
            match result {
                Ok(value) => {
                    let value =
                        serde_json::to_string(&value.to_json_value()).expect("serializable");
                    let served = service::released(item);
                    if Some(&value) != served.as_ref() {
                        mismatches += 1;
                        if mismatches <= 3 {
                            eprintln!(
                                "{:?} computed {value} in-process but served {served:?}",
                                req.op.class
                            );
                        }
                    }
                }
                Err(_) => out.failures += 1,
            }
        }
    }
    if mismatches > 0 {
        violations.push(format!(
            "{mismatches} values from plan + execute differ from the served values"
        ));
    }
    Ok(out)
}

/// A dataset entry for `v` with its backend and every cap the workload
/// uses built.
fn warm_entry(inputs: &Inputs, v: &Version) -> Result<Arc<DatasetEntry>, String> {
    let entry = DatasetEntry::new(
        v.name.clone(),
        v.data()?,
        v.domain.clone(),
        v.budget,
        v.mode,
        v.kind(),
    )
    .map_err(|e| e.to_string())?;
    let backend = entry.backend(2);
    for &cap in inputs.spec.caps {
        if cap <= v.rows.len() {
            backend.l_profile(cap);
        }
    }
    Ok(Arc::new(entry))
}

/// Writes a header naming the run, every span, then every timed request's
/// unattributed remainder, as JSON lines to `.bench_trace/<workload>.jsonl`
/// (one file per workload, replaced by each traced run, so repeated runs
/// do not pile up traces).
fn write_trace(
    inputs: &Inputs,
    root: &Path,
    seed: u64,
    tracer: &Tracer,
    summaries: &str,
) -> Result<(), String> {
    let dir = root.join(".bench_trace");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut text = String::with_capacity(tracer.spans.len() * 110 + summaries.len());
    writeln!(
        text,
        "{{\"workload\":\"{}\",\"seed\":{seed}}}",
        inputs.workload.name()
    )
    .expect("write to String");
    for (id, s) in tracer.spans.iter().enumerate() {
        writeln!(
            text,
            "{{\"span\":{id},\"parent\":{},\"request\":{},\"pass\":\"{}\",\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.request,
            s.pass,
            s.name,
            s.start * 1e6,
            s.end * 1e6
        )
        .expect("write to String");
    }
    text.push_str(summaries);
    let path = dir.join(format!("{}.jsonl", inputs.workload.name()));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}
