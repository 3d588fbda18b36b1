//! The JSON-lines service protocol.
//!
//! One request object per line in, one response object per line out. The
//! same loop serves stdin/stdout and TCP connections, so the engine can be
//! driven by a pipe in CI or by a socket in a deployment.
//!
//! Requests (`op` selects the operation):
//!
//! ```json
//! {"op":"register","dataset":"demo","domain":{"dim":2,"size":1024},
//!  "budget":{"epsilon":1.0,"delta":1e-6},"composition":"basic",
//!  "points":[[0.1,0.2],[0.3,0.4]]}
//! {"op":"register","dataset":"synth","domain":{"dim":2,"size":1024},
//!  "budget":{"epsilon":1.0,"delta":1e-6},
//!  "composition":{"advanced":{"delta_prime":1e-7}},
//!  "backend":"projected",
//!  "synthetic":{"kind":"planted_ball","n":2000,"cluster_size":1000,
//!               "cluster_radius":0.02,"seed":7}}
//! {"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},
//!  "points":[[0.2,0.3],[0.4,0.5]]}
//! {"op":"query","dataset":"demo","seed":1,"epsilon":0.25,"delta":1e-8,
//!  "query":{"type":"one_cluster","t":1000,"beta":0.1}}
//! {"op":"query","dataset":"demo","version":1,"seed":1,"epsilon":0.25,
//!  "delta":1e-8,"query":{"type":"one_cluster","t":1000,"beta":0.1}}
//! {"op":"batch","requests":[ ...query request objects... ]}
//! {"op":"status","dataset":"demo"}
//! {"op":"status","dataset":"demo","version":1}
//! {"op":"list"}
//! {"op":"metrics"}
//! {"op":"shutdown"}
//! ```
//!
//! `reregister` replaces an existing dataset's data (and optionally its
//! domain and backend), creating the next **version** of its name. The
//! privacy budget is *inherited*, never redeclared: a `reregister` carrying
//! `budget` or `composition` is refused outright, every past charge still
//! counts against the one budget declared at original registration, and a
//! budget exhausted on v1 stays exhausted on v2. Queries and `status` take
//! an optional `"version"` pin (defaulting to the latest); released results
//! are cached under version-scoped keys, so a result computed against v1
//! is never replayed as an answer about v2. Status responses carry
//! `"version"` (the described version) and `"inherited_spend"` (the
//! chain's composed spend when that version was created, `null` for v1).
//!
//! `metrics` (also accepted as `{"cmd":"metrics"}`, the scrape-tool
//! spelling) returns the engine's telemetry snapshot — counters, gauges,
//! and latency histograms, canonical JSON with sorted series keys. Per the
//! obs no-payload-data contract the snapshot carries timings, counts, and
//! `(ε, δ)` aggregates only, and reading it never perturbs the engine:
//! transcripts of the other ops are bit-identical whether or not metrics
//! are scraped in between.
//!
//! The optional register field `"backend"` (`"auto"` | `"exact"` |
//! `"projected"`, default `"auto"`) overrides the engine's size-based
//! geometry-backend selection for that dataset; `status` responses report
//! the active backend, the remaining `(ε, δ)` budget
//! (`remaining_epsilon` / `remaining_delta`), and a `durability` object —
//! `{"journaled":…,"journal_seq":…,"recovered":…}` — so operators can
//! audit spend persistence after a restart.
//!
//! Every response carries `"ok"`; errors report a stable `kind` (see
//! [`EngineError::kind`]) plus a human-readable message. Responses never
//! include wall-clock times, so a fixed request script produces bit-stable
//! output — that is what the CI smoke test diffs against its golden file.
//!
//! Request lines are capped at [`MAX_REQUEST_LINE_BYTES`]; an oversized
//! (or newline-free, hence unbounded) line is drained without buffering,
//! answered with a structured `protocol` error, and the connection keeps
//! serving.

use crate::engine::{DatasetStatus, Engine, QueryResponse};
use crate::error::EngineError;
use crate::query::QueryRequest;
use crate::registry::BackendChoice;
use crate::wire::{get, num, obj, opt_u64, req, req_f64, req_str, req_u64, req_usize, s};
use privcluster_dp::composition::CompositionMode;
use privcluster_dp::PrivacyParams;
use privcluster_geometry::{Dataset, GridDomain};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Serialize, Value};
use std::io::{BufRead, Write};

/// A parsed protocol request.
#[derive(Debug, Clone)]
pub enum Request {
    /// Register a dataset (inline points or a synthetic spec).
    Register(RegisterRequest),
    /// Re-register an existing dataset with new data, creating its next
    /// version under the inherited privacy budget.
    Reregister(ReregisterRequest),
    /// Run one query.
    Query(QueryRequest),
    /// Run a batch of queries on the worker pool.
    Batch(Vec<QueryRequest>),
    /// Report a dataset's budget status.
    Status {
        /// The dataset to describe.
        dataset: String,
        /// An exact version to describe (`None` = latest).
        version: Option<u64>,
    },
    /// List registered dataset names.
    List,
    /// Report the engine's metrics snapshot (counters, gauges, histograms).
    Metrics,
    /// Stop serving this connection.
    Shutdown,
}

/// The payload of a `register` request.
#[derive(Debug, Clone)]
pub struct RegisterRequest {
    /// Dataset name (write-once).
    pub dataset: String,
    /// The grid domain.
    pub domain: GridDomain,
    /// Total privacy budget.
    pub budget: PrivacyParams,
    /// Composition theorem charged against.
    pub mode: CompositionMode,
    /// Geometry backend selection (`"backend"`: `"auto"` | `"exact"` |
    /// `"projected"`, defaulting to automatic size-based selection).
    pub backend: BackendChoice,
    /// Where the points come from.
    pub source: DataSource,
}

/// The payload of a `reregister` request. Deliberately has **no** budget
/// or composition field: both are inherited from the original
/// registration, and the parser refuses a request that tries to supply
/// them (silently ignoring a budget on re-registration would let a client
/// believe it had reset the ledger).
#[derive(Debug, Clone)]
pub struct ReregisterRequest {
    /// Dataset name (must already be registered).
    pub dataset: String,
    /// The new version's grid domain.
    pub domain: GridDomain,
    /// Geometry backend selection for the new version.
    pub backend: BackendChoice,
    /// Where the new version's points come from.
    pub source: DataSource,
}

/// The data source of a registration.
#[derive(Debug, Clone)]
pub enum DataSource {
    /// Inline rows.
    Points(Vec<Vec<f64>>),
    /// A seeded synthetic workload generated server-side.
    Synthetic(SyntheticSpec),
}

/// A seeded synthetic dataset description.
#[derive(Debug, Clone)]
pub enum SyntheticSpec {
    /// `datagen::planted_ball_cluster`.
    PlantedBall {
        /// Total points.
        n: usize,
        /// Planted cluster size.
        cluster_size: usize,
        /// Planted cluster radius.
        cluster_radius: f64,
        /// Generator seed.
        seed: u64,
    },
    /// `datagen::gaussian_mixture`.
    GaussianMixture {
        /// Number of mixture components.
        k: usize,
        /// Points per component.
        per_cluster: usize,
        /// Component standard deviation.
        sigma: f64,
        /// Uniform background points.
        background: usize,
        /// Generator seed.
        seed: u64,
    },
}

impl Request {
    /// Parses one JSON-lines request.
    pub fn parse(line: &str) -> Result<Self, EngineError> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| EngineError::Protocol(format!("malformed JSON: {e}")))?;
        // `op` selects the operation; the telemetry-flavoured `cmd` alias
        // (`{"cmd":"metrics"}`) is accepted too, matching the scrape-tool
        // convention without disturbing the existing surface.
        let op = req_str(&value, "op").or_else(|e| req_str(&value, "cmd").map_err(|_| e))?;
        match op.as_str() {
            "register" => Ok(Request::Register(parse_register(&value)?)),
            "reregister" => Ok(Request::Reregister(parse_reregister(&value)?)),
            "query" => Ok(Request::Query(QueryRequest::parse(&value)?)),
            "batch" => {
                let requests = req(&value, "requests")?
                    .as_array()
                    .ok_or_else(|| {
                        EngineError::Protocol("field `requests` must be an array".into())
                    })?
                    .iter()
                    .map(QueryRequest::parse)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Request::Batch(requests))
            }
            "status" => Ok(Request::Status {
                dataset: req_str(&value, "dataset")?,
                version: opt_u64(&value, "version")?,
            }),
            "list" => Ok(Request::List),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(EngineError::Protocol(format!("unknown op `{other}`"))),
        }
    }

    /// The dataset this request addresses, when it addresses exactly one —
    /// what a sharded front end routes on. `Batch` splits per contained
    /// query; `List`, `Metrics`, and `Shutdown` are engine-global.
    pub fn dataset(&self) -> Option<&str> {
        match self {
            Request::Register(r) => Some(&r.dataset),
            Request::Reregister(r) => Some(&r.dataset),
            Request::Query(q) => Some(&q.dataset),
            Request::Status { dataset, .. } => Some(dataset),
            Request::Batch(_) | Request::List | Request::Metrics | Request::Shutdown => None,
        }
    }
}

fn parse_domain(value: &Value) -> Result<GridDomain, EngineError> {
    let domain_spec = req(value, "domain")?;
    let dim = req_usize(domain_spec, "dim")?;
    let size = req_u64(domain_spec, "size")?;
    let min = crate::wire::opt_f64(domain_spec, "min")?.unwrap_or(0.0);
    let max = crate::wire::opt_f64(domain_spec, "max")?.unwrap_or(1.0);
    GridDomain::new(dim, size, min, max).map_err(|e| EngineError::Protocol(e.to_string()))
}

fn parse_backend(value: &Value) -> Result<BackendChoice, EngineError> {
    match get(value, "backend") {
        None | Some(Value::Null) => Ok(BackendChoice::Auto),
        Some(Value::String(name)) => BackendChoice::parse(name),
        Some(other) => Err(EngineError::Protocol(format!(
            "field `backend` must be a string, got {other:?}"
        ))),
    }
}

fn parse_source(value: &Value) -> Result<DataSource, EngineError> {
    match (get(value, "points"), get(value, "synthetic")) {
        (Some(points), None) => {
            let rows = points
                .as_array()
                .ok_or_else(|| EngineError::Protocol("field `points` must be an array".into()))?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or_else(|| {
                            EngineError::Protocol("each point must be an array of numbers".into())
                        })?
                        .iter()
                        .map(|c| {
                            c.as_f64().ok_or_else(|| {
                                EngineError::Protocol("point coordinates must be numbers".into())
                            })
                        })
                        .collect::<Result<Vec<f64>, _>>()
                })
                .collect::<Result<Vec<Vec<f64>>, _>>()?;
            Ok(DataSource::Points(rows))
        }
        (None, Some(spec)) => Ok(DataSource::Synthetic(parse_synthetic(spec)?)),
        _ => Err(EngineError::Protocol(
            "register needs exactly one of `points` or `synthetic`".into(),
        )),
    }
}

fn parse_register(value: &Value) -> Result<RegisterRequest, EngineError> {
    let domain = parse_domain(value)?;
    let budget_spec = req(value, "budget")?;
    let budget = PrivacyParams::new(
        req_f64(budget_spec, "epsilon")?,
        req_f64(budget_spec, "delta")?,
    )
    .map_err(|e| EngineError::Protocol(e.to_string()))?;

    let mode = match get(value, "composition") {
        None | Some(Value::Null) => CompositionMode::Basic,
        Some(Value::String(name)) if name == "basic" => CompositionMode::Basic,
        Some(spec @ Value::Object(_)) => {
            let advanced = req(spec, "advanced")?;
            CompositionMode::Advanced {
                delta_prime: req_f64(advanced, "delta_prime")?,
            }
        }
        Some(other) => {
            return Err(EngineError::Protocol(format!(
                "field `composition` must be \"basic\" or {{\"advanced\":{{...}}}}, got {other:?}"
            )))
        }
    };

    Ok(RegisterRequest {
        dataset: req_str(value, "dataset")?,
        domain,
        budget,
        mode,
        backend: parse_backend(value)?,
        source: parse_source(value)?,
    })
}

fn parse_reregister(value: &Value) -> Result<ReregisterRequest, EngineError> {
    // A re-registration inherits its chain's budget and composition mode.
    // Refuse — rather than ignore — an attempt to redeclare either: a
    // client that sends a budget here believes it is resetting the ledger,
    // and that belief must fail loudly.
    for forbidden in ["budget", "composition"] {
        if get(value, forbidden).is_some() {
            return Err(EngineError::Protocol(format!(
                "reregister does not take `{forbidden}`: the privacy budget and composition \
                 mode are inherited from the original registration"
            )));
        }
    }
    Ok(ReregisterRequest {
        dataset: req_str(value, "dataset")?,
        domain: parse_domain(value)?,
        backend: parse_backend(value)?,
        source: parse_source(value)?,
    })
}

fn parse_synthetic(spec: &Value) -> Result<SyntheticSpec, EngineError> {
    match req_str(spec, "kind")?.as_str() {
        "planted_ball" => Ok(SyntheticSpec::PlantedBall {
            n: req_usize(spec, "n")?,
            cluster_size: req_usize(spec, "cluster_size")?,
            cluster_radius: req_f64(spec, "cluster_radius")?,
            seed: req_u64(spec, "seed")?,
        }),
        "gaussian_mixture" => Ok(SyntheticSpec::GaussianMixture {
            k: req_usize(spec, "k")?,
            per_cluster: req_usize(spec, "per_cluster")?,
            sigma: req_f64(spec, "sigma")?,
            background: req_usize(spec, "background")?,
            seed: req_u64(spec, "seed")?,
        }),
        other => Err(EngineError::Protocol(format!(
            "unknown synthetic kind `{other}`"
        ))),
    }
}

fn materialize(source: &DataSource, domain: &GridDomain) -> Result<Dataset, EngineError> {
    match source {
        DataSource::Points(rows) => {
            Dataset::from_rows(rows.clone()).map_err(|e| EngineError::Protocol(e.to_string()))
        }
        DataSource::Synthetic(SyntheticSpec::PlantedBall {
            n,
            cluster_size,
            cluster_radius,
            seed,
        }) => {
            if *cluster_size > *n {
                return Err(EngineError::Protocol(
                    "cluster_size must be at most n".into(),
                ));
            }
            if !(*cluster_radius > 0.0 && cluster_radius.is_finite()) {
                return Err(EngineError::Protocol(
                    "cluster_radius must be positive and finite".into(),
                ));
            }
            // privlint::allow(unsalted-rng): synthetic dataset generation from the
            // client's wire-supplied seed — public input material, not a DP
            // mechanism draw; no mechanism stream is derived from this seed.
            let mut rng = StdRng::seed_from_u64(*seed);
            Ok(privcluster_datagen::planted_ball_cluster(
                domain,
                *n,
                *cluster_size,
                *cluster_radius,
                &mut rng,
            )
            .data)
        }
        DataSource::Synthetic(SyntheticSpec::GaussianMixture {
            k,
            per_cluster,
            sigma,
            background,
            seed,
        }) => {
            if *k == 0 {
                return Err(EngineError::Protocol("k must be at least 1".into()));
            }
            if !(*sigma > 0.0 && sigma.is_finite()) {
                return Err(EngineError::Protocol(
                    "sigma must be positive and finite".into(),
                ));
            }
            // privlint::allow(unsalted-rng): synthetic dataset generation from the
            // client's wire-supplied seed — public input material, not a DP
            // mechanism draw; no mechanism stream is derived from this seed.
            let mut rng = StdRng::seed_from_u64(*seed);
            Ok(privcluster_datagen::gaussian_mixture(
                domain,
                *k,
                *per_cluster,
                *sigma,
                *background,
                &mut rng,
            )
            .data)
        }
    }
}

/// The `(ε, δ)` wire object — dp's canonical [`Serialize`] impl, the same
/// encoding the durability journal records (the protocol used to hand-roll
/// an identical object here).
fn privacy_json(p: PrivacyParams) -> Value {
    p.to_json_value()
}

/// The composition wire form (`"basic"` / `{"advanced":{...}}`) — also
/// dp's canonical impl, shared with the journal.
fn composition_json(mode: CompositionMode) -> Value {
    mode.to_json_value()
}

fn status_json(status: &DatasetStatus) -> Value {
    obj(vec![
        ("dataset", s(status.name.clone())),
        ("version", num(status.version as f64)),
        ("points", num(status.points as f64)),
        ("dim", num(status.dim as f64)),
        ("budget", privacy_json(status.budget)),
        ("composition", composition_json(status.mode)),
        ("backend", s(status.backend.as_str())),
        ("granted", num(status.granted as f64)),
        ("refused", num(status.refused as f64)),
        (
            "spent",
            status.spent.map(privacy_json).unwrap_or(Value::Null),
        ),
        (
            "inherited_spend",
            status
                .inherited_spend
                .map(privacy_json)
                .unwrap_or(Value::Null),
        ),
        ("remaining_epsilon", num(status.remaining_epsilon)),
        ("remaining_delta", num(status.remaining_delta)),
    ])
}

fn durability_json(engine: &Engine) -> Value {
    let durability = engine.durability();
    obj(vec![
        ("journaled", Value::Bool(durability.journaled)),
        ("journal_seq", num(durability.journal_seq as f64)),
        ("recovered", Value::Bool(durability.recovered)),
    ])
}

fn query_response_json(dataset: &str, response: &QueryResponse) -> Value {
    obj(vec![
        ("ok", Value::Bool(true)),
        ("op", s("query")),
        ("dataset", s(dataset)),
        ("cached", Value::Bool(response.cached)),
        (
            "charged",
            response.charged.map(privacy_json).unwrap_or(Value::Null),
        ),
        ("remaining_epsilon", num(response.remaining_epsilon)),
        ("result", response.value.to_json_value()),
    ])
}

fn error_json(error: &EngineError) -> Value {
    error_value(error.kind(), &error.to_string())
}

/// The protocol's error response shape, for any `(kind, message)` pair —
/// front ends layered above the engine (the sharded server's `retry`
/// backpressure error) produce wire-identical errors through this.
pub fn error_value(kind: &str, message: &str) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![("kind", s(kind)), ("message", s(message))]),
        ),
    ])
}

/// Handles one parsed request against the engine, producing the response
/// value. `Shutdown` produces its acknowledgement; the serve loop is
/// responsible for actually stopping.
pub fn handle(engine: &Engine, request: &Request) -> Value {
    match request {
        Request::Register(reg) => {
            let result = materialize(&reg.source, &reg.domain).and_then(|data| {
                engine.register_dataset_with_backend(
                    &reg.dataset,
                    data,
                    reg.domain.clone(),
                    reg.budget,
                    reg.mode,
                    reg.backend,
                )
            });
            match result {
                Ok(status) => obj(vec![
                    ("ok", Value::Bool(true)),
                    ("op", s("register")),
                    ("status", status_json(&status)),
                ]),
                Err(e) => error_json(&e),
            }
        }
        Request::Reregister(rereg) => {
            let result = materialize(&rereg.source, &rereg.domain).and_then(|data| {
                engine.reregister_dataset_with_backend(
                    &rereg.dataset,
                    data,
                    rereg.domain.clone(),
                    rereg.backend,
                )
            });
            match result {
                Ok(status) => obj(vec![
                    ("ok", Value::Bool(true)),
                    ("op", s("reregister")),
                    ("status", status_json(&status)),
                ]),
                Err(e) => error_json(&e),
            }
        }
        Request::Query(req) => match engine.query(req) {
            Ok(response) => query_response_json(&req.dataset, &response),
            Err(e) => error_json(&e),
        },
        Request::Batch(requests) => {
            let responses = engine.run_batch(requests);
            let items: Vec<Value> = requests
                .iter()
                .zip(responses.iter())
                .map(|(req, result)| match result {
                    Ok(response) => query_response_json(&req.dataset, response),
                    Err(e) => error_json(e),
                })
                .collect();
            obj(vec![
                ("ok", Value::Bool(true)),
                ("op", s("batch")),
                ("responses", Value::Array(items)),
            ])
        }
        Request::Status { dataset, version } => match match version {
            Some(version) => engine.status_version(dataset, *version),
            None => engine.status(dataset),
        } {
            Ok(status) => obj(vec![
                ("ok", Value::Bool(true)),
                ("op", s("status")),
                ("status", status_json(&status)),
                ("durability", durability_json(engine)),
            ]),
            Err(e) => error_json(&e),
        },
        Request::List => obj(vec![
            ("ok", Value::Bool(true)),
            ("op", s("list")),
            (
                "datasets",
                Value::Array(
                    engine
                        .dataset_names()
                        .into_iter()
                        .map(Value::String)
                        .collect(),
                ),
            ),
        ]),
        Request::Metrics => obj(vec![
            ("ok", Value::Bool(true)),
            ("op", s("metrics")),
            ("metrics", engine.metrics_snapshot().to_json_value()),
        ]),
        Request::Shutdown => obj(vec![("ok", Value::Bool(true)), ("op", s("shutdown"))]),
    }
}

/// Largest request line `serve_lines` buffers, in bytes. Requests carrying
/// inline points are large but bounded (a 100k-point, 10-d registration is
/// ≈ 20 MB of JSON); a *newline-free* stream is unbounded, and before this
/// cap existed one such TCP client could balloon the server's line buffer
/// until the process died. Oversized lines get a structured `protocol`
/// error response and the connection keeps serving.
pub const MAX_REQUEST_LINE_BYTES: usize = 32 * 1024 * 1024;

/// One bounded read from the request stream.
enum LineRead {
    /// A complete line within the cap (without its newline).
    Line(String),
    /// The line exceeded the cap; its bytes were drained and discarded.
    Oversize,
    /// End of input.
    Eof,
}

/// Reads one newline-terminated line of at most `max` bytes. Bytes beyond
/// the cap are consumed (so the stream stays line-synchronised) but never
/// buffered — memory use is bounded by `max` no matter what the peer sends.
fn read_bounded_line<R: BufRead>(reader: &mut R, max: usize) -> std::io::Result<LineRead> {
    let mut buf: Vec<u8> = Vec::new();
    let mut oversize = false;
    loop {
        let chunk = reader.fill_buf()?;
        if chunk.is_empty() {
            // EOF. A final unterminated line still gets served (matching
            // `BufRead::lines`); an oversized one still gets its error.
            return Ok(if oversize {
                LineRead::Oversize
            } else if buf.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
            });
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(newline) => {
                if !oversize && buf.len() + newline > max {
                    oversize = true;
                    buf.clear();
                }
                if !oversize {
                    buf.extend_from_slice(&chunk[..newline]);
                }
                reader.consume(newline + 1);
                return Ok(if oversize {
                    LineRead::Oversize
                } else {
                    if buf.last() == Some(&b'\r') {
                        buf.pop();
                    }
                    LineRead::Line(String::from_utf8_lossy(&buf).into_owned())
                });
            }
            None => {
                let len = chunk.len();
                if !oversize {
                    if buf.len() + len > max {
                        oversize = true;
                        buf.clear();
                        buf.shrink_to_fit();
                    } else {
                        buf.extend_from_slice(chunk);
                    }
                }
                reader.consume(len);
            }
        }
    }
}

/// Serves newline-delimited JSON requests from `reader`, writing one
/// response line per request to `writer`. Returns at end of input or after
/// a `shutdown` request; the returned bool reports whether a shutdown was
/// requested (a TCP front end uses it to stop listening). Request lines are
/// capped at [`MAX_REQUEST_LINE_BYTES`] — this and [`serve_lines_with`]
/// share one framing loop, so no transport can be ballooned by a
/// newline-free stream.
pub fn serve_lines<R: BufRead, W: Write>(
    engine: &Engine,
    reader: R,
    writer: W,
) -> std::io::Result<bool> {
    serve_lines_bounded(engine, reader, writer, MAX_REQUEST_LINE_BYTES)
}

/// [`serve_lines`] with an explicit line cap (tests use a small one).
fn serve_lines_bounded<R: BufRead, W: Write>(
    engine: &Engine,
    reader: R,
    writer: W,
    max_line_bytes: usize,
) -> std::io::Result<bool> {
    serve_lines_bounded_with(
        reader,
        writer,
        max_line_bytes,
        |line| match Request::parse(line) {
            Ok(request) => {
                let stop = matches!(request, Request::Shutdown);
                (handle(engine, &request), stop)
            }
            Err(e) => (error_json(&e), false),
        },
    )
}

/// Serves newline-delimited JSON with a caller-supplied request handler —
/// how front ends layered above a single engine (the sharded server)
/// reuse the protocol's framing. The handler maps one non-empty request
/// line to `(response, stop)`; the line cap, the oversize error, the
/// empty-line skip, and the flush-per-response discipline are all shared
/// with [`serve_lines`], so transcripts stay wire-identical.
pub fn serve_lines_with<R: BufRead, W: Write, F: FnMut(&str) -> (Value, bool)>(
    reader: R,
    writer: W,
    handler: F,
) -> std::io::Result<bool> {
    serve_lines_bounded_with(reader, writer, MAX_REQUEST_LINE_BYTES, handler)
}

fn serve_lines_bounded_with<R: BufRead, W: Write, F: FnMut(&str) -> (Value, bool)>(
    mut reader: R,
    mut writer: W,
    max_line_bytes: usize,
    mut handler: F,
) -> std::io::Result<bool> {
    loop {
        let line = match read_bounded_line(&mut reader, max_line_bytes)? {
            LineRead::Eof => return Ok(false),
            LineRead::Oversize => {
                let error = EngineError::Protocol(format!(
                    "request line exceeds the {max_line_bytes}-byte limit and was discarded"
                ));
                let encoded = serde_json::to_string(&error_json(&error))
                    .expect("response serialization is infallible");
                writeln!(writer, "{encoded}")?;
                writer.flush()?;
                continue;
            }
            LineRead::Line(line) => line,
        };
        if line.trim().is_empty() {
            continue;
        }
        let (response, stop) = handler(&line);
        let encoded =
            serde_json::to_string(&response).expect("response serialization is infallible");
        let written = writeln!(writer, "{encoded}").and_then(|()| writer.flush());
        // A shutdown takes effect even when its answer cannot be delivered:
        // a client may hang up right after sending it.
        if stop {
            return Ok(true);
        }
        written?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;

    fn engine() -> Engine {
        Engine::new(EngineConfig {
            threads: 2,
            cache_capacity: 32,
            ..EngineConfig::default()
        })
    }

    const REGISTER: &str = r#"{"op":"register","dataset":"demo","domain":{"dim":2,"size":1024},"budget":{"epsilon":4.0,"delta":0.0001},"composition":"basic","synthetic":{"kind":"planted_ball","n":400,"cluster_size":200,"cluster_radius":0.02,"seed":7}}"#;

    #[test]
    fn register_query_status_round_trip() {
        let engine = engine();
        let reg = Request::parse(REGISTER).unwrap();
        let reg_response = handle(&engine, &reg);
        assert_eq!(get(&reg_response, "ok"), Some(&Value::Bool(true)));

        let query = Request::parse(
            r#"{"op":"query","dataset":"demo","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
        )
        .unwrap();
        let response = handle(&engine, &query);
        assert_eq!(get(&response, "ok"), Some(&Value::Bool(true)));
        assert_eq!(get(&response, "cached"), Some(&Value::Bool(false)));
        let again = handle(&engine, &query);
        assert_eq!(get(&again, "cached"), Some(&Value::Bool(true)));
        assert_eq!(get(&again, "charged"), Some(&Value::Null));
        assert_eq!(get(&again, "result"), get(&response, "result"));

        let status = handle(
            &engine,
            &Request::parse(r#"{"op":"status","dataset":"demo"}"#).unwrap(),
        );
        let status_obj = get(&status, "status").unwrap();
        assert_eq!(get(status_obj, "granted").unwrap().as_f64(), Some(1.0));

        let list = handle(&engine, &Request::parse(r#"{"op":"list"}"#).unwrap());
        assert_eq!(get(&list, "datasets").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn backend_override_on_the_wire_is_honoured_and_reported() {
        let engine = engine();
        let forced = REGISTER
            .replace(r#""dataset":"demo""#, r#""dataset":"forced""#)
            .replace(
                r#""composition":"basic""#,
                r#""composition":"basic","backend":"projected""#,
            );
        let response = handle(&engine, &Request::parse(&forced).unwrap());
        let status = get(&response, "status").unwrap();
        assert_eq!(
            get(status, "backend").and_then(|v| v.as_str()),
            Some("projected"),
            "{response:?}"
        );
        // Default selection on a small dataset is exact, and status reports it.
        handle(&engine, &Request::parse(REGISTER).unwrap());
        let status = handle(
            &engine,
            &Request::parse(r#"{"op":"status","dataset":"demo"}"#).unwrap(),
        );
        let status = get(&status, "status").unwrap();
        assert_eq!(
            get(status, "backend").and_then(|v| v.as_str()),
            Some("exact")
        );
        // A projected-backend dataset still answers queries.
        let query = Request::parse(
            r#"{"op":"query","dataset":"forced","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
        )
        .unwrap();
        let response = handle(&engine, &query);
        assert_eq!(
            get(&response, "ok"),
            Some(&Value::Bool(true)),
            "{response:?}"
        );
        // Unknown backend names are rejected at parse time.
        let bad = REGISTER.replace(
            r#""composition":"basic""#,
            r#""composition":"basic","backend":"mystery""#,
        );
        assert!(Request::parse(&bad).is_err());
    }

    #[test]
    fn reregister_inherits_the_ledger_and_scopes_the_cache() {
        let engine = engine();
        handle(&engine, &Request::parse(REGISTER).unwrap());
        let query = Request::parse(
            r#"{"op":"query","dataset":"demo","seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
        )
        .unwrap();
        let first = handle(&engine, &query);
        assert_eq!(get(&first, "cached"), Some(&Value::Bool(false)));

        // New data under the same name: version 2, ledger carried over.
        let rereg = Request::parse(
            r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"synthetic":{"kind":"planted_ball","n":300,"cluster_size":150,"cluster_radius":0.03,"seed":8}}"#,
        )
        .unwrap();
        let response = handle(&engine, &rereg);
        assert_eq!(
            get(&response, "ok"),
            Some(&Value::Bool(true)),
            "{response:?}"
        );
        let status = get(&response, "status").unwrap();
        assert_eq!(get(status, "version").unwrap().as_f64(), Some(2.0));
        assert_eq!(get(status, "points").unwrap().as_f64(), Some(300.0));
        assert_eq!(get(status, "granted").unwrap().as_f64(), Some(1.0));
        assert_ne!(
            get(status, "inherited_spend"),
            Some(&Value::Null),
            "v2 inherits the spend of the pre-reregistration query"
        );

        // The unpinned repeat now targets v2: the v1-cached result must NOT
        // be replayed (it answers a question about different data).
        let repeat = handle(&engine, &query);
        assert_eq!(get(&repeat, "cached"), Some(&Value::Bool(false)));
        assert_ne!(get(&repeat, "result"), get(&first, "result"));
        // Pinned to v1, the same query is a pure cache replay: free.
        let pinned = Request::parse(
            r#"{"op":"query","dataset":"demo","version":1,"seed":1,"epsilon":1.0,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
        )
        .unwrap();
        let replay = handle(&engine, &pinned);
        assert_eq!(get(&replay, "cached"), Some(&Value::Bool(true)));
        assert_eq!(get(&replay, "result"), get(&first, "result"));

        // Status pins reach old versions; out-of-range pins are refused.
        let v1_status = handle(
            &engine,
            &Request::parse(r#"{"op":"status","dataset":"demo","version":1}"#).unwrap(),
        );
        let v1_status = get(&v1_status, "status").unwrap();
        assert_eq!(get(v1_status, "version").unwrap().as_f64(), Some(1.0));
        assert_eq!(get(v1_status, "points").unwrap().as_f64(), Some(400.0));
        assert_eq!(get(v1_status, "inherited_spend"), Some(&Value::Null));
        let missing = handle(
            &engine,
            &Request::parse(r#"{"op":"status","dataset":"demo","version":9}"#).unwrap(),
        );
        assert!(serde_json::to_string(&missing)
            .unwrap()
            .contains("unknown_version"));

        // A reregister that tries to redeclare the budget is refused at
        // parse time — inheriting silently would fake a ledger reset.
        let sneaky = r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"budget":{"epsilon":99.0,"delta":0.1},"points":[[0.5,0.5]]}"#;
        let err = Request::parse(sneaky).unwrap_err();
        assert!(err.to_string().contains("inherited"), "{err}");
        let sneaky_mode = r#"{"op":"reregister","dataset":"demo","domain":{"dim":2,"size":1024},"composition":"basic","points":[[0.5,0.5]]}"#;
        assert!(Request::parse(sneaky_mode).is_err());
        // Re-registering a name that was never registered is refused.
        let unknown = Request::parse(
            r#"{"op":"reregister","dataset":"ghost","domain":{"dim":2,"size":1024},"points":[[0.5,0.5]]}"#,
        )
        .unwrap();
        let response = handle(&engine, &unknown);
        assert!(serde_json::to_string(&response)
            .unwrap()
            .contains("unknown_dataset"));
    }

    #[test]
    fn malformed_lines_become_protocol_errors() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"op":"mystery"}"#).is_err());
        assert!(Request::parse(r#"{"no_op":true}"#).is_err());
        let bad_synth = r#"{"op":"register","dataset":"d","domain":{"dim":2,"size":16},"budget":{"epsilon":1.0,"delta":1e-6},"synthetic":{"kind":"mystery"}}"#;
        assert!(Request::parse(bad_synth).is_err());
        let both_sources = r#"{"op":"register","dataset":"d","domain":{"dim":1,"size":16},"budget":{"epsilon":1.0,"delta":1e-6},"points":[[0.5]],"synthetic":{"kind":"planted_ball","n":10,"cluster_size":5,"cluster_radius":0.1,"seed":1}}"#;
        assert!(Request::parse(both_sources).is_err());
    }

    #[test]
    fn serve_lines_speaks_the_protocol_end_to_end() {
        let engine = engine();
        let script = format!(
            "{REGISTER}\n\n{}\n{}\n{}\n",
            r#"{"op":"query","dataset":"demo","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}}"#,
            r#"{"op":"query","dataset":"missing","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":10,"beta":0.1}}"#,
            r#"{"op":"shutdown"}"#,
        );
        let mut out = Vec::new();
        serve_lines(&engine, script.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains(r#""op":"register""#));
        assert!(lines[1].contains(r#""op":"query""#));
        assert!(lines[2].contains(r#""kind":"unknown_dataset""#));
        assert!(lines[3].contains(r#""op":"shutdown""#));
        // The same script replayed against a fresh engine produces
        // bit-identical output (the golden-file property CI relies on).
        let engine2 = self::tests::engine();
        let mut out2 = Vec::new();
        serve_lines(&engine2, script.as_bytes(), &mut out2).unwrap();
        assert_eq!(out, out2);
    }

    #[test]
    fn oversize_request_lines_get_an_error_and_the_connection_survives() {
        let engine = engine();
        let cap = 256usize;
        // Line 1: oversize (newline-terminated). Line 2: oversize with NO
        // trailing newline (the unbounded-buffer attack shape: a stream
        // that never sends '\n'). Between them, valid requests must still
        // be served.
        let oversize = "x".repeat(cap + 10);
        let script = format!("{oversize}\n{{\"op\":\"list\"}}\n{oversize}");
        let mut out = Vec::new();
        let stopped = serve_lines_bounded(&engine, script.as_bytes(), &mut out, cap).unwrap();
        assert!(!stopped);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains(r#""kind":"protocol""#), "{}", lines[0]);
        assert!(lines[0].contains("exceeds"), "{}", lines[0]);
        assert!(lines[1].contains(r#""op":"list""#), "{}", lines[1]);
        assert!(lines[2].contains(r#""kind":"protocol""#), "{}", lines[2]);
    }

    /// A writer whose every write fails, like a socket the peer closed.
    struct HungUp;

    impl Write for HungUp {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn shutdown_takes_effect_when_its_answer_cannot_be_written() {
        let script = "{\"op\":\"shutdown\"}\n{\"op\":\"list\"}\n";
        let mut handled = Vec::new();
        let stopped = serve_lines_with(script.as_bytes(), HungUp, |line| {
            handled.push(line.to_string());
            (Value::Null, line.contains("shutdown"))
        });
        assert!(matches!(stopped, Ok(true)), "got {stopped:?}");
        assert_eq!(handled.len(), 1, "nothing after the shutdown is served");
        // Any other request still reports the failed write.
        let err = serve_lines_with("{\"op\":\"list\"}\n".as_bytes(), HungUp, |_| {
            (Value::Null, false)
        });
        assert!(err.is_err());
    }

    #[test]
    fn bounded_line_reader_handles_boundaries() {
        let read_all = |input: &str, cap: usize| {
            let mut reader = std::io::BufReader::with_capacity(7, input.as_bytes());
            let mut out = Vec::new();
            loop {
                match read_bounded_line(&mut reader, cap).unwrap() {
                    LineRead::Eof => break,
                    LineRead::Oversize => out.push(None),
                    LineRead::Line(l) => out.push(Some(l)),
                }
            }
            out
        };
        // Exactly at the cap is fine; one byte over is not.
        assert_eq!(read_all("abcd\n", 4), vec![Some("abcd".to_string())]);
        assert_eq!(read_all("abcde\n", 4), vec![None]);
        // CRLF is stripped like BufRead::lines does; the \r counts toward
        // the cap only as a buffered byte.
        assert_eq!(read_all("ab\r\n", 4), vec![Some("ab".to_string())]);
        // A final unterminated line is still delivered.
        assert_eq!(
            read_all("a\nb", 4),
            vec![Some("a".to_string()), Some("b".to_string())]
        );
        // Oversize draining stays line-synchronised across small fill_buf
        // chunks (reader capacity 7 forces many chunks).
        assert_eq!(
            read_all("0123456789012345678901234567890\nok\n", 8),
            vec![None, Some("ok".to_string())]
        );
        assert_eq!(read_all("", 4), Vec::<Option<String>>::new());
    }

    #[test]
    fn batch_requests_fan_out_and_keep_order() {
        let engine = engine();
        handle(&engine, &Request::parse(REGISTER).unwrap());
        let batch = Request::parse(
            r#"{"op":"batch","requests":[
                {"dataset":"demo","seed":1,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}},
                {"dataset":"demo","seed":2,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":200,"beta":0.1}},
                {"dataset":"nope","seed":3,"epsilon":0.5,"delta":1e-6,"query":{"type":"good_radius","t":10,"beta":0.1}}
            ]}"#,
        )
        .unwrap();
        let response = handle(&engine, &batch);
        let items = get(&response, "responses").unwrap().as_array().unwrap();
        assert_eq!(items.len(), 3);
        assert_eq!(get(&items[0], "ok"), Some(&Value::Bool(true)));
        assert_eq!(get(&items[1], "ok"), Some(&Value::Bool(true)));
        assert_eq!(get(&items[2], "ok"), Some(&Value::Bool(false)));
    }
}
