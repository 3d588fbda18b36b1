//! The JSON-lines service protocol: request parsing, response encoding,
//! and the line framing.
//!
//! One request object per line in, one response object per line out. This
//! module owns the wire format and dispatches nothing: [`Request::parse`]
//! turns a line into a typed request, the response encoders
//! ([`ok_value`], [`status_value`], [`query_value`], [`error_json`], …)
//! turn engine results into response values, and [`serve_lines_with`]
//! frames a byte stream around a caller's handler. The one dispatcher is
//! `ShardedServer::handle` in `privcluster-server`; the `serve` binary runs
//! it over stdin/stdout (a pipe in CI) and over each TCP connection (a
//! socket in a deployment) through the same framing loop.
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
//! spelling) returns the telemetry snapshot merged over every engine shard
//! — counters, gauges, and latency histograms, canonical JSON with sorted
//! series keys. Per the obs no-payload-data contract the snapshot carries
//! timings, counts, and `(ε, δ)` aggregates only, and reading it never
//! perturbs the engine: transcripts of the other ops are bit-identical
//! whether or not metrics are scraped in between.
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

use crate::engine::{DatasetStatus, DurabilityStatus, QueryResponse};
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
use serde_json::Parser;
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
    ///
    /// The first top-level `points` field is read straight into rows when
    /// it is an array of arrays of numbers: each coordinate goes through the
    /// vendored parser's number scan and `str::parse::<f64>`, with no
    /// [`Value`] node per coordinate, and the rows move into the request.
    /// Every other field is read as a [`Value`]. A line that reader does not
    /// take (not an object, a `points` of any other shape, a syntax error
    /// anywhere) is parsed again whole as a [`Value`], so it gets the answer
    /// the `Value` path gives it, error message included. A `points` nested
    /// below the top level, or repeated after the first, is an ordinary
    /// value: the first top-level one wins, as in a lookup on the `Value`.
    pub fn parse(line: &str) -> Result<Self, EngineError> {
        match read_object_taking_points(line) {
            Some((value, rows)) => Request::from_value(&value, rows),
            None => Request::parse_value(line),
        }
    }

    /// The `Value` path: the whole line as one [`Value`] tree.
    fn parse_value(line: &str) -> Result<Self, EngineError> {
        let value: Value = serde_json::from_str(line)
            .map_err(|e| EngineError::Protocol(format!("malformed JSON: {e}")))?;
        Request::from_value(&value, None)
    }

    /// The request a parsed line describes. `rows`, when present, are the
    /// line's top-level `points`, already read; the `Value` holds a `null`
    /// in their place.
    fn from_value(value: &Value, rows: Option<Vec<Vec<f64>>>) -> Result<Self, EngineError> {
        // `op` selects the operation; the telemetry-flavoured `cmd` alias
        // (`{"cmd":"metrics"}`) is accepted too, matching the scrape-tool
        // convention without disturbing the existing surface.
        let op = req_str(value, "op").or_else(|e| req_str(value, "cmd").map_err(|_| e))?;
        match op.as_str() {
            "register" => Ok(Request::Register(parse_register(value, rows)?)),
            "reregister" => Ok(Request::Reregister(parse_reregister(value, rows)?)),
            "query" => Ok(Request::Query(QueryRequest::parse(value)?)),
            "batch" => {
                let requests = req(value, "requests")?
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
                dataset: req_str(value, "dataset")?,
                version: opt_u64(value, "version")?,
            }),
            "list" => Ok(Request::List),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(EngineError::Protocol(format!("unknown op `{other}`"))),
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

/// Reads `line` as a top-level object, taking its first `points` field as
/// rows when it is an array of arrays of numbers; a `null` stands in its
/// place in the returned object. `None` for any line that is not such an
/// object, left to the `Value` path.
fn read_object_taking_points(line: &str) -> Option<(Value, Option<Vec<Vec<f64>>>)> {
    let mut p = Parser::new(line);
    let mut entries = Vec::new();
    let mut rows = None;
    p.skip_ws();
    read_list(&mut p, b'{', b'}', |p| {
        let key = p.string().ok()?;
        p.skip_ws();
        p.expect(b':').ok()?;
        p.skip_ws();
        let value = if rows.is_none() && key == "points" {
            rows = Some(read_rows(p)?);
            Value::Null
        } else {
            p.value().ok()?
        };
        entries.push((key, value));
        Some(())
    })?;
    p.end().ok()?;
    Some((Value::Object(entries), rows))
}

/// Reads an array of arrays of numbers.
fn read_rows(p: &mut Parser) -> Option<Vec<Vec<f64>>> {
    let mut rows: Vec<Vec<f64>> = Vec::new();
    read_list(p, b'[', b']', |p| {
        let mut row = Vec::with_capacity(rows.first().map_or(0, Vec::len));
        read_list(p, b'[', b']', |p| {
            row.push(p.number().ok()?);
            Some(())
        })?;
        rows.push(row);
        Some(())
    })?;
    Some(rows)
}

/// Reads `open`, then items separated by commas, then `close`, with the
/// whitespace rules of the vendored parser's arrays and objects.
fn read_list(
    p: &mut Parser,
    open: u8,
    close: u8,
    mut item: impl FnMut(&mut Parser) -> Option<()>,
) -> Option<()> {
    p.expect(open).ok()?;
    p.skip_ws();
    if p.peek() != Some(close) {
        loop {
            p.skip_ws();
            item(p)?;
            p.skip_ws();
            if p.peek() != Some(b',') {
                break;
            }
            p.expect(b',').ok()?;
        }
    }
    p.expect(close).ok()
}

/// A `points` value read through the `Value` path.
fn rows_of(points: &Value) -> Result<Vec<Vec<f64>>, EngineError> {
    points
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
                .collect()
        })
        .collect()
}

fn parse_source(
    value: &Value,
    rows: Option<Vec<Vec<f64>>>,
    domain: &GridDomain,
) -> Result<DataSource, EngineError> {
    match (get(value, "points"), get(value, "synthetic")) {
        (Some(points), None) => Ok(DataSource::Points(match rows {
            Some(rows) => rows,
            None => rows_of(points)?,
        })),
        (None, Some(spec)) => Ok(DataSource::Synthetic(parse_synthetic(spec, domain.dim())?)),
        _ => Err(EngineError::Protocol(
            "register needs exactly one of `points` or `synthetic`".into(),
        )),
    }
}

fn parse_register(
    value: &Value,
    rows: Option<Vec<Vec<f64>>>,
) -> Result<RegisterRequest, EngineError> {
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

    let dataset = req_str(value, "dataset")?;
    let backend = parse_backend(value)?;
    let source = parse_source(value, rows, &domain)?;
    Ok(RegisterRequest {
        dataset,
        domain,
        budget,
        mode,
        backend,
        source,
    })
}

fn parse_reregister(
    value: &Value,
    rows: Option<Vec<Vec<f64>>>,
) -> Result<ReregisterRequest, EngineError> {
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
    let dataset = req_str(value, "dataset")?;
    let domain = parse_domain(value)?;
    let backend = parse_backend(value)?;
    let source = parse_source(value, rows, &domain)?;
    Ok(ReregisterRequest {
        dataset,
        domain,
        backend,
        source,
    })
}

/// The most coordinates a synthetic registration may generate: as many as
/// the largest inline `points` line could carry, since every inline
/// coordinate takes at least a digit and a separator.
const MAX_SYNTHETIC_COORDINATES: usize = MAX_REQUEST_LINE_BYTES / 2;

/// Parses a synthetic spec for a `dim`-dimensional domain, refusing one
/// that would generate more than [`MAX_SYNTHETIC_COORDINATES`] coordinates
/// (a planted ball's centre and a mixture's `k` centres included) before
/// anything is built.
fn parse_synthetic(spec: &Value, dim: usize) -> Result<SyntheticSpec, EngineError> {
    let parsed = match req_str(spec, "kind")?.as_str() {
        "planted_ball" => SyntheticSpec::PlantedBall {
            n: req_usize(spec, "n")?,
            cluster_size: req_usize(spec, "cluster_size")?,
            cluster_radius: req_f64(spec, "cluster_radius")?,
            seed: req_u64(spec, "seed")?,
        },
        "gaussian_mixture" => SyntheticSpec::GaussianMixture {
            k: req_usize(spec, "k")?,
            per_cluster: req_usize(spec, "per_cluster")?,
            sigma: req_f64(spec, "sigma")?,
            background: req_usize(spec, "background")?,
            seed: req_u64(spec, "seed")?,
        },
        other => {
            return Err(EngineError::Protocol(format!(
                "unknown synthetic kind `{other}`"
            )))
        }
    };
    let points = match parsed {
        SyntheticSpec::PlantedBall { n, .. } => n.checked_add(1),
        SyntheticSpec::GaussianMixture {
            k,
            per_cluster,
            background,
            ..
        } => k
            .checked_mul(per_cluster)
            .and_then(|p| p.checked_add(background)?.checked_add(k)),
    };
    match points.and_then(|p| p.checked_mul(dim)) {
        Some(coordinates) if coordinates <= MAX_SYNTHETIC_COORDINATES => Ok(parsed),
        _ => Err(EngineError::Protocol(format!(
            "synthetic data would have more than {MAX_SYNTHETIC_COORDINATES} coordinates, \
             the most a request line carries inline"
        ))),
    }
}

impl DataSource {
    /// Builds the registration's dataset: the inline rows (moved, not
    /// copied), or the seeded synthetic workload generated on `domain`.
    pub fn materialize(self, domain: &GridDomain) -> Result<Dataset, EngineError> {
        let spec = match self {
            DataSource::Points(rows) => {
                return Dataset::from_rows(rows).map_err(|e| EngineError::Protocol(e.to_string()))
            }
            DataSource::Synthetic(spec) => spec,
        };
        match &spec {
            SyntheticSpec::PlantedBall {
                n,
                cluster_size,
                cluster_radius,
                seed,
            } => {
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
            SyntheticSpec::GaussianMixture {
                k,
                per_cluster,
                sigma,
                background,
                seed,
            } => {
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
}

/// A successful response: `{"ok":true,"op":op}` followed by `fields`.
pub fn ok_value(op: &str, fields: Vec<(&str, Value)>) -> Value {
    let mut entries = vec![("ok", Value::Bool(true)), ("op", s(op))];
    entries.extend(fields);
    obj(entries)
}

/// A dataset version's `status` object, as the `register`, `reregister` and
/// `status` responses carry it. `(ε, δ)` pairs and the composition mode use
/// dp's canonical [`Serialize`] encoding, the one the journal records.
pub fn status_value(status: &DatasetStatus) -> Value {
    obj(vec![
        ("dataset", s(status.name.clone())),
        ("version", num(status.version as f64)),
        ("points", num(status.points as f64)),
        ("dim", num(status.dim as f64)),
        ("budget", status.budget.to_json_value()),
        ("composition", status.mode.to_json_value()),
        ("backend", s(status.backend.as_str())),
        ("granted", num(status.granted as f64)),
        ("refused", num(status.refused as f64)),
        (
            "spent",
            status.spent.map_or(Value::Null, |p| p.to_json_value()),
        ),
        (
            "inherited_spend",
            status
                .inherited_spend
                .map_or(Value::Null, |p| p.to_json_value()),
        ),
        ("remaining_epsilon", num(status.remaining_epsilon)),
        ("remaining_delta", num(status.remaining_delta)),
    ])
}

/// The `durability` object of a `status` response.
pub fn durability_value(durability: DurabilityStatus) -> Value {
    obj(vec![
        ("journaled", Value::Bool(durability.journaled)),
        ("journal_seq", num(durability.journal_seq as f64)),
        ("recovered", Value::Bool(durability.recovered)),
    ])
}

/// A `query` response, and each member of a `batch` response: the result
/// released on `dataset`, or the refusal.
pub fn query_value(dataset: &str, result: &Result<QueryResponse, EngineError>) -> Value {
    match result {
        Ok(response) => ok_value(
            "query",
            vec![
                ("dataset", s(dataset)),
                ("cached", Value::Bool(response.cached)),
                (
                    "charged",
                    response.charged.map_or(Value::Null, |p| p.to_json_value()),
                ),
                ("remaining_epsilon", num(response.remaining_epsilon)),
                ("result", response.value.to_json_value()),
            ],
        ),
        Err(e) => error_json(e),
    }
}

/// The error response for an engine error.
pub fn error_json(error: &EngineError) -> Value {
    error_value(error.kind(), &error.to_string())
}

/// The protocol's error response shape, for any `(kind, message)` pair —
/// errors that are not [`EngineError`]s (the sharded server's `retry`
/// backpressure error) stay wire-identical through this.
pub fn error_value(kind: &str, message: &str) -> Value {
    obj(vec![
        ("ok", Value::Bool(false)),
        (
            "error",
            obj(vec![("kind", s(kind)), ("message", s(message))]),
        ),
    ])
}

/// Largest request line [`serve_lines_with`] buffers, in bytes. Requests carrying
/// inline points are large but bounded (a 100k-point, 10-d registration is
/// ≈ 20 MB of JSON); a *newline-free* stream is unbounded, and before this
/// cap existed one such TCP client could balloon the server's line buffer
/// until the process died. Oversized lines get a structured `protocol`
/// error response and the connection keeps serving.
pub const MAX_REQUEST_LINE_BYTES: usize = 32 * 1024 * 1024;

/// Capacity a connection's line buffer keeps between requests. A buffer
/// grown past it by a larger line shrinks back before the next read, so an
/// idle connection does not hold on to its largest request.
const RETAINED_LINE_BYTES: usize = 1 << 20;

/// One bounded read from the request stream.
enum LineRead {
    /// A complete line within the cap (without its newline) is in the
    /// buffer.
    Line,
    /// The line exceeded the cap; its bytes were drained and discarded.
    Oversize,
    /// End of input.
    Eof,
}

/// Reads one newline-terminated line of at most `max` bytes into `buf`
/// (cleared first). Bytes beyond the cap are consumed (so the stream stays
/// line-synchronised) but never buffered — memory use is bounded by `max`
/// no matter what the peer sends.
fn read_bounded_line<R: BufRead>(
    reader: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    buf.clear();
    buf.shrink_to(RETAINED_LINE_BYTES);
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
                LineRead::Line
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
                    LineRead::Line
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

/// Encodes `response` and its newline into one buffer and hands it to the
/// writer in one `write_all`: a socket that takes the whole buffer sends
/// the answer in one `write`, so a client reads it in one piece.
fn write_answer<W: Write>(writer: &mut W, response: &Value) -> std::io::Result<()> {
    let mut encoded =
        serde_json::to_string(response).expect("response serialization is infallible");
    encoded.push('\n');
    writer.write_all(encoded.as_bytes())?;
    writer.flush()
}

/// Serves newline-delimited JSON from `reader` through `handler`, writing
/// one response line per request to `writer` — the framing loop of every
/// transport (stdin/stdout and each TCP connection). The handler maps one
/// non-empty request line to `(response, stop)`. Each line is read into
/// one buffer the loop reuses and handed over as UTF-8 in place; only a
/// line with invalid UTF-8 is copied, its bad bytes replaced by U+FFFD.
/// Each answer goes out with its newline in one `write`. Request lines are
/// capped at [`MAX_REQUEST_LINE_BYTES`]: an oversized one is answered with
/// a `protocol` error without reaching the handler, so no transport can be
/// ballooned by a newline-free stream. Returns at end of input, or after a
/// response whose `stop` is set; the bool reports which (a TCP front end
/// uses it to stop listening).
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
    let mut buf = Vec::new();
    loop {
        match read_bounded_line(&mut reader, max_line_bytes, &mut buf)? {
            LineRead::Eof => return Ok(false),
            LineRead::Oversize => {
                let error = EngineError::Protocol(format!(
                    "request line exceeds the {max_line_bytes}-byte limit and was discarded"
                ));
                write_answer(&mut writer, &error_json(&error))?;
                continue;
            }
            LineRead::Line => {}
        }
        let line = String::from_utf8_lossy(&buf);
        if line.trim().is_empty() {
            continue;
        }
        let (response, stop) = handler(&line);
        let written = write_answer(&mut writer, &response);
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
    use proptest::prelude::*;
    use rand::seq::SliceRandom;
    use rand::Rng;

    /// Coordinate spellings the number scan must read as `str::parse` does.
    const SPELLED: [&str; 22] = [
        "0",
        "-0",
        "-0.0",
        "0.0",
        "1.",
        "01",
        "00.5",
        "0.5",
        "-0.25",
        "1e-3",
        "1E2",
        "2.5e+1",
        "-3.75E-2",
        "4.9e-324",
        "2.2250738585072009e-308",
        "1e-310",
        "0.12345678901234567",
        "0.30000000000000004",
        "9007199254740993",
        "1.7976931348623157e308",
        "1e400",
        "-1e400",
    ];

    /// Values a later, duplicate `points` may carry: any valid JSON.
    const LATER_POINTS: [&str; 6] = ["\"x\"", "null", "[[9,9]]", "{\"a\":[1]}", "[]", "7"];

    fn ws(rng: &mut StdRng) -> &'static str {
        ["", "", " ", "  ", "\t", "\n", "\r\n "][rng.gen_range(0..7)]
    }

    fn coordinate(rng: &mut StdRng) -> String {
        match rng.gen_range(0..3) {
            0 => SPELLED[rng.gen_range(0..SPELLED.len())].to_string(),
            1 => format!("{:?}", rng.gen::<f64>() * 3.0 - 1.0),
            _ => format!("{:.16e}", rng.gen::<f64>()),
        }
    }

    /// `items` joined by commas inside `open`/`close`, whitespace anywhere
    /// the grammar allows it.
    fn list(rng: &mut StdRng, open: char, close: char, items: Vec<String>) -> String {
        let mut out = format!("{open}{}", ws(rng));
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push_str(&format!("{},{}", ws(rng), ws(rng)));
            }
            out.push_str(item);
        }
        out.push_str(&format!("{}{close}", ws(rng)));
        out
    }

    fn points_value(rng: &mut StdRng) -> String {
        let dim = rng.gen_range(1..4);
        let rows = (0..rng.gen_range(0..6))
            .map(|_| {
                // Now and then a ragged row, which the dataset refuses later.
                let len = if rng.gen_bool(0.1) {
                    rng.gen_range(0..4)
                } else {
                    dim
                };
                let coords = (0..len).map(|_| coordinate(rng)).collect();
                list(rng, '[', ']', coords)
            })
            .collect();
        list(rng, '[', ']', rows)
    }

    /// A `register` or `reregister` line with its fields in random order,
    /// whitespace between tokens, sometimes duplicate keys (the first wins)
    /// and a `points` nested where it is not taken. With `synthetic` the
    /// top level has no `points` at all.
    fn registration_line(rng: &mut StdRng, synthetic: bool) -> String {
        let first = rng.gen_bool(0.5);
        let mut fields = vec![
            format!(
                "\"op\":{}\"{}\"",
                ws(rng),
                if first { "register" } else { "reregister" }
            ),
            "\"dataset\":\"d\"".to_string(),
            if rng.gen_bool(0.3) {
                "\"domain\":{\"dim\":2,\"points\":[[1,2]],\"size\":16}".to_string()
            } else {
                "\"domain\":{\"dim\":2,\"size\":16}".to_string()
            },
        ];
        if first {
            fields.push("\"budget\":{\"epsilon\":1.0,\"delta\":1e-6}".to_string());
            if rng.gen_bool(0.3) {
                fields.push("\"composition\":\"basic\"".to_string());
            }
        }
        if rng.gen_bool(0.3) {
            fields.push("\"backend\":\"exact\"".to_string());
        }
        if rng.gen_bool(0.2) {
            fields.push("\"extra\":{\"points\":[[3]]}".to_string());
        }
        fields.shuffle(rng);
        if rng.gen_bool(0.2) {
            let at = rng.gen_range(1..fields.len() + 1);
            fields.insert(at, "\"dataset\":\"later\"".to_string());
        }
        if synthetic {
            let at = rng.gen_range(0..fields.len() + 1);
            fields.insert(
                at,
                "\"synthetic\":{\"kind\":\"planted_ball\",\"n\":10,\"cluster_size\":5,\
                 \"cluster_radius\":0.1,\"seed\":1}"
                    .to_string(),
            );
        } else {
            let at = [0, fields.len() / 2, fields.len()][rng.gen_range(0..3)];
            let key = if rng.gen_bool(0.1) {
                "po\\u0069nts"
            } else {
                "points"
            };
            let points = format!("\"{key}\"{}:{}{}", ws(rng), ws(rng), points_value(rng));
            fields.insert(at, points);
            if rng.gen_bool(0.3) {
                let later = LATER_POINTS[rng.gen_range(0..LATER_POINTS.len())];
                let at = rng.gen_range(at + 1..fields.len() + 1);
                fields.insert(at, format!("\"points\":{later}"));
            }
        }
        format!("{}{}{}", ws(rng), list(rng, '{', '}', fields), ws(rng))
    }

    /// The two paths' answers, compared through `Debug`, which tells
    /// `-0.0` from `0.0` and prints every other f64 exactly.
    fn both_paths(line: &str) -> (String, String) {
        (
            format!("{:?}", Request::parse(line)),
            format!("{:?}", Request::parse_value(line)),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn the_points_reader_gives_the_value_paths_request(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let synthetic = rng.gen_bool(0.15);
            let line = registration_line(&mut rng, synthetic);
            let taken = read_object_taking_points(&line).map(|(_, rows)| rows.is_some());
            prop_assert!(taken == Some(!synthetic), "line {line:?}");
            let (reader, value_path) = both_paths(&line);
            prop_assert!(reader == value_path, "{reader} != {value_path} for {line:?}");
        }

        #[test]
        fn lines_the_value_path_refuses_are_refused_alike(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let line = registration_line(&mut rng, false);
            // Spoil the line: a coordinate that is not a JSON number, a
            // `points` of another shape, or a cut anywhere.
            const BAD_NUMBERS: [&str; 12] =
                ["+1", ".5", "1e", "--1", "1.2.3", "-", "1-2", "0x10", "NaN", "null", "\"1\"", "[1]"];
            const BAD_POINTS: [&str; 10] = [
                "{}", "\"p\"", "[1,2]", "[[1],2]", "[[1,]]", "[,[1]]", "[[1] [2]]", "[[1]", "null", "3",
            ];
            let spoiled = match rng.gen_range(0..3) {
                0 => format!(
                    "{{\"op\":\"register\",\"dataset\":\"d\",\"domain\":{{\"dim\":2,\"size\":16}},\
                     \"budget\":{{\"epsilon\":1.0,\"delta\":1e-6}},\"points\":[[0.5,{}]]}}",
                    BAD_NUMBERS[rng.gen_range(0..BAD_NUMBERS.len())]
                ),
                1 => format!(
                    "{{\"op\":\"reregister\",\"points\":{},\"dataset\":\"d\",\
                     \"domain\":{{\"dim\":2,\"size\":16}}}}",
                    BAD_POINTS[rng.gen_range(0..BAD_POINTS.len())]
                ),
                _ => {
                    // Anywhere before the closing brace.
                    let mut cut = rng.gen_range(0..line.rfind('}').unwrap() + 1);
                    while !line.is_char_boundary(cut) {
                        cut -= 1;
                    }
                    line[..cut].to_string()
                }
            };
            let (reader, value_path) = both_paths(&spoiled);
            prop_assert!(reader == value_path, "{reader} != {value_path} for {spoiled:?}");
            match Request::parse(&spoiled) {
                Err(e) => prop_assert!(e.kind() == "protocol", "{e:?} for {spoiled:?}"),
                Ok(_) => prop_assert!(false, "accepted {spoiled:?}"),
            }
        }
    }

    #[test]
    fn the_reader_takes_only_the_first_top_level_points() {
        let line = r#"{"points":[[1,2],[-0.0,3]],"op":"x","points":"later","n":{"points":[[5]]}}"#;
        let (value, rows) = read_object_taking_points(line).unwrap();
        let rows = rows.unwrap();
        assert_eq!(rows, vec![vec![1.0, 2.0], vec![0.0, 3.0]]);
        assert!(rows[1][0].is_sign_negative());
        assert_eq!(
            serde_json::to_string(&value).unwrap(),
            r#"{"points":null,"op":"x","points":"later","n":{"points":[[5]]}}"#
        );
        // Anything but a top-level object of that shape is left whole to
        // the `Value` path.
        for line in [
            r#"[[1]]"#,
            r#"{"points":[[1,null]]}"#,
            r#"{"points":[[+1]]}"#,
            r#"{"a":1}x"#,
        ] {
            assert!(read_object_taking_points(line).is_none(), "{line}");
        }
        let (_, rows) = read_object_taking_points(r#"{"op":"list"}"#).unwrap();
        assert!(rows.is_none());
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
    fn synthetic_specs_beyond_an_inline_lines_coordinates_are_refused() {
        let register = |dim: usize, synthetic: &str| {
            format!(
                r#"{{"op":"register","dataset":"d","domain":{{"dim":{dim},"size":16}},"budget":{{"epsilon":1.0,"delta":1e-6}},"synthetic":{synthetic}}}"#
            )
        };
        let ball = |n: usize| {
            format!(
                r#"{{"kind":"planted_ball","n":{n},"cluster_size":1,"cluster_radius":0.1,"seed":1}}"#
            )
        };
        let mixture = |k: usize, per_cluster: usize, background: usize| {
            format!(
                r#"{{"kind":"gaussian_mixture","k":{k},"per_cluster":{per_cluster},"sigma":0.1,"background":{background},"seed":1}}"#
            )
        };
        let refused = [
            register(2, &ball(1 << 52)),
            register(1 << 40, &ball(100)),
            // The centre alone is `dim` coordinates.
            register(1 << 40, &ball(0)),
            register(2, &mixture(1 << 40, 1 << 40, 0)),
            register(2, &mixture(3, 1 << 52, 1 << 52)),
            register(2, &mixture(1 << 52, 0, 0)),
            // The centre and `n` points.
            register(1, &ball(MAX_SYNTHETIC_COORDINATES)),
            register(2, &ball(MAX_SYNTHETIC_COORDINATES / 2)),
            // One centre and `per_cluster` points.
            register(1, &mixture(1, MAX_SYNTHETIC_COORDINATES, 0)),
        ];
        for line in &refused {
            let err = Request::parse(line).expect_err(line);
            assert_eq!(err.kind(), "protocol", "{line}");
            assert!(err.to_string().contains("coordinates"), "{err}");
            let rereg = line.replace(r#""op":"register""#, r#""op":"reregister""#);
            let rereg = rereg.replace(r#""budget":{"epsilon":1.0,"delta":1e-6},"#, "");
            assert_eq!(Request::parse(&rereg).expect_err(&rereg).kind(), "protocol");
        }
        // At the limit, and the workloads the smoke and large-n transcripts
        // register, are accepted.
        for line in [
            register(1, &ball(MAX_SYNTHETIC_COORDINATES - 1)),
            register(2, &ball(MAX_SYNTHETIC_COORDINATES / 2 - 1)),
            register(1, &mixture(1, MAX_SYNTHETIC_COORDINATES - 1, 0)),
            register(2, &ball(50_000)),
        ] {
            assert!(Request::parse(&line).is_ok(), "{line}");
        }
    }

    #[test]
    fn oversize_request_lines_get_an_error_and_the_connection_survives() {
        let cap = 256usize;
        // Line 1: oversize (newline-terminated). Line 2: oversize with NO
        // trailing newline (the unbounded-buffer attack shape: a stream
        // that never sends '\n'). Between them, valid requests must still
        // be served.
        let oversize = "x".repeat(cap + 10);
        let script = format!("{oversize}\n{{\"op\":\"list\"}}\n{oversize}");
        // The handler echoes each request it is handed back as the response.
        let echo = |line: &str| (serde_json::from_str(line).unwrap_or(Value::Null), false);
        let mut out = Vec::new();
        let stopped = serve_lines_bounded_with(script.as_bytes(), &mut out, cap, echo).unwrap();
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
            let mut buf = Vec::new();
            let mut out = Vec::new();
            loop {
                match read_bounded_line(&mut reader, cap, &mut buf).unwrap() {
                    LineRead::Eof => break,
                    LineRead::Oversize => out.push(None),
                    LineRead::Line => out.push(Some(String::from_utf8(buf.clone()).unwrap())),
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
}
