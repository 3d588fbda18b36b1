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

impl DataSource {
    /// Builds the registration's dataset: the inline rows, or the seeded
    /// synthetic workload generated on `domain`.
    pub fn materialize(&self, domain: &GridDomain) -> Result<Dataset, EngineError> {
        match self {
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

/// Serves newline-delimited JSON from `reader` through `handler`, writing
/// one response line per request to `writer` — the framing loop of every
/// transport (stdin/stdout and each TCP connection). The handler maps one
/// non-empty request line to `(response, stop)`. Request lines are capped
/// at [`MAX_REQUEST_LINE_BYTES`]: an oversized one is answered with a
/// `protocol` error without reaching the handler, so no transport can be
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
}
