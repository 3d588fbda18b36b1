//! In-process version of the CI smoke test: pipe the canned JSON-lines
//! request script through a one-shard server's serve loop and diff against
//! the committed golden output. CI additionally runs the same script
//! through the actual `serve` binary (see `.github/workflows/ci.yml`), so
//! the golden file is exercised both in-process and across the process
//! boundary, through the same dispatcher (`ShardedServer::handle`).
//!
//! Everything on the wire is deterministic — seeded xoshiro RNG streams,
//! no wall-clock fields, and the shim serializer's stable float formatting
//! — so the comparison is exact.
//!
//! The telemetry plane's wire contract rides on the same script:
//!
//! * the `{"cmd":"metrics"}` wire op round-trips through the vendored JSON
//!   parser and reports the workload it watched (non-zero admission
//!   latency, budget gauges agreeing with `status`);
//! * metrics requests are **passive**: interleaving them into the smoke
//!   script leaves every non-metrics response line bit-identical to the
//!   committed golden transcript.

use privcluster_engine::{serve_lines_with, Engine, EngineConfig};
use privcluster_server::ShardedServer;
use serde::Value;

const REQUESTS: &str = include_str!("../../engine/tests/data/smoke_requests.jsonl");
const GOLDEN: &str = include_str!("../../engine/tests/data/smoke_golden.jsonl");

/// The in-memory single-shard server `serve --in-memory` runs.
fn server() -> ShardedServer {
    let engine = Engine::new(EngineConfig {
        threads: 2,
        cache_capacity: 32,
        ..EngineConfig::default()
    });
    ShardedServer::new(vec![engine], 0)
}

/// `script`'s transcript through `server`'s serve loop.
fn transcript(server: &ShardedServer, script: &str) -> String {
    let mut out = Vec::new();
    serve_lines_with(script.as_bytes(), &mut out, |line| server.handle_line(line)).unwrap();
    String::from_utf8(out).unwrap()
}

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    match v {
        Value::Object(entries) => entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing key `{key}`")),
        other => panic!("expected object at `{key}`, got {other:?}"),
    }
}

fn as_num(v: &Value) -> f64 {
    match v {
        Value::Number(n) => *n,
        other => panic!("expected number, got {other:?}"),
    }
}

#[test]
fn canned_requests_reproduce_the_golden_transcript() {
    let produced = transcript(&server(), REQUESTS);
    for (i, (got, want)) in produced.lines().zip(GOLDEN.lines()).enumerate() {
        assert_eq!(
            got,
            want,
            "line {} of the smoke transcript diverged from the golden file",
            i + 1
        );
    }
    assert_eq!(
        produced.lines().count(),
        GOLDEN.lines().count(),
        "smoke transcript length diverged from the golden file"
    );
}

#[test]
fn metrics_wire_op_round_trips_and_reports_the_workload() {
    let server = server();
    // The smoke script with a metrics request (deliberately using the `cmd`
    // alias) inserted before shutdown.
    let mut script = String::new();
    for line in REQUESTS.lines() {
        if line.contains("\"shutdown\"") {
            script.push_str("{\"cmd\":\"metrics\"}\n");
        }
        script.push_str(line);
        script.push('\n');
    }
    let produced = transcript(&server, &script);
    let metrics_line = produced
        .lines()
        .find(|l| l.contains("\"op\":\"metrics\""))
        .expect("metrics response line");

    // Round-trip through the vendored parser: the response is one JSON
    // object whose `metrics` member is the canonical snapshot document.
    let doc: Value = serde_json::from_str(metrics_line).expect("metrics response parses");
    assert_eq!(get(&doc, "ok"), &Value::Bool(true));
    let metrics = get(&doc, "metrics");
    let histograms = get(metrics, "histograms");
    let admission = get(histograms, "admission_seconds");
    // Five query admissions ran before the scrape: two fresh + one cached
    // against v1, then one fresh + one version-pinned replay after the
    // mid-workload re-registration.
    assert_eq!(as_num(get(admission, "count")), 5.0);
    assert!(
        as_num(get(admission, "sum")) > 0.0,
        "non-zero admission time"
    );
    let counters = get(metrics, "counters");
    assert_eq!(as_num(get(counters, "queries_total")), 5.0);
    assert_eq!(as_num(get(counters, "cache_hits_total")), 2.0);
    assert_eq!(as_num(get(counters, "cache_misses_total")), 3.0);
    assert_eq!(as_num(get(counters, "reregistrations_total")), 1.0);

    // The budget gauges agree with the `status` op's ledger view.
    let status = server.engines()[0].status("smoke").unwrap();
    let gauges = get(metrics, "gauges");
    let eps = as_num(get(gauges, "budget_epsilon_remaining{dataset=\"smoke\"}"));
    assert!((eps - status.remaining_epsilon).abs() < 1e-12);
    let delta = as_num(get(gauges, "budget_delta_remaining{dataset=\"smoke\"}"));
    assert!((delta - status.remaining_delta).abs() < 1e-15);
    assert_eq!(
        as_num(get(gauges, "budget_spend_count{dataset=\"smoke\"}")),
        status.granted as f64
    );
    assert_eq!(
        as_num(get(gauges, "dataset_version{dataset=\"smoke\"}")),
        status.version as f64
    );
    assert_eq!(status.version, 2);
}

/// Interleaving metrics scrapes into the smoke script must not perturb a
/// single byte of the protocol's other responses.
#[test]
fn metrics_requests_are_passive_against_the_golden_transcript() {
    let mut script = String::new();
    for line in REQUESTS.lines() {
        // A scrape before every request, including one before shutdown.
        script.push_str("{\"op\":\"metrics\"}\n");
        script.push_str(line);
        script.push('\n');
    }
    let produced = transcript(&server(), &script);
    let non_metrics: Vec<&str> = produced
        .lines()
        .filter(|l| !l.contains("\"op\":\"metrics\""))
        .collect();
    let golden: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(
        non_metrics, golden,
        "metrics scrapes perturbed the golden transcript"
    );
}
