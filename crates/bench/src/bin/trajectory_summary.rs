//! Merges a criterion `CRITERION_EXPORT_JSON` export with the release
//! service's own latency histograms into one benchmark-trajectory point.
//!
//! ```text
//! trajectory_summary <criterion.jsonl> [metrics.json] [--loadgen OUT.json]... > BENCH_N.json
//! ```
//!
//! `criterion.jsonl` is the JSON-lines file the vendored criterion shim
//! appends (`{"name","p50","p90","mean","n"}`, seconds per sample).
//! `metrics.json` is optional: a `{"cmd":"metrics"}` response line from
//! the `serve` binary (or the bare snapshot document); every non-empty
//! latency histogram in it becomes a `serve/<name>` entry with quantiles
//! interpolated from the histogram buckets. Each `--loadgen` flag names a
//! `loadgen` result document; its latency percentiles become a
//! `loadgen/<label>` entry and its admitted-query rate a bare
//! `loadgen/<label>/throughput_rps` number, so commit-batching comparisons
//! (batches of 64 vs batches of one) land in the same trajectory point. The
//! output is one sorted JSON object, benchmark name →
//! `{p50, p90, mean, n}` — successive PRs commit successive
//! `BENCH_*.json` files, so regressions show up as a diff.

use privcluster_obs::HistogramSnapshot;
use serde::Value;
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One trajectory entry, all latencies in seconds.
struct Point {
    p50: f64,
    p90: f64,
    mean: f64,
    n: u64,
}

fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    match v {
        Value::Object(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Number(n) => Some(*n),
        _ => None,
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("trajectory_summary: {message}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut positional: Vec<String> = Vec::new();
    let mut loadgen_paths: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--loadgen" {
            let Some(path) = args.next() else {
                return fail("--loadgen requires a path");
            };
            loadgen_paths.push(path);
        } else {
            positional.push(arg);
        }
    }
    let mut positional = positional.into_iter();
    let Some(criterion_path) = positional.next() else {
        eprintln!(
            "usage: trajectory_summary <criterion.jsonl> [metrics.json] [--loadgen OUT.json]..."
        );
        return ExitCode::from(2);
    };
    let metrics_path = positional.next();

    let mut points: BTreeMap<String, Point> = BTreeMap::new();
    let mut extras: BTreeMap<String, Value> = BTreeMap::new();
    let criterion = match std::fs::read_to_string(&criterion_path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read {criterion_path}: {e}")),
    };
    for line in criterion.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(doc) = serde_json::from_str::<Value>(line) else {
            return fail(&format!("unparseable criterion line: {line}"));
        };
        let (Some(Value::String(name)), Some(p50), Some(p90), Some(mean), Some(n)) = (
            get(&doc, "name"),
            get(&doc, "p50").and_then(num),
            get(&doc, "p90").and_then(num),
            get(&doc, "mean").and_then(num),
            get(&doc, "n").and_then(num),
        ) else {
            return fail(&format!("criterion line missing fields: {line}"));
        };
        points.insert(
            name.clone(),
            Point {
                p50,
                p90,
                mean,
                n: n as u64,
            },
        );
    }

    if let Some(path) = metrics_path {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        let Ok(doc) = serde_json::from_str::<Value>(text.trim()) else {
            return fail(&format!("unparseable metrics document in {path}"));
        };
        // Accept either the wire response (`{"ok":…,"metrics":{…}}`) or the
        // bare snapshot document.
        let metrics = get(&doc, "metrics").unwrap_or(&doc);
        let Some(Value::Object(histograms)) = get(metrics, "histograms") else {
            return fail(&format!("no histograms member in {path}"));
        };
        for (name, h) in histograms {
            let nums = |key: &str| -> Option<Vec<f64>> {
                match get(h, key)? {
                    Value::Array(items) => items.iter().map(num).collect(),
                    _ => None,
                }
            };
            let (Some(bounds), Some(buckets), Some(sum)) =
                (nums("bounds"), nums("buckets"), get(h, "sum").and_then(num))
            else {
                return fail(&format!("histogram {name} missing fields in {path}"));
            };
            let snapshot = HistogramSnapshot {
                bounds,
                buckets: buckets.iter().map(|&b| b as u64).collect(),
                sum,
                count: buckets.iter().map(|&b| b as u64).sum(),
            };
            if snapshot.count == 0 {
                continue; // nothing observed; an all-zero entry is noise
            }
            points.insert(
                format!("serve/{name}"),
                Point {
                    p50: snapshot.quantile(0.5).unwrap_or(0.0),
                    p90: snapshot.quantile(0.9).unwrap_or(0.0),
                    mean: snapshot.mean().unwrap_or(0.0),
                    n: snapshot.count,
                },
            );
        }
    }

    for path in loadgen_paths {
        let text = match std::fs::read_to_string(&path) {
            Ok(text) => text,
            Err(e) => return fail(&format!("cannot read {path}: {e}")),
        };
        let Ok(doc) = serde_json::from_str::<Value>(text.trim()) else {
            return fail(&format!("unparseable loadgen document in {path}"));
        };
        let (
            Some(Value::String(label)),
            Some(p50),
            Some(p90),
            Some(mean),
            Some(ok),
            Some(throughput),
        ) = (
            get(&doc, "label"),
            get(&doc, "p50_seconds").and_then(num),
            get(&doc, "p90_seconds").and_then(num),
            get(&doc, "mean_seconds").and_then(num),
            get(&doc, "ok").and_then(num),
            get(&doc, "throughput_rps").and_then(num),
        )
        else {
            return fail(&format!("loadgen document missing fields in {path}"));
        };
        if label.is_empty() {
            return fail(&format!("loadgen document in {path} has an empty label"));
        }
        points.insert(
            format!("loadgen/{label}"),
            Point {
                p50,
                p90,
                mean,
                n: ok as u64,
            },
        );
        extras.insert(
            format!("loadgen/{label}/throughput_rps"),
            Value::Number(throughput),
        );
    }

    let mut merged: BTreeMap<String, Value> = extras;
    for (name, p) in points {
        merged.insert(
            name,
            Value::Object(vec![
                ("p50".to_string(), Value::Number(p.p50)),
                ("p90".to_string(), Value::Number(p.p90)),
                ("mean".to_string(), Value::Number(p.mean)),
                ("n".to_string(), Value::Number(p.n as f64)),
            ]),
        );
    }
    let doc = Value::Object(merged.into_iter().collect());
    match serde_json::to_string(&doc) {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("cannot serialize summary: {e}")),
    }
}
