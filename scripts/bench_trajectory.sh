#!/usr/bin/env bash
# Records one benchmark trajectory point.
#
#   scripts/bench_trajectory.sh [OUT.json]
#
# Runs the selected criterion benches with the shim's CRITERION_EXPORT_JSON
# export enabled, drives the release `serve` binary through the smoke
# workload and scrapes its latency histograms via the `{"cmd":"metrics"}`
# wire op, then runs the TCP `loadgen` twice against a journaled server —
# once with group-commit batches of up to 64 records, once with batches of
# one (the per-charge fsync baseline) — and merges everything into one
# sorted JSON document (bench name -> {p50, p90, mean, n}, seconds, plus
# bare loadgen/<label>/throughput_rps numbers). The pair is the headline:
# one batched fsync amortized over concurrent admissions vs one fsync per
# charge. Successive PRs commit successive BENCH_<pr>.json files, so
# performance history lives in git.
#
# BENCHES overrides the bench-target list (space-separated); the default
# covers the core algorithm and the end-to-end engine path without taking
# all afternoon. LOADGEN_REQUESTS overrides the per-run request count.
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-BENCH_10.json}"
BENCHES="${BENCHES:-bench_good_radius bench_engine_throughput}"
LOADGEN_REQUESTS="${LOADGEN_REQUESTS:-3200}"
TMP="$(mktemp -d)"
SERVE_PID=""
cleanup() {
  [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

cargo build --release -q -p privcluster-server --bin serve --bin loadgen
cargo build --release -q -p privcluster-bench --bin trajectory_summary

export CRITERION_EXPORT_JSON="$TMP/criterion.jsonl"
for bench in $BENCHES; do
  cargo bench -q -p privcluster-bench --bench "$bench"
done

# The smoke workload with a metrics scrape inserted before shutdown; the
# scrape response line is the canonical snapshot document.
head -n -1 crates/engine/tests/data/smoke_requests.jsonl > "$TMP/requests.jsonl"
printf '%s\n' '{"cmd":"metrics"}' '{"op":"shutdown"}' >> "$TMP/requests.jsonl"
./target/release/serve --in-memory < "$TMP/requests.jsonl" > "$TMP/responses.jsonl"
grep '"op":"metrics"' "$TMP/responses.jsonl" > "$TMP/metrics.json"

# TCP load comparison: same workload, same box, same single shard — the
# only difference is the group-commit batch size. Batches of 64 put every
# queued charge behind one sync_data; batches of one pay one fsync per
# charge (releases never pay one). Each setting runs LOADGEN_TRIALS times
# (the criterion benches leave the box noisy — dirty pages, hot caches)
# and the median-throughput run is kept.
run_loadgen_once() {
  local label=$1 out=$2; shift 2
  local work="$TMP/$label.work"
  rm -rf "$work" && mkdir -p "$work"
  ./target/release/serve --shards 1 --journal "$work/journal.pcsj" \
    --max-inflight 64 --tcp 127.0.0.1:0 "$@" \
    > "$work/serve.out" 2> "$work/serve.err" &
  SERVE_PID=$!
  local addr=""
  for _ in $(seq 1 200); do
    addr=$(sed -n 's/.*engine listening on //p' "$work/serve.err" | head -1)
    [ -n "$addr" ] && break
    sleep 0.05
  done
  [ -n "$addr" ] || { echo "bench trajectory: $label serve never bound" >&2; exit 1; }
  ./target/release/loadgen --addr "$addr" --connections 8 \
    --requests "$LOADGEN_REQUESTS" --datasets 8 --points 8 --seed 42 \
    --label "$label" --shutdown > "$out"
  wait "$SERVE_PID" 2>/dev/null || true
  SERVE_PID=""
}
run_loadgen() {
  local label=$1; shift
  sync  # flush criterion/loadgen writeback so it doesn't tax the trials
  sleep 1
  for trial in $(seq 1 "$LOADGEN_TRIALS"); do
    run_loadgen_once "$label" "$TMP/$label.$trial.json" "$@"
  done
  # Keep the median trial (by throughput): robust against a one-off stall.
  local median
  median=$(for trial in $(seq 1 "$LOADGEN_TRIALS"); do
    rps=$(sed -n 's/.*"throughput_rps":\([0-9.]*\).*/\1/p' "$TMP/$label.$trial.json")
    echo "$rps $trial"
  done | sort -n | awk -v n="$LOADGEN_TRIALS" 'NR == int((n + 1) / 2) {print $2}')
  cp "$TMP/$label.$median.json" "$TMP/$label.json"
}
LOADGEN_TRIALS="${LOADGEN_TRIALS:-3}"
run_loadgen group_commit --group-commit-max-batch 64 --group-commit-max-wait-us 0
run_loadgen per_charge_fsync --group-commit-max-batch 1 --group-commit-max-wait-us 0

./target/release/trajectory_summary "$CRITERION_EXPORT_JSON" "$TMP/metrics.json" \
  --loadgen "$TMP/group_commit.json" \
  --loadgen "$TMP/per_charge_fsync.json" > "$OUT"
echo "bench trajectory written to $OUT" >&2
