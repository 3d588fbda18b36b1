#!/usr/bin/env bash
# Metrics smoke test: prove the telemetry plane is wired end to end AND
# observably passive, against the release `serve` binary.
#
# Phase 1 (in-memory): run the smoke workload with a `{"op":"metrics"}`
# scrape interleaved before every request and the `--metrics` endpoint
# bound on an ephemeral port. Asserts:
#   * the Prometheus scrape (bash /dev/tcp, no curl needed) exposes the
#     required series — admission_seconds, fsync_seconds, cache_hits_total,
#     budget_epsilon_remaining, plus the serving-layer series:
#     backpressure_rejections_total (0: nothing was rejected), the
#     per-shard shard_inflight and commit_queue_depth gauges, the
#     per-shard durability-health gauges (store_writer_alive 1,
#     store_commit_error 0, store_snapshot_bytes 0 in memory), and the
#     group_commit_batch_size histogram — the per-dataset budget gauge
#     carries the post-workload headroom (8 - 1 - 4 - 1 = 2 ε remaining: the inherited
#     ledger keeps composing across the mid-workload re-registration), the
#     dataset_version gauge reflects the new version, and the
#     reregistrations_total counter recorded it;
#   * filtering the metrics responses out of the transcript leaves it
#     byte-identical to the committed golden file: telemetry perturbs
#     nothing.
#
# Phase 2 (journaled): replay the same workload in write-ahead mode with
# `--events` and the group-commit writer at batch 8 with a 1 ms dwell.
# Asserts the `{"cmd":"metrics"}` wire op (the `cmd` alias, so both
# spellings stay live) reports a non-empty fsync histogram AND a non-empty
# group_commit_batch_size histogram (every batched fsync records its batch
# size), the health gauges show a live group-commit writer with no sticky
# error, and the events file carries the structured `serve.banner`
# recovery event.
#
# Phase 3 (snapshots): the same workload with `--snapshot-dir` and
# `--snapshot-every 2`. Asserts the per-shard store_snapshot_bytes gauge
# equals the size of the newest snapshot file, and that pruning left at
# most two snapshot files.
set -euo pipefail

BIN=${1:-./target/release/serve}
DATA=crates/engine/tests/data
WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
fail() {
    echo "metrics smoke: $1" >&2
    exit 1
}

# --- Phase 1: in-memory, interleaved scrapes + endpoint + passivity ------
head -n -1 "$DATA/smoke_requests.jsonl" \
    | awk '{print "{\"op\":\"metrics\"}"; print}' > "$WORK/phase1_pre.jsonl"
EXPECTED=$(wc -l < "$WORK/phase1_pre.jsonl")

mkfifo "$WORK/requests"
"$BIN" --in-memory --metrics 127.0.0.1:0 < "$WORK/requests" \
    > "$WORK/phase1.jsonl" 2>"$WORK/phase1.err" &
SERVE_PID=$!
exec 3>"$WORK/requests"

cat "$WORK/phase1_pre.jsonl" >&3
for _ in $(seq 1 600); do
    [ "$(wc -l < "$WORK/phase1.jsonl")" -ge "$EXPECTED" ] && break
    sleep 0.1
done
[ "$(wc -l < "$WORK/phase1.jsonl")" -ge "$EXPECTED" ] || {
    cat "$WORK/phase1.err" >&2
    fail "phase 1 stalled"
}

# Scrape the Prometheus endpoint over /dev/tcp while the service is live.
grep -q "metrics listening on" "$WORK/phase1.err" || fail "no metrics listener banner"
ADDR=$(sed -n 's/.*metrics listening on //p' "$WORK/phase1.err" | head -1)
HOST=${ADDR%:*}
PORT=${ADDR##*:}
exec 4<>"/dev/tcp/$HOST/$PORT"
printf 'GET /metrics HTTP/1.0\r\n\r\n' >&4
cat <&4 > "$WORK/scrape.http"
exec 4>&- 4<&-
sed '1,/^\r\{0,1\}$/d' "$WORK/scrape.http" > "$WORK/scrape.txt"

for series in admission_seconds fsync_seconds cache_hits_total budget_epsilon_remaining; do
    grep -q "^# TYPE $series" "$WORK/scrape.txt" \
        || fail "series $series missing from the scrape"
done
grep -q 'budget_epsilon_remaining{dataset="smoke"} 2' "$WORK/scrape.txt" \
    || fail "per-dataset budget gauge wrong or missing in the scrape"
grep -q 'dataset_version{dataset="smoke"} 2' "$WORK/scrape.txt" \
    || fail "dataset_version gauge did not follow the re-registration"
grep -q 'reregistrations_total 1' "$WORK/scrape.txt" \
    || fail "reregistrations_total did not count the re-registration"
grep -q 'admission_seconds_count 5' "$WORK/scrape.txt" \
    || fail "admission histogram did not record the five smoke queries"
grep -q '^# TYPE backpressure_rejections_total counter' "$WORK/scrape.txt" \
    || fail "backpressure_rejections_total missing from the scrape"
grep -q '^backpressure_rejections_total 0$' "$WORK/scrape.txt" \
    || fail "backpressure counter nonzero on an unloaded run"
grep -q 'shard_inflight{shard="0"} 0' "$WORK/scrape.txt" \
    || fail "per-shard in-flight gauge missing from the scrape"
grep -q 'commit_queue_depth{shard="0"} 0' "$WORK/scrape.txt" \
    || fail "per-shard commit-queue gauge missing from the scrape"
grep -q '^# TYPE group_commit_batch_size histogram' "$WORK/scrape.txt" \
    || fail "group_commit_batch_size histogram missing from the scrape"
grep -q '^store_writer_alive{shard="0"} 1$' "$WORK/scrape.txt" \
    || fail "per-shard store_writer_alive gauge wrong or missing in the scrape"
grep -q '^store_commit_error{shard="0"} 0$' "$WORK/scrape.txt" \
    || fail "per-shard store_commit_error gauge wrong or missing in the scrape"
grep -q '^store_snapshot_bytes{shard="0"} 0$' "$WORK/scrape.txt" \
    || fail "per-shard store_snapshot_bytes gauge wrong or missing in the scrape"

# Shut down cleanly, then prove passivity against the golden transcript.
printf '%s\n' '{"op":"metrics"}' '{"op":"shutdown"}' >&3
exec 3>&-
wait "$SERVE_PID" || fail "serve exited non-zero in phase 1"
SERVE_PID=""
grep -v '"op":"metrics"' "$WORK/phase1.jsonl" > "$WORK/phase1_filtered.jsonl"
diff "$DATA/smoke_golden.jsonl" "$WORK/phase1_filtered.jsonl" \
    || fail "metrics scrapes perturbed the golden transcript"

# --- Phase 2: journaled mode — fsync histogram + structured events -------
head -n -1 "$DATA/smoke_requests.jsonl" > "$WORK/phase2_requests.jsonl"
printf '%s\n' '{"cmd":"metrics"}' '{"op":"shutdown"}' >> "$WORK/phase2_requests.jsonl"
"$BIN" --journal "$WORK/journal.pcsj" --events "$WORK/events.jsonl" \
    --group-commit-max-batch 8 --group-commit-max-wait-us 1000 \
    < "$WORK/phase2_requests.jsonl" > "$WORK/phase2.jsonl" 2>"$WORK/phase2.err"

grep '"op":"metrics"' "$WORK/phase2.jsonl" > "$WORK/phase2_metrics.json" \
    || fail "no metrics response in phase 2 (cmd alias broken?)"
grep -q '"ok":true' "$WORK/phase2_metrics.json" || fail "metrics op not ok in phase 2"
FSYNC=$(grep -o '"fsync_seconds":{[^}]*}' "$WORK/phase2_metrics.json") \
    || fail "fsync_seconds histogram missing from the snapshot"
case "$FSYNC" in
    *'"count":0'*) fail "fsync histogram empty in journaled mode" ;;
esac
BATCH=$(grep -o '"group_commit_batch_size":{[^}]*}' "$WORK/phase2_metrics.json") \
    || fail "group_commit_batch_size histogram missing from the snapshot"
case "$BATCH" in
    *'"count":0'*) fail "group-commit batch histogram empty with group commit on" ;;
esac
# Gauge names appear JSON-escaped: store_writer_alive{shard=\"0\"}.
grep -qF 'store_writer_alive{shard=\"0\"}":1' "$WORK/phase2_metrics.json" \
    || fail "group-commit writer not reported alive in phase 2"
grep -qF 'store_commit_error{shard=\"0\"}":0' "$WORK/phase2_metrics.json" \
    || fail "sticky commit error reported set in phase 2"
grep -q '"event":"serve.banner"' "$WORK/events.jsonl" \
    || fail "structured serve.banner event missing from the events file"

# --- Phase 3: snapshots — the size gauge and the pruned directory --------
"$BIN" --journal "$WORK/journal3.pcsj" --snapshot-dir "$WORK/snapshots3" --snapshot-every 2 \
    < "$WORK/phase2_requests.jsonl" > "$WORK/phase3.jsonl" 2>"$WORK/phase3.err"
SNAPSHOT_FILES=$(find "$WORK/snapshots3" -name 'snap-*.pcss' | wc -l)
[ "$SNAPSHOT_FILES" -ge 1 ] && [ "$SNAPSHOT_FILES" -le 2 ] \
    || fail "expected one or two snapshot files after pruning, found $SNAPSHOT_FILES"
NEWEST=$(find "$WORK/snapshots3" -name 'snap-*.pcss' | sort | tail -1)
BYTES=$(wc -c < "$NEWEST")
grep '"op":"metrics"' "$WORK/phase3.jsonl" \
    | grep -qF "store_snapshot_bytes{shard=\\\"0\\\"}\":$BYTES," \
    || fail "store_snapshot_bytes does not report the newest snapshot's $BYTES bytes"

echo "metrics smoke: OK"
