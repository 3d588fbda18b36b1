#!/usr/bin/env bash
# Load smoke test: drive the release `serve` binary — 4 shards, group
# commit, bounded admission — with the TCP `loadgen` and prove the sharded
# front end is correct under concurrency, not just fast:
#
#   * zero protocol errors across 8 connections (structured `retry`
#     rejections are the one sanctioned failure: loadgen retries them and
#     they never surface as errors);
#   * every request admitted (`ok` == requests) and throughput above a
#     conservative floor — a deadlocked or serialized front end fails
#     loudly rather than slowly;
#   * the privacy ledger is *bit-identical* to a sequential replay: the
#     interleaved request log (loadgen --log preserves global send order)
#     is replayed through a single-threaded in-memory engine, and every
#     per-dataset status object must match byte for byte after stripping
#     the durability trailer. Sharding, group commit, and backpressure may
#     reorder work, but they must never change what was spent.
set -euo pipefail
cd "$(dirname "$0")/.."

BIN=${1:-./target/release/serve}
LOADGEN=${2:-./target/release/loadgen}
REQUESTS=${REQUESTS:-800}
FLOOR_RPS=${FLOOR_RPS:-200}
WORK=$(mktemp -d)
SERVE_PID=""
cleanup() {
    [ -n "$SERVE_PID" ] && kill -9 "$SERVE_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
fail() {
    echo "load smoke: $1" >&2
    exit 1
}

# --- Usage: a group-commit batch of 0 is rejected with exit 2 -------------
RC=0; "$BIN" --in-memory --group-commit-max-batch 0 < /dev/null 2> /dev/null || RC=$?
[ "$RC" -eq 2 ] || fail "serve --group-commit-max-batch 0 exited $RC, not 2"

# --- Serve: 4 shards, group commit, bounded in-flight ---------------------
# The poll below reads serve.err; create it first, so that a poll which runs
# before the backgrounded redirect has opened it reads an empty file.
: > "$WORK/serve.err"
"$BIN" --shards 4 --journal "$WORK/journal.pcsj" \
    --group-commit-max-batch 64 --group-commit-max-wait-us 0 \
    --max-inflight 32 --tcp 127.0.0.1:0 \
    > "$WORK/serve.out" 2> "$WORK/serve.err" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 200); do
    ADDR=$(sed -n 's/.*engine listening on //p' "$WORK/serve.err" | head -1)
    [ -n "$ADDR" ] && break
    sleep 0.05
done
[ -n "$ADDR" ] || { cat "$WORK/serve.err" >&2; fail "serve never bound its TCP listener"; }

# --- Load: 8 connections, mixed workload, request log kept ---------------
"$LOADGEN" --addr "$ADDR" --connections 8 --requests "$REQUESTS" \
    --datasets 8 --points 8 --seed 7 --label load_smoke \
    --log "$WORK/requests.log" > "$WORK/loadgen.json" \
    || { cat "$WORK/loadgen.json" >&2; fail "loadgen reported protocol errors"; }

grep -q '"errors":0' "$WORK/loadgen.json" || fail "loadgen error count nonzero"
grep -q "\"ok\":$REQUESTS" "$WORK/loadgen.json" \
    || { cat "$WORK/loadgen.json" >&2; fail "not every request was admitted"; }
RPS=$(sed -n 's/.*"throughput_rps":\([0-9.]*\).*/\1/p' "$WORK/loadgen.json")
awk -v rps="$RPS" -v floor="$FLOOR_RPS" 'BEGIN { exit !(rps >= floor) }' \
    || fail "throughput $RPS rps below the $FLOOR_RPS rps floor"

# --- Statuses from the live sharded server, then shutdown ----------------
HOST=${ADDR%:*}
PORT=${ADDR##*:}
exec 4<>"/dev/tcp/$HOST/$PORT"
for d in $(seq 0 7); do
    printf '{"op":"status","dataset":"ds%d"}\n' "$d" >&4
    IFS= read -r line <&4
    printf '%s\n' "$line" >> "$WORK/status_live.jsonl"
done
printf '{"op":"shutdown"}\n' >&4
exec 4>&- 4<&-
wait "$SERVE_PID" || fail "serve exited non-zero"
SERVE_PID=""

# --- Sequential replay: same global order, one thread, no journal --------
{
    cat "$WORK/requests.log"
    for d in $(seq 0 7); do
        printf '{"op":"status","dataset":"ds%d"}\n' "$d"
    done
    printf '{"op":"shutdown"}\n'
} > "$WORK/replay.jsonl"
"$BIN" --in-memory < "$WORK/replay.jsonl" > "$WORK/replay_out.jsonl" \
    2> "$WORK/replay.err" || { cat "$WORK/replay.err" >&2; fail "sequential replay failed"; }
grep '"op":"status"' "$WORK/replay_out.jsonl" > "$WORK/status_replay.jsonl"

# The ledger must not care about interleaving: strip the durability
# trailer (journaled vs in-memory) and require byte equality.
strip() {
    sed -e 's/.*"status"://' -e 's/,"durability".*//' "$1"
}
strip "$WORK/status_live.jsonl" > "$WORK/status_live.stripped"
strip "$WORK/status_replay.jsonl" > "$WORK/status_replay.stripped"
diff "$WORK/status_replay.stripped" "$WORK/status_live.stripped" \
    || fail "sharded spend diverged from the sequential replay"

echo "load smoke: OK ($REQUESTS requests, $RPS rps)"
