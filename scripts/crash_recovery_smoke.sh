#!/usr/bin/env bash
# Crash-recovery smoke test: run the release `serve` binary in write-ahead
# mode, `kill -9` it mid-session (while a request is in flight, no
# shutdown op), restart it on the same journal, and diff the post-recovery
# status + query transcript against a committed golden file.
#
# Phase 1 drives the engine to budget exhaustion (1.5 = 3 × 0.5 ε);
# every response is awaited so the corresponding charge + release records
# are committed. A fourth request — a *replay* of the first query, which
# journals nothing — is then sent and the process is killed with SIGKILL
# before its response is read, so the kill genuinely lands mid-request
# without making the durable state nondeterministic.
#
# Phase 2 restarts on the same journal and pins, byte for byte:
#   * status: granted=3, composed spend 1.5, remaining ε=0, recovered=true,
#     journal_seq=7 (1 register + 3 × (charge + release));
#   * cached zero-charge replays of the released results (bit-identical to
#     the pre-crash releases);
#   * a fresh query refused with budget_exhausted — refusals persist;
#   * a second status showing the refusal counted.
#
# Phase 3 restarts once more and re-registers the dataset (fresh points,
# inherited ledger). The kill -9 lands after the re-register record is
# durably committed — the script polls the journal bytes for it — but
# before the response is read, so whether the backend build finished is
# irrelevant to the durable state: exactly one record (seq 8) was added.
#
# Phase 4 restarts on that journal and pins, byte for byte:
#   * status: version=2 with the new point count, granted=3, spend 1.5,
#     remaining ε=0, inherited_spend carrying the full v1 spend,
#     journal_seq=8, recovered=true — the crash never refunds inherited
#     spend;
#   * a version-pinned query against v1 answered from the durable cache,
#     bit-identical to the pre-crash release, with no charge;
#   * the same query unpinned (targeting v2) refused with
#     budget_exhausted — exhausted on v1 stays exhausted on v2;
#   * a version-pinned status for the superseded v1.
#
# Phase 5 (group commit, 2 shards): serve with `--shards 2
# --group-commit-max-batch 64 --group-commit-max-wait-us 2000000`, so
# commit fsyncs are batched with a 2 s dwell. Two datasets land on
# different shards ("alpha" → shard 1, "echo" → shard 0). Three awaited
# requests (two registrations, one query) prove a waiter is only released
# by its covering group fsync. A second query is then sent and the
# process is SIGKILLed *inside the dwell window* — after its charge is
# appended to the shard journal (the script polls the journal bytes for
# the second charge record) but before the batch fsync. Pins:
#   * the pre-kill transcript is exactly the three awaited responses —
#     an un-fsynced charge is never acknowledged (golden 5a);
#   * restarting on the same journals (default writer settings, proving a
#     journal written under one setting recovers under another) recovers
#     BOTH shards independently and keeps the un-acknowledged charge spent
#     (granted=2, ε=1 spent) — a journaled charge is never refunded,
#     fsynced or not;
#   * re-sending the killed query charges fresh (its result was never
#     released, so there is nothing to replay), then replays cached;
#   * the sibling shard's dataset is untouched (golden 5b).
#
# Phase 6 (snapshots): phases 1 and 2 again on a fresh journal with
# `--snapshot-dir` and `--snapshot-every 2`. Phase 1's 7 records write
# three snapshots (at seq 2, 4 and 6) and checkpoint the journal each
# time, leaving record 7 as the tail; pruning keeps the newest two. The
# kill lands the same way, and the post-recovery transcript must equal
# the same golden byte for byte — snapshots change nothing a client sees
# — with at most two `snap-*.pcss` files left in the snapshot directory.
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

# Phase 1's requests through `serve <args>`, every response awaited, then
# an in-flight request and a SIGKILL before its response is read. Output
# goes to $WORK/<tag>.jsonl and $WORK/<tag>.err.
exhaust_and_kill() {
    local tag=$1
    shift
    rm -f "$WORK/requests"
    mkfifo "$WORK/requests"
    # `serve` opens its output only once the fifo has a writer, so create
    # the file the loop below polls before starting it.
    : > "$WORK/$tag.jsonl"
    "$BIN" "$@" < "$WORK/requests" > "$WORK/$tag.jsonl" 2>"$WORK/$tag.err" &
    SERVE_PID=$!
    # Keep the fifo's write end open across the individual sends.
    exec 3>"$WORK/requests"

    cat "$DATA/recovery_phase1.jsonl" >&3
    EXPECTED=$(wc -l < "$DATA/recovery_phase1.jsonl")
    for _ in $(seq 1 600); do
        [ "$(wc -l < "$WORK/$tag.jsonl")" -ge "$EXPECTED" ] && break
        sleep 0.1
    done
    if [ "$(wc -l < "$WORK/$tag.jsonl")" -lt "$EXPECTED" ]; then
        echo "crash-recovery smoke: $tag stalled" >&2
        cat "$WORK/$tag.err" >&2
        exit 1
    fi

    # In-flight request (a replay: journals nothing, so the post-kill
    # state stays deterministic), then SIGKILL without reading the
    # response.
    head -2 "$DATA/recovery_phase1.jsonl" | tail -1 >&3
    { kill -9 "$SERVE_PID"; wait "$SERVE_PID"; } 2>/dev/null || true
    SERVE_PID=""
    exec 3>&-
}

# Phase 2's requests through `serve <args>` on the killed run's state,
# diffed against the golden.
recover_and_diff() {
    local tag=$1
    shift
    "$BIN" "$@" < "$DATA/recovery_phase2.jsonl" > "$WORK/$tag.jsonl" 2>"$WORK/$tag.err"
    if ! diff "$DATA/recovery_golden.jsonl" "$WORK/$tag.jsonl"; then
        echo "crash-recovery smoke: $tag transcript diverged from golden" >&2
        cat "$WORK/$tag.err" >&2
        exit 1
    fi
    grep -q "recovered: true" "$WORK/$tag.err" || {
        echo "crash-recovery smoke: $tag did not report recovery on stderr" >&2
        exit 1
    }
}

# --- Phase 1: serve, exhaust the budget, kill -9 mid-request -------------
exhaust_and_kill phase1 --journal "$WORK/journal.pcsj"

# --- Phase 2: restart on the same journal, diff against the golden ------
recover_and_diff phase2 --journal "$WORK/journal.pcsj"

# --- Phase 3: re-register, kill -9 after the journal commit --------------
mkfifo "$WORK/requests3"
"$BIN" --journal "$WORK/journal.pcsj" < "$WORK/requests3" > "$WORK/phase3.jsonl" 2>"$WORK/phase3.err" &
SERVE_PID=$!
exec 3>"$WORK/requests3"

cat "$DATA/recovery_phase3.jsonl" >&3
# Wait for the re-register record to hit the journal (it is fsynced before
# the registry flips), then kill without reading the response.
for _ in $(seq 1 600); do
    grep -qa '"type":"reregister"' "$WORK/journal.pcsj" && break
    sleep 0.1
done
grep -qa '"type":"reregister"' "$WORK/journal.pcsj" || {
    echo "crash-recovery smoke: phase 3 never journaled the re-registration" >&2
    cat "$WORK/phase3.err" >&2
    exit 1
}
{ kill -9 "$SERVE_PID"; wait "$SERVE_PID"; } 2>/dev/null || true
SERVE_PID=""
exec 3>&-

# --- Phase 4: recover the new version, diff against the golden -----------
"$BIN" --journal "$WORK/journal.pcsj" < "$DATA/recovery_phase4.jsonl" > "$WORK/phase4.jsonl" 2>"$WORK/phase4.err"
if ! diff "$DATA/recovery_golden_phase4.jsonl" "$WORK/phase4.jsonl"; then
    echo "crash-recovery smoke: post-reregister transcript diverged from golden" >&2
    cat "$WORK/phase4.err" >&2
    exit 1
fi
grep -q "recovered: true" "$WORK/phase4.err" || {
    echo "crash-recovery smoke: serve did not report recovery after reregister" >&2
    exit 1
}

# --- Phase 5: group commit — kill -9 between charge append and batch fsync
mkfifo "$WORK/requests5"
: > "$WORK/phase5a.jsonl"
"$BIN" --shards 2 --journal "$WORK/journal5.pcsj" \
    --group-commit-max-batch 64 --group-commit-max-wait-us 2000000 \
    < "$WORK/requests5" > "$WORK/phase5a.jsonl" 2>"$WORK/phase5a.err" &
SERVE_PID=$!
exec 3>"$WORK/requests5"

# Two registrations and one query, each awaited: their responses are only
# released once the covering batch fsync lands (each costs one dwell).
head -3 "$DATA/recovery_phase5.jsonl" >&3
for _ in $(seq 1 600); do
    [ "$(wc -l < "$WORK/phase5a.jsonl")" -ge 3 ] && break
    sleep 0.1
done
if [ "$(wc -l < "$WORK/phase5a.jsonl")" -lt 3 ]; then
    echo "crash-recovery smoke: phase 5 stalled before the kill" >&2
    cat "$WORK/phase5a.err" >&2
    exit 1
fi

# The in-flight query: poll the shard journals for its charge record (the
# append happens under the store lock, well before the batch fsync), then
# SIGKILL inside the 2 s dwell — charge journaled, fsync pending, response
# unreleased.
tail -1 "$DATA/recovery_phase5.jsonl" >&3
for _ in $(seq 1 200); do
    CHARGES=$(cat "$WORK"/journal5-shard*.pcsj 2>/dev/null \
        | grep -ao '"type":"charge"' | wc -l)
    [ "$CHARGES" -ge 2 ] && break
    sleep 0.02
done
if [ "$CHARGES" -lt 2 ]; then
    echo "crash-recovery smoke: phase 5 never journaled the in-flight charge" >&2
    cat "$WORK/phase5a.err" >&2
    exit 1
fi
{ kill -9 "$SERVE_PID"; wait "$SERVE_PID"; } 2>/dev/null || true
SERVE_PID=""
exec 3>&-

# No un-fsynced charge was acknowledged: the pre-kill transcript is
# exactly the three awaited responses.
if ! diff "$DATA/recovery_golden_phase5a.jsonl" "$WORK/phase5a.jsonl"; then
    echo "crash-recovery smoke: pre-kill group-commit transcript diverged" >&2
    cat "$WORK/phase5a.err" >&2
    exit 1
fi

# Restart on the same shard journals (default writer settings: batches of
# up to 64, no dwell) and pin the recovered ledgers: the
# journaled-but-unacknowledged charge stays spent, both shards recover
# independently.
"$BIN" --shards 2 --journal "$WORK/journal5.pcsj" \
    < "$DATA/recovery_phase5b.jsonl" > "$WORK/phase5b.jsonl" 2>"$WORK/phase5b.err"
if ! diff "$DATA/recovery_golden_phase5b.jsonl" "$WORK/phase5b.jsonl"; then
    echo "crash-recovery smoke: post-recovery group-commit transcript diverged" >&2
    cat "$WORK/phase5b.err" >&2
    exit 1
fi
[ "$(grep -c "recovered: true" "$WORK/phase5b.err")" -eq 2 ] || {
    echo "crash-recovery smoke: expected both shards to report recovery" >&2
    exit 1
}
# --- Phase 6: phases 1 and 2 with snapshots: same bytes, two files left --
SNAPSHOTS6=(--journal "$WORK/journal6.pcsj" --snapshot-dir "$WORK/snapshots6" --snapshot-every 2)
exhaust_and_kill phase6a "${SNAPSHOTS6[@]}"
recover_and_diff phase6b "${SNAPSHOTS6[@]}"
SNAPSHOT_FILES=$(find "$WORK/snapshots6" -name 'snap-*.pcss' | wc -l)
if [ "$SNAPSHOT_FILES" -lt 1 ] || [ "$SNAPSHOT_FILES" -gt 2 ]; then
    echo "crash-recovery smoke: expected one or two snapshots, found $SNAPSHOT_FILES" >&2
    ls -la "$WORK/snapshots6" >&2
    exit 1
fi
echo "crash-recovery smoke: OK"
