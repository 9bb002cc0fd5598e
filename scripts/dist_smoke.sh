#!/usr/bin/env bash
# End-to-end smoke test of the distributed runtime:
#   generate synthetic blobs → start 1 coordinator + 2 workers as real
#   OS processes → run `cluster --dist` against the coordinator and
#   `cluster --dist local` (coordinator + workers in one process) → diff
#   both against plain `cluster` with the same --seed, the single-process
#   engine → pack a larger dataset into a .dstr store and submit it BY
#   REFERENCE (shard-addressed tasks, workers pull shards through their
#   caches) with --trace-out while killing one worker mid-job and verify
#   the job still completes bit-identical to the single-process run,
#   the merged Chrome trace spans the coordinator plus both worker
#   lanes with the killed worker's task visible as a retried event →
#   scrape the federated metrics over both the wire protocol and the
#   coordinator's HTTP /metrics endpoint, asserting per-worker labeled
#   series including the shard-cache counters, and the sidecar's 404
#   and 405 replies.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${DIST_SMOKE_PORT:-17979}"
HTTP_PORT=$((PORT + 1))
ADDR="127.0.0.1:$PORT"
HTTP_ADDR="127.0.0.1:$HTTP_PORT"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/dasc-dist-smoke.XXXXXX")"
COORD_PID=""
W1_PID=""
W2_PID=""

cleanup() {
    for pid in "$W1_PID" "$W2_PID" "$COORD_PID"; do
        [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
    done
    for pid in "$W1_PID" "$W2_PID" "$COORD_PID"; do
        [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
    done
    rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "DIST SMOKE FAIL: $*" >&2; exit 1; }

scrape_http_metrics() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$HTTP_ADDR/metrics"
    else
        python3 -c "import urllib.request; \
            print(urllib.request.urlopen('http://$HTTP_ADDR/metrics').read().decode())"
    fi
}

# Status code the HTTP sidecar answers `$1 $2` with (method, path).
http_status() {
    if command -v curl >/dev/null 2>&1; then
        curl -s -o /dev/null -w '%{http_code}' -X "$1" "http://$HTTP_ADDR$2"
    else
        python3 - "$1" "http://$HTTP_ADDR$2" <<'EOF'
import sys, urllib.error, urllib.request
try:
    print(urllib.request.urlopen(urllib.request.Request(sys.argv[2], method=sys.argv[1])).status)
except urllib.error.HTTPError as e:
    print(e.code)
EOF
    fi
}

echo "== build =="
cargo build --release -q -p dasc-cli

DASC=target/release/dasc

echo "== generate =="
"$DASC" generate --kind blobs --n 600 --d 8 --k 4 --seed 11 \
    --output "$WORK/pts.csv"

echo "== start cluster (1 coordinator + 2 workers) =="
"$DASC" coordinator --addr 127.0.0.1 --port "$PORT" --http-port "$HTTP_PORT" \
    >"$WORK/coord.log" 2>&1 &
COORD_PID=$!
for _ in $(seq 1 50); do
    grep -q 'coordinator listening' "$WORK/coord.log" 2>/dev/null && break
    kill -0 "$COORD_PID" 2>/dev/null || { cat "$WORK/coord.log" >&2; fail "coordinator died"; }
    sleep 0.2
done
grep -q 'coordinator listening' "$WORK/coord.log" || fail "coordinator never became ready"

"$DASC" worker --coordinator "$ADDR" --name smoke-w1 >"$WORK/w1.log" 2>&1 &
W1_PID=$!
"$DASC" worker --coordinator "$ADDR" --name smoke-w2 >"$WORK/w2.log" 2>&1 &
W2_PID=$!
for _ in $(seq 1 50); do
    kill -0 "$W1_PID" 2>/dev/null || { cat "$WORK/w1.log" >&2; fail "worker 1 died"; }
    kill -0 "$W2_PID" 2>/dev/null || { cat "$WORK/w2.log" >&2; fail "worker 2 died"; }
    REGISTERED="$("$DASC" dist-metrics --coordinator "$ADDR" 2>/dev/null \
        | awk '/^dasc_dist_workers_registered_total /{print $2}')" || REGISTERED=0
    [ "${REGISTERED:-0}" -ge 2 ] 2>/dev/null && break
    sleep 0.2
done
[ "${REGISTERED:-0}" -ge 2 ] || fail "workers never registered (saw '${REGISTERED:-}')"

echo "== distributed vs single-process =="
"$DASC" cluster --input "$WORK/pts.csv" --k 4 --seed 11 --labels-last-column \
    --output "$WORK/single.csv" | tee "$WORK/single.log"

"$DASC" cluster --input "$WORK/pts.csv" --k 4 --seed 11 --labels-last-column \
    --dist "$ADDR" --output "$WORK/dist.csv" | tee "$WORK/dist.log"
grep -q "dist($ADDR)" "$WORK/dist.log" || fail "distributed run produced no dist report"

"$DASC" cluster --input "$WORK/pts.csv" --k 4 --seed 11 --labels-last-column \
    --dist local --output "$WORK/local.csv" | tee "$WORK/local.log"
grep -q 'dist(local)' "$WORK/local.log" || fail "in-process runtime produced no dist report"

diff -q "$WORK/dist.csv" "$WORK/single.csv" \
    || fail "2-worker assignments differ from the single-process engine"
diff -q "$WORK/local.csv" "$WORK/single.csv" \
    || fail "--dist local assignments differ from the single-process engine"
echo "assignments bit-identical: 2 workers, --dist local and the single-process engine"

echo "== pack a store for the shard-addressed job =="
"$DASC" generate --kind blobs --n 20000 --d 96 --k 6 --seed 23 \
    --output "$WORK/big.csv"
"$DASC" pack --input "$WORK/big.csv" --output "$WORK/big.dstr" \
    --shard-rows 2048 --labels-last-column | tee "$WORK/pack.log"
grep -q 'packed 20000 rows' "$WORK/pack.log" || fail "pack reported wrong row count"
"$DASC" inspect --data "$WORK/big.dstr" | tee "$WORK/inspect.log"
grep -q 'checksums     all' "$WORK/inspect.log" || fail "inspect did not verify checksums"

echo "== kill a worker mid-job (shard-addressed, traced) =="
workers_roster() {
    if command -v curl >/dev/null 2>&1; then
        curl -sf "http://$HTTP_ADDR/workers"
    else
        python3 -c "import urllib.request; \
            print(urllib.request.urlopen('http://$HTTP_ADDR/workers').read().decode())"
    fi
}
"$DASC" cluster --data "$WORK/big.dstr" --k 6 --seed 23 \
    --dist "$ADDR" --output "$WORK/big-dist.csv" \
    --trace-out "$WORK/trace.json" >"$WORK/big-dist.log" 2>&1 &
JOB_PID=$!
# Pick the victim dynamically: poll the /workers roster until some
# worker has been stuck on the SAME task across two polls (in-flight
# task held, tasks_done unchanged ⇒ it has been executing for 100ms+,
# long enough that the kill provably lands mid-task and the task must
# re-queue as a retried event — not just a lost worker). Bucket sizes
# are skewed, so which worker draws the long reduce task varies.
VICTIM=""
PREV=""
for _ in $(seq 1 300); do
    kill -0 "$JOB_PID" 2>/dev/null || break
    CUR="$(workers_roster 2>/dev/null)" || CUR=""
    VICTIM="$(python3 - "$PREV" "$CUR" <<'EOF'
import json, sys
prev_raw, cur_raw = sys.argv[1], sys.argv[2]
try:
    cur = json.loads(cur_raw)["workers"]
    prev = {w["name"]: w for w in json.loads(prev_raw)["workers"]} if prev_raw else {}
except Exception:
    sys.exit(0)
for w in cur:
    p = prev.get(w["name"])
    if p and w["in_flight"] >= 1 and p["in_flight"] >= 1 \
            and w["tasks_done"] == p["tasks_done"]:
        print(w["name"])
        break
EOF
)"
    [ -n "$VICTIM" ] && break
    PREV="$CUR"
    sleep 0.1
done
kill -0 "$JOB_PID" 2>/dev/null || { cat "$WORK/big-dist.log" >&2; fail "job finished before the kill — enlarge the dataset"; }
[ -n "$VICTIM" ] || fail "never caught a worker mid-task via /workers"
if [ "$VICTIM" = smoke-w1 ]; then
    SURVIVOR=smoke-w2
    kill -9 "$W1_PID"; wait "$W1_PID" 2>/dev/null || true; W1_PID=""
else
    SURVIVOR=smoke-w1
    kill -9 "$W2_PID"; wait "$W2_PID" 2>/dev/null || true; W2_PID=""
fi
echo "killed $VICTIM mid-task with the job in flight"
wait "$JOB_PID" || { cat "$WORK/big-dist.log" >&2; fail "job did not survive the worker kill"; }
cat "$WORK/big-dist.log"
grep -q 'shard-addressed' "$WORK/big-dist.log" \
    || fail "packed-store job did not run shard-addressed"

# Label diff vs the single-process engine: the same dataset from its
# CSV through plain `cluster` must match the shard-addressed job that
# lost a worker mid-flight.
"$DASC" cluster --input "$WORK/big.csv" --k 6 --seed 23 --labels-last-column \
    --output "$WORK/big-single.csv" >/dev/null
diff -q "$WORK/big-dist.csv" "$WORK/big-single.csv" \
    || fail "shard-addressed assignments diverged from single-process after the worker kill"
echo "shard-addressed assignments bit-identical to single-process despite a killed worker"

echo "== merged cluster trace =="
[ -s "$WORK/trace.json" ] || fail "traced run wrote no trace.json"
python3 - "$WORK/trace.json" <<'EOF' || fail "merged trace structure check failed"
import json, sys

events = json.load(open(sys.argv[1]))
lanes = {e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
assert "coordinator" in lanes, f"no coordinator lane in {lanes}"
workers = lanes - {"coordinator"}
assert len(workers) >= 2, f"want >=2 worker lanes, got {workers}"
spans = {e["name"] for e in events if e.get("ph") == "X"}
for want in ("dist.job", "dist.stage1", "dist.stage2", "dist.task.map"):
    assert want in spans, f"missing span {want}"
instants = [e["name"] for e in events if e.get("ph") == "i"]
assert any("retried" in n for n in instants), \
    f"killed worker's task never shows as retried: {instants}"
print(f"trace OK: lanes={sorted(lanes)}, {len(events)} events, "
      f"retry markers={[n for n in instants if 'retried' in n][:2]}")
EOF

echo "== dist metrics =="
METRICS="$("$DASC" dist-metrics --coordinator "$ADDR")"
# (awk, not `head`: head exits early and SIGPIPEs grep under pipefail)
echo "$METRICS" | grep '^dasc_dist' | awk 'NR <= 15'
for series in \
    dasc_dist_tasks_assigned_total \
    dasc_dist_tasks_completed_total \
    dasc_dist_workers_registered_total \
    dasc_dist_workers_lost_total \
    dasc_dist_jobs_total \
    dasc_dist_shuffle_records_total \
    dasc_dist_heartbeats_total \
    dasc_store_shards_served_total \
    dasc_net_frames_sent_total \
    dasc_net_frames_received_total; do
    case "$METRICS" in
        *"$series"*) ;;
        *) fail "metrics missing series $series" ;;
    esac
done
LOST="$(echo "$METRICS" | awk '/^dasc_dist_workers_lost_total /{print $2}')"
[ "${LOST:-0}" -ge 1 ] || fail "coordinator never recorded the killed worker (lost=$LOST)"

echo "== federated metrics over HTTP =="
HTTP_METRICS="$(scrape_http_metrics)" \
    || fail "GET /metrics from the coordinator HTTP endpoint failed"
# Task lifecycle histograms must carry per-stage labels, and the
# coordinator-side per-worker series must cover BOTH workers — including
# the one killed mid-job (post-mortems need the dead worker's numbers).
echo "$HTTP_METRICS" | grep -q 'dasc_dist_task_duration_us_count{stage="map"' \
    || fail "HTTP /metrics missing per-stage task duration histogram"
for w in smoke-w1 smoke-w2; do
    echo "$HTTP_METRICS" | grep -q "dasc_dist_task_duration_us.*worker=\"$w\"" \
        || fail "HTTP /metrics missing task duration series for $w"
done
echo "$HTTP_METRICS" | grep -q '^dasc_dist_stragglers' \
    || fail "HTTP /metrics missing the straggler gauge"
# Heartbeat federation: the surviving worker's own registry re-labeled.
echo "$HTTP_METRICS" | grep -q "worker=\"$SURVIVOR\"" \
    || fail "HTTP /metrics has no federated series for $SURVIVOR"
# The shard-addressed job leaves its cache telemetry behind: misses on
# the workers (federated via heartbeats) and serves on the coordinator.
echo "$HTTP_METRICS" | grep -q 'dasc_store_shard_cache_misses_total' \
    || fail "HTTP /metrics missing federated shard cache counters"
echo "$HTTP_METRICS" | grep -q 'dasc_store_shards_served_total' \
    || fail "HTTP /metrics missing the coordinator's shards-served counter"
echo "per-worker federation visible over HTTP (both workers, straggler gauge, shard cache)"

echo "== sidecar status codes =="
STATUS="$(http_status GET /nope)"
[ "$STATUS" = 404 ] || fail "GET /nope answered $STATUS, want 404"
STATUS="$(http_status POST /metrics)"
[ "$STATUS" = 405 ] || fail "POST /metrics answered $STATUS, want 405"
echo "sidecar answers GET /nope with 404 and POST /metrics with 405"

echo "DIST SMOKE PASS"
