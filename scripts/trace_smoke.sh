#!/usr/bin/env bash
# Smoke test of the observability CLI surface:
#   generate synthetic blobs → `dasc train --stage-timings --trace-out`
#   → assert the report contains a stage table and the trace file is
#   valid Chrome trace-event JSON with the documented pipeline stages.
set -euo pipefail

cd "$(dirname "$0")/.."

WORK="$(mktemp -d "${TMPDIR:-/tmp}/dasc-trace.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

fail() { echo "TRACE SMOKE FAIL: $*" >&2; exit 1; }

echo "== build =="
cargo build --release -q -p dasc-cli
DASC=target/release/dasc

echo "== train with tracing =="
"$DASC" generate --kind blobs --n 500 --d 8 --k 4 --seed 7 \
    --output "$WORK/train.csv"
"$DASC" train --input "$WORK/train.csv" --k 4 --labels-last-column \
    --seed 7 --model-out "$WORK/model.dasc" \
    --stage-timings --trace-out "$WORK/trace.json" | tee "$WORK/train.log"

grep -q 'stage timings:' "$WORK/train.log" || fail "report has no stage table"
grep -q 'dasc\.lsh' "$WORK/train.log" || fail "stage table lacks dasc.lsh"

echo "== validate trace json =="
[ -s "$WORK/trace.json" ] || fail "trace file missing or empty"
if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/trace.json" <<'EOF'
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace is not a non-empty array"
names = {e["name"] for e in events if e["name"].startswith("dasc.")}
for e in events:
    for field in ("name", "ph", "ts", "dur", "pid", "tid"):
        assert field in e, f"event missing {field}: {e}"
    assert e["ph"] == "X", f"unexpected phase {e['ph']}"
for stage in ("dasc.lsh", "dasc.bucket", "dasc.gram", "dasc.cluster", "dasc.consolidate"):
    assert stage in names, f"trace lacks stage {stage}: {sorted(names)}"
print(f"trace OK: {len(events)} events, stages: {sorted(names)}")
EOF
else
    # No python3: structural greps over the JSON text.
    head -c1 "$WORK/trace.json" | grep -q '\[' || fail "trace is not a JSON array"
    for stage in dasc.lsh dasc.bucket dasc.gram dasc.cluster dasc.consolidate; do
        grep -q "\"name\":\"$stage\"" "$WORK/trace.json" \
            || fail "trace lacks stage $stage"
    done
fi

echo "TRACE SMOKE PASS"
