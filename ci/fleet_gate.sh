#!/usr/bin/env bash
# fleet_gate.sh — CI gate for the distributed evaluation plane.
#
# Starts a datamimed coordinator with a two-worker datamime-worker fleet,
# runs a seeded search dispatched across it (killing one worker mid-job to
# exercise graceful degradation), then runs the same seed on a SEPARATE
# local-backend coordinator and requires `datamime-inspect diff -exact` to
# find the two run artifacts identical. Separate coordinators matter: a
# shared one would serve the second run entirely from the evaluation cache.
#
# Expects bin/datamimed, bin/datamime-worker, and bin/datamime-inspect to be
# prebuilt (see .github/workflows/ci.yml), but builds them if missing so the
# script also runs standalone from the repo root.
set -euo pipefail

COORD_A=127.0.0.1:18080
COORD_B=127.0.0.1:18081
WORKER_1=127.0.0.1:19091
WORKER_2=127.0.0.1:19092

for tool in datamimed datamime-worker datamime-inspect; do
  [ -x "bin/$tool" ] || go build -o "bin/$tool" "./cmd/$tool"
done

PIDS=()
cleanup() {
  for pid in "${PIDS[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
}
trap cleanup EXIT

# json FIELD: extract one top-level field from the JSON on stdin.
json() {
  python3 -c 'import json,sys; print(json.load(sys.stdin)["'"$1"'"])'
}

wait_http() { # wait_http URL [PATTERN]
  for _ in $(seq 1 100); do
    if body=$(curl -fs "$1" 2>/dev/null) && { [ -z "${2:-}" ] || grep -q "$2" <<<"$body"; }; then
      return 0
    fi
    sleep 0.2
  done
  echo "timed out waiting for $1 ${2:+(pattern $2)}" >&2
  return 1
}

# run_job COORDINATOR SPEC_FILE OUT_ARTIFACT: submit, poll to completion,
# export the artifact. Prints the job ID.
run_job() {
  local coord=$1 spec=$2 out=$3 id state
  id=$(curl -fs -X POST -H 'Content-Type: application/json' \
    --data-binary "@$spec" "http://$coord/v1/jobs" | json id)
  for _ in $(seq 1 300); do
    state=$(curl -fs "http://$coord/v1/jobs/$id" | json state)
    case "$state" in
      succeeded) break ;;
      failed|canceled)
        echo "job $id on $coord ended $state:" >&2
        curl -fs "http://$coord/v1/jobs/$id" >&2
        return 1 ;;
    esac
    sleep 1
  done
  [ "$state" = succeeded ] || { echo "job $id on $coord timed out in state $state" >&2; return 1; }
  curl -fs "http://$coord/v1/jobs/$id/artifact" > "$out"
  echo "$id"
}

# The seeded search: small profiling budget keeps the gate fast; the seed
# and spec are byte-identical between the two runs except for the backend.
cat > spec-fleet.json <<'EOF'
{
  "generator": "memcached",
  "iterations": 8,
  "parallel": 2,
  "seed": 1,
  "optimizer": "random",
  "metric": "cpu_util",
  "metric_value": 0.15,
  "backend": "remote",
  "profiling": {"window_cycles": 60000, "windows": 4, "warmup_windows": 1, "skip_curves": true}
}
EOF
sed 's/"backend": "remote"/"backend": "local"/' spec-fleet.json > spec-local.json

echo "== starting coordinator A (fleet, telemetry on, corpus in corpus-a) on $COORD_A"
rm -rf corpus-a
bin/datamimed -addr "$COORD_A" -workers 1 -quiet -telemetry -corpus-dir corpus-a &
PIDS+=($!)
wait_http "http://$COORD_A/healthz"

echo "== starting 2 datamime-worker processes"
bin/datamime-worker -addr "$WORKER_1" -name w1 -profile-workers 2 \
  -coordinator "http://$COORD_A" -advertise "http://$WORKER_1" &
PIDS+=($!)
bin/datamime-worker -addr "$WORKER_2" -name w2 -profile-workers 2 \
  -coordinator "http://$COORD_A" -advertise "http://$WORKER_2" &
WORKER_2_PID=$!
PIDS+=($WORKER_2_PID)
wait_http "http://$COORD_A/v1/fleet" '"w1"'
wait_http "http://$COORD_A/v1/fleet" '"w2"'

echo "== refusal gate: a spec naming what does not exist is a 400, not a job"
# refuse SPEC OFFENDER: POST SPEC, require HTTP 400 with OFFENDER in the body.
refuse() {
  local out
  out=$(curl -s -w '\n%{http_code}' -X POST -H 'Content-Type: application/json' \
    -d "$1" "http://$COORD_A/v1/jobs")
  [ "${out##*$'\n'}" = 400 ] && grep -q "$2" <<<"$out" || {
    echo "submit of $1 was not refused with a 400 naming $2:" >&2; echo "$out" >&2; return 1; }
}
refuse '{"workload": "mem-fbb", "iterations": 8}' mem-fbb
refuse '{"generator": "memcached", "iterations": 8, "metric": "cpu_utl", "metric_value": 0.15}' cpu_utl
[ "$(curl -fs "http://$COORD_A/v1/jobs" | python3 -c 'import json,sys; print(len(json.load(sys.stdin)["jobs"]))')" = 0 ] || {
  echo "a refused spec left a job behind:" >&2; curl -fs "http://$COORD_A/v1/jobs" >&2; exit 1; }

echo "== running the seeded search on the fleet (worker 2 dies mid-job)"
( sleep 3; echo "== killing worker 2"; kill "$WORKER_2_PID" 2>/dev/null || true ) &
FLEET_JOB=$(run_job "$COORD_A" spec-fleet.json run-fleet.jsonl)
echo "== fleet job $FLEET_JOB succeeded"

echo "== fleet view"
curl -fs "http://$COORD_A/v1/fleet"
echo "== worker 1's own metrics (datamime_worker_* families)"
curl -fs "http://$WORKER_1/metrics" | grep '^datamime_worker_' || {
  echo "no datamime_worker_* families on worker 1's /metrics" >&2; exit 1; }

echo "== exporting and validating the unified fleet trace"
curl -fs "http://$COORD_A/v1/jobs/$FLEET_JOB/trace" > fleet-trace.json
bin/datamime-inspect timeline -artifact run-fleet.jsonl -trace fleet-trace.json
grep -q '"fleet worker' fleet-trace.json || {
  echo "fleet trace has no per-worker process tracks" >&2; exit 1; }

echo "== corpus gate: re-run the same seed on coordinator A and compare records"
FLEET_JOB_2=$(run_job "$COORD_A" spec-fleet.json run-fleet-2.jsonl)
echo "== second fleet job $FLEET_JOB_2 succeeded (cache-served re-run)"
curl -fs "http://$COORD_A/v1/corpus" > corpus-list.json
curl -fs "http://$COORD_A/v1/fleet" > fleet.json
curl -fs "http://$WORKER_1/v1/healthz" > healthz-w1.json
RESULT_CODE=$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD_A/v1/jobs/$FLEET_JOB/result")
python3 - corpus-list.json fleet.json "$RESULT_CODE" healthz-w1.json run-fleet.jsonl <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
with open(sys.argv[2]) as f:
    fleet = json.load(f)
with open(sys.argv[4]) as f:
    healthz = json.load(f)
with open(sys.argv[5]) as f:
    events = [json.loads(line) for line in f if line.strip()]
# Each figure has one publisher: corpus figures are /v1/corpus's, a job's
# result is GET /v1/jobs/{id}'s, a worker's load is its own /metrics', and
# a dispatch's routing facts are its eval.remote span's.
assert "corpus" not in fleet, f"/v1/fleet carries a corpus section: {fleet['corpus']}"
assert sys.argv[3] == "404", f"GET /v1/jobs/{{id}}/result answered {sys.argv[3]}, want 404"
for row in fleet["workers"]:
    assert "reported_inflight" not in row, f"/v1/fleet row carries reported_inflight: {row}"
assert "inflight" not in healthz, f"worker 1's /v1/healthz carries inflight: {healthz}"
for ev in events:
    assert ev.get("phase") not in ("dispatch.retry", "dispatch.fallback"), f"artifact carries {ev}"
    assert "clock_offset_ns" not in ev.get("attrs", {}), f"artifact carries clock_offset_ns: {ev}"
runs = doc["runs"]
assert len(runs) == 2 and doc["total"] == 2, f"corpus has {len(runs)}/{doc['total']} runs, want 2"
a, b = runs
assert a["scenario"] == b["scenario"], f"scenario hashes differ: {a['scenario']} vs {b['scenario']}"
assert a["best_error"] == b["best_error"], f"best error drifted: {a['best_error']} vs {b['best_error']}"
assert a["trajectory_hash"] == b["trajectory_hash"], "trajectories not bit-identical"
assert a["verdict"] == "baseline" and b["verdict"] == "identical", \
    f"verdicts {a['verdict']}/{b['verdict']}, want baseline/identical"
print(f"corpus ok: 2 runs of scenario {a['scenario']}, best error {a['best_error']}, verdict identical")
EOF
echo "== the index's verdict is corpus compare's: the pair must diff exactly"
bin/datamime-inspect corpus compare -dir corpus-a -a "$FLEET_JOB" -b "$FLEET_JOB_2" -exact
curl -fs "http://$COORD_A/metrics" > corpus-metrics.txt
grep -q '^datamimed_corpus_runs_indexed_total 2$' corpus-metrics.txt || {
  echo "corpus indexed-runs counter is not 2:" >&2
  grep corpus corpus-metrics.txt >&2 || true; exit 1; }
grep -q '^datamimed_corpus_regressions_total 0$' corpus-metrics.txt || {
  echo "corpus regression watchdog fired on identical runs:" >&2
  grep corpus corpus-metrics.txt >&2 || true; exit 1; }

echo "== rendering the corpus trends + HTML scoreboard"
bin/datamime-inspect corpus list -dir corpus-a
bin/datamime-inspect corpus trends -dir corpus-a -title "fleet gate" -html scoreboard.html
grep -q 'datamime corpus scoreboard' scoreboard.html || {
  echo "scoreboard.html missing its header" >&2; exit 1; }

echo "== starting coordinator B (local backend) on $COORD_B"
bin/datamimed -addr "$COORD_B" -workers 1 -quiet &
PIDS+=($!)
wait_http "http://$COORD_B/healthz"
LOCAL_JOB=$(run_job "$COORD_B" spec-local.json run-local.jsonl)
echo "== local job $LOCAL_JOB succeeded"

echo "== determinism gate: fleet artifact must be exactly identical to local"
bin/datamime-inspect diff -a run-local.jsonl -b run-fleet.jsonl -exact
echo "== fleet gate passed"
