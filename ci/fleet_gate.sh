#!/usr/bin/env bash
# fleet_gate.sh — CI gate for the distributed evaluation plane.
#
# Starts a datamimed coordinator with a two-worker datamime-worker fleet,
# runs a seeded search dispatched across it (killing one worker mid-job to
# exercise graceful degradation), then runs the same seed on a SEPARATE
# local-backend coordinator and requires `datamime-inspect diff -exact` to
# find the two run artifacts identical. Separate coordinators matter: a
# shared one would serve the second run entirely from the evaluation cache.
# A third coordinator, killed with -9 mid-job and restarted on its
# checkpoint directory, must resume the same seed to the same artifact.
# `datamime-inspect tail` follows the fleet job live from its submission and
# must print its 8 iterations, then the job's end.
#
# Expects bin/datamimed, bin/datamime-worker, and bin/datamime-inspect to be
# prebuilt (see .github/workflows/ci.yml), but builds them if missing so the
# script also runs standalone from the repo root.
set -euo pipefail

COORD_A=127.0.0.1:18080
COORD_B=127.0.0.1:18081
COORD_C=127.0.0.1:18082
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

# submit_job COORDINATOR SPEC_FILE: submit a spec. Prints the job ID.
submit_job() {
  curl -fs -X POST -H 'Content-Type: application/json' \
    --data-binary "@$2" "http://$1/v1/jobs" | json id
}

# run_job COORDINATOR SPEC_FILE OUT_ARTIFACT [ID]: submit (unless the job ID
# of an already submitted one is given), poll to completion, export the
# artifact. Prints the job ID.
run_job() {
  local coord=$1 spec=$2 out=$3 id=${4:-} state
  [ -n "$id" ] || id=$(submit_job "$coord" "$spec")
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

echo "== starting coordinator A (fleet, telemetry on, job logs and corpus in ckpt-a) on $COORD_A"
rm -rf ckpt-a
bin/datamimed -addr "$COORD_A" -workers 1 -quiet -telemetry -checkpoint-dir ckpt-a &
PIDS+=($!)
wait_http "http://$COORD_A/healthz"

echo "== starting 2 datamime-worker processes"
GOMAXPROCS=2 bin/datamime-worker -addr "$WORKER_1" -name w1 \
  -coordinator "http://$COORD_A" -advertise "http://$WORKER_1" &
PIDS+=($!)
GOMAXPROCS=2 bin/datamime-worker -addr "$WORKER_2" -name w2 \
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
FLEET_JOB=$(submit_job "$COORD_A" spec-fleet.json)
echo "== following fleet job $FLEET_JOB live with tail"
bin/datamime-inspect tail -server "http://$COORD_A" -job "$FLEET_JOB" > tail-fleet.txt &
TAIL_PID=$!
PIDS+=($TAIL_PID)
run_job "$COORD_A" spec-fleet.json run-fleet.jsonl "$FLEET_JOB" > /dev/null
echo "== fleet job $FLEET_JOB succeeded"

echo "== the live stream's reader: tail printed each iteration once, then the job's end"
wait "$TAIL_PID" || { echo "tail of $FLEET_JOB failed:" >&2; cat tail-fleet.txt >&2; exit 1; }
TAIL_EVALS=$(grep -cE '^iter +[0-9]+  (error|skipped)' tail-fleet.txt || true)
[ "$TAIL_EVALS" = 8 ] && [ "$(tail -n 1 tail-fleet.txt)" = "done: job succeeded" ] || {
  echo "tail printed $TAIL_EVALS iter eval lines, want 8, then done: job succeeded:" >&2
  cat tail-fleet.txt >&2; exit 1; }

echo "== fleet view"
curl -fs "http://$COORD_A/v1/fleet"
echo "== worker 1's own metrics (datamime_worker_* families)"
curl -fs "http://$WORKER_1/metrics" > worker1-metrics.txt
grep '^datamime_worker_' worker1-metrics.txt || {
  echo "no datamime_worker_* families on worker 1's /metrics" >&2; exit 1; }
if grep -q 'datamime_worker_cache_shared_' worker1-metrics.txt; then
  echo "worker 1 still publishes a shared cache tier:" >&2
  grep 'datamime_worker_cache_shared_' worker1-metrics.txt >&2; exit 1
fi
# The worker keeps no cache of its own: the coordinator's is the fleet's one
# evaluation cache, so no worker cache family and no cache probe span exists.
if grep -q 'datamime_worker_cache' worker1-metrics.txt; then
  echo "worker 1 still publishes a profile cache:" >&2
  grep 'datamime_worker_cache' worker1-metrics.txt >&2; exit 1
fi
if grep -q 'cache[.]probe' run-fleet.jsonl; then
  echo "the fleet artifact carries a worker cache probe span:" >&2
  grep 'cache[.]probe' run-fleet.jsonl | head -n 3 >&2; exit 1
fi

echo "== writing and validating the unified fleet trace from the job's artifact"
bin/datamime-inspect timeline -artifact "http://$COORD_A/v1/jobs/$FLEET_JOB/artifact" \
  -trace fleet-trace.json
grep -q '"fleet worker' fleet-trace.json || {
  echo "fleet trace has no per-worker process tracks" >&2; exit 1; }
if grep -q 'dropped_unstamped' fleet-trace.json; then
  echo "fleet trace reports events dropped at export for a run that lost none" >&2; exit 1
fi

echo "== each job record is served once: its views are the client's renderings"
for path in "v1/jobs/$FLEET_JOB/result" "v1/jobs/$FLEET_JOB/report" \
  "v1/jobs/$FLEET_JOB/diagnostics" "v1/jobs/$FLEET_JOB/trace" "v1/cache/x"; do
  code=$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD_A/$path")
  [ "$code" = 404 ] || { echo "GET /$path answered $code, want 404" >&2; exit 1; }
done

echo "== corpus gate: re-run the same seed on coordinator A and compare records"
FLEET_JOB_2=$(run_job "$COORD_A" spec-fleet.json run-fleet-2.jsonl)
echo "== second fleet job $FLEET_JOB_2 succeeded (cache-served re-run)"
curl -fs "http://$COORD_A/v1/corpus" > corpus-list.json
curl -fs "http://$COORD_A/v1/fleet" > fleet.json
curl -fs "http://$WORKER_1/v1/healthz" > healthz-w1.json
python3 - corpus-list.json fleet.json healthz-w1.json run-fleet.jsonl <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    doc = json.load(f)
with open(sys.argv[2]) as f:
    fleet = json.load(f)
with open(sys.argv[3]) as f:
    healthz = json.load(f)
with open(sys.argv[4]) as f:
    events = [json.loads(line) for line in f if line.strip()]
# Each figure has one publisher: corpus figures are /v1/corpus's, a job's
# result is GET /v1/jobs/{id}'s, a worker's load is its own /metrics', and
# a dispatch's routing facts are its eval.remote span's. No clock estimate
# outlives the round trip it came from.
assert "corpus" not in fleet, f"/v1/fleet carries a corpus section: {fleet['corpus']}"
for row in fleet["workers"]:
    assert "reported_inflight" not in row, f"/v1/fleet row carries reported_inflight: {row}"
    assert "clock" not in row, f"/v1/fleet row carries a clock estimate: {row}"
assert "inflight" not in healthz, f"worker 1's /v1/healthz carries inflight: {healthz}"
assert "time_ns" not in healthz, f"worker 1's /v1/healthz carries time_ns: {healthz}"
for ev in events:
    assert ev.get("phase") not in ("dispatch.retry", "dispatch.fallback"), f"artifact carries {ev}"
    assert "clock_offset_ns" not in ev.get("attrs", {}), f"artifact carries clock_offset_ns: {ev}"
# A worker's shipped spans are placed by the round trip that carried them, so
# each lies inside an eval.remote span: [time_ns - dur_ns, time_ns] within.
spans = [ev for ev in events if ev.get("type") == "span"]
trips = [(ev["time_ns"] - ev.get("dur_ns", 0), ev["time_ns"]) for ev in spans if ev.get("phase") == "eval.remote"]
shipped = [ev for ev in spans if "fleet_worker" in ev.get("attrs", {})]
assert shipped, "the fleet artifact carries no shipped worker spans"
for ev in shipped:
    lo, hi = ev["time_ns"] - ev.get("dur_ns", 0), ev["time_ns"]
    assert any(a <= lo and hi <= b for a, b in trips), f"shipped span lies outside every eval.remote span: {ev}"
print(f"nesting ok: {len(shipped)} shipped spans inside {len(trips)} eval.remote round trips")
# A profile ships one profile.sim span, and one budget.wait under the
# serving side's shared budget; nothing else crosses the wire.
phases = {ev["phase"] for ev in shipped}
assert phases <= {"profile.sim", "budget.wait"}, f"shipped phases {sorted(phases)}, want profile.sim and budget.wait only"
# Each round trip carries exactly one shipped profile.sim: a killed worker's
# failed attempt ships nothing, and the retry ships one. Round trips overlap
# under "parallel": 2, so trips and sims must pair off one to one, each sim
# inside its trip and from the worker (or fallback, -1) that served it.
trip_evs = [ev for ev in spans if ev.get("phase") == "eval.remote"]
sims = [ev for ev in shipped if ev["phase"] == "profile.sim"]
assert len(sims) == len(trip_evs), f"{len(sims)} shipped profile.sim spans for {len(trip_evs)} eval.remote round trips"
def holds(trip, sim):
    a, b = trip["time_ns"] - trip.get("dur_ns", 0), trip["time_ns"]
    return (trip["attrs"].get("remote_worker") == sim["attrs"]["fleet_worker"]
            and a <= sim["time_ns"] - sim.get("dur_ns", 0) and sim["time_ns"] <= b)
owner = {}  # sim index -> trip index
def pair(t, seen):
    for s, sim in enumerate(sims):
        if s not in seen and holds(trip_evs[t], sim):
            seen.add(s)
            if s not in owner or pair(owner[s], seen):
                owner[s] = t
                return True
    return False
for t in range(len(trip_evs)):
    assert pair(t, set()), f"eval.remote round trip holds no shipped profile.sim of its own: {trip_evs[t]}"
print(f"one profile.sim per round trip: {len(sims)} sims paired with {len(trip_evs)} trips")
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
echo "== the corpus's verdict is diff's: the pair must diff exactly, as logs and as /artifact URLs"
bin/datamime-inspect diff -a "ckpt-a/$FLEET_JOB.jsonl" -b "ckpt-a/$FLEET_JOB_2.jsonl" -exact
bin/datamime-inspect diff -a "http://$COORD_A/v1/jobs/$FLEET_JOB/artifact" \
  -b "http://$COORD_A/v1/jobs/$FLEET_JOB_2/artifact" -exact
echo "== the corpus is the job logs: no second store, no trends route"
if [ -e ckpt-a/index.jsonl ] || [ -e ckpt-a/runs ]; then
  echo "ckpt-a holds a second corpus store:" >&2; ls -la ckpt-a >&2; exit 1
fi
code=$(curl -s -o /dev/null -w '%{http_code}' "http://$COORD_A/v1/corpus/x/trends")
[ "$code" = 404 ] || { echo "GET /v1/corpus/x/trends answered $code, want 404" >&2; exit 1; }
curl -fs "http://$COORD_A/metrics" > corpus-metrics.txt
grep -q '^datamimed_corpus_runs_indexed_total 2$' corpus-metrics.txt || {
  echo "corpus indexed-runs counter is not 2:" >&2
  grep corpus corpus-metrics.txt >&2 || true; exit 1; }
grep -q '^datamimed_corpus_regressions_total 0$' corpus-metrics.txt || {
  echo "corpus regression watchdog fired on identical runs:" >&2
  grep corpus corpus-metrics.txt >&2 || true; exit 1; }
# One evaluation cache: the first run misses once per fresh evaluation and
# the cache-served re-run hits once per evaluation. No worker probes the
# coordinator's cache a second time for a key it has just missed.
grep -q '^datamimed_eval_cache_misses_total 8$' corpus-metrics.txt &&
  grep -q '^datamimed_eval_cache_hits_total 8$' corpus-metrics.txt || {
  echo "evaluation cache counts are not 8 misses and 8 hits:" >&2
  grep eval_cache corpus-metrics.txt >&2 || true; exit 1; }

echo "== rendering the corpus trends + HTML scoreboard"
bin/datamime-inspect corpus list -dir ckpt-a
bin/datamime-inspect corpus trends -dir ckpt-a -title "fleet gate" -html scoreboard.html
grep -q 'datamime corpus scoreboard' scoreboard.html || {
  echo "scoreboard.html missing its header" >&2; exit 1; }

echo "== starting coordinator B (local backend) on $COORD_B"
bin/datamimed -addr "$COORD_B" -workers 1 -quiet &
PIDS+=($!)
wait_http "http://$COORD_B/healthz"
LOCAL_JOB=$(run_job "$COORD_B" spec-local.json run-local.jsonl)
echo "== local job $LOCAL_JOB succeeded"
echo "== coordinator B, without a checkpoint directory, keeps its corpus in memory"
[ "$(curl -fs "http://$COORD_B/v1/corpus" | python3 -c 'import json,sys; d=json.load(sys.stdin); print(d["total"], [r["id"] for r in d["runs"]])')" = "1 ['$LOCAL_JOB']" ] || {
  echo "coordinator B does not list its one run:" >&2; curl -fs "http://$COORD_B/v1/corpus" >&2; exit 1; }

echo "== determinism gate: fleet artifact must be exactly identical to local"
bin/datamime-inspect diff -a run-local.jsonl -b run-fleet.jsonl -exact

echo "== restart gate: coordinator C ($COORD_C) is killed with -9 mid-job and restarted on its log"
rm -rf ckpt-c
bin/datamimed -addr "$COORD_C" -workers 1 -quiet -checkpoint-dir ckpt-c &
COORD_C_PID=$!
PIDS+=($COORD_C_PID)
wait_http "http://$COORD_C/healthz"
RESTART_JOB=$(curl -fs -X POST -H 'Content-Type: application/json' \
  --data-binary @spec-local.json "http://$COORD_C/v1/jobs" | json id)
wait_http "http://$COORD_C/v1/jobs/$RESTART_JOB" '"iterations_done": [2-9]'
kill -9 "$COORD_C_PID"
wait "$COORD_C_PID" 2>/dev/null || true
if grep -q '"type":"job.state".*"state":"\(succeeded\|failed\|canceled\)"' "ckpt-c/$RESTART_JOB.jsonl"; then
  echo "job $RESTART_JOB finished before the kill; the restart gate would pass vacuously" >&2; exit 1
fi
bin/datamimed -addr "$COORD_C" -workers 1 -quiet -checkpoint-dir ckpt-c &
PIDS+=($!)
wait_http "http://$COORD_C/v1/jobs/$RESTART_JOB" '"state": "succeeded"'
curl -fs "http://$COORD_C/v1/jobs/$RESTART_JOB/artifact" > run-restart.jsonl
bin/datamime-inspect diff -a run-local.jsonl -b run-restart.jsonl -exact
echo "== the job's log is itself an artifact of the same run"
bin/datamime-inspect diff -a run-local.jsonl -b "ckpt-c/$RESTART_JOB.jsonl" -exact
echo "== fleet gate passed"
