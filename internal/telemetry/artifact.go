package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// The JSONL run artifact is a newline-delimited stream of Event objects:
// one eval event per iteration (in iteration order) interleaved with span
// events. It is self-describing enough for offline analysis — convergence
// plots, phase-latency breakdowns, per-metric EMD attribution — without the
// in-memory Result: ScanJSONL reads it back, core.EvalEventFromTelemetry
// decodes its eval events, and their best_error attributes are the Fig. 10
// series exactly.

// Attribute keys used by eval events in the artifact.
const (
	// AttrError and AttrBestError carry the iteration's objective value
	// and the running minimum (the Fig. 10 series).
	AttrError     = "error"
	AttrBestError = "best_error"
	// AttrCacheHit, AttrRetried, AttrReplayed are 0/1 flags.
	AttrCacheHit = "cache_hit"
	AttrRetried  = "retried"
	AttrReplayed = "replayed"
	// AttrSimCycles is the estimated simulated cycles the evaluation cost.
	AttrSimCycles = "sim_cycles"
	// AttrWorker identifies, on PhaseSimRun and PhaseBudgetWait spans, the
	// simulation budget slot a profile ran in — its worker track on a
	// timeline — and AttrLanes, on PhaseSimRun, how many cache allocations
	// its pass measured (the main lane and one per curve point). Artifacts
	// written before a profile was one pass carry "ways" and "warm" on their
	// sim spans instead, which nothing reads.
	AttrWorker = "worker"
	AttrLanes  = "lanes"
	// AttrBuildNS, AttrWarmNS and AttrMeasureNS split a PhaseSimRun span
	// into its sub-phases — machine reset plus NewServer, WarmDataset, and
	// the warmup and measured windows.
	AttrBuildNS   = "build_ns"
	AttrWarmNS    = "warm_ns"
	AttrMeasureNS = "measure_ns"
	// AttrRemoteWorker, AttrRetries, and AttrRemote ride on PhaseRemoteEval
	// spans and the fleet-churn instants: the dispatcher-assigned integer ID
	// of the fleet worker involved, how many failed dispatch attempts
	// preceded this result, and whether the evaluation actually ran remotely
	// (0 = the dispatcher's local fallback served it).
	AttrRemoteWorker = "remote_worker"
	AttrRetries      = "retries"
	AttrRemote       = "remote"
	// AttrFleetWorker marks a span that executed on a remote fleet worker
	// and was shipped back in the /v1/evaluate response envelope, carrying
	// the dispatcher-assigned worker ID (-1 = the local fallback backend).
	// The trace exporter routes such spans onto per-worker *process* tracks
	// and the timeline report folds them into fleet-wide statistics.
	AttrFleetWorker = "fleet_worker"
	// AttrWorkerNS rides on PhaseRemoteEval spans: the worker-side
	// evaluation duration, so dispatch overhead (round trip minus remote
	// compute) is recoverable from the artifact alone.
	AttrWorkerNS = "worker_ns"
	// AttrCholeskyAppends and AttrCholeskyRebuilds ride on PhaseGPFit
	// spans: how many incremental O(n²) factor appends vs O(n³)
	// refactorization fallbacks the surrogate update needed.
	AttrCholeskyAppends  = "cholesky_appends"
	AttrCholeskyRebuilds = "cholesky_rebuilds"
	// EMDPrefix prefixes per-component EMD attribution attributes
	// ("emd_l1d_mpki", "emd_ipc_curve", ...).
	EMDPrefix = "emd_"
	// PhaseNSPrefix prefixes per-phase wall-clock attributes on eval
	// events ("phase_generate_ns", "phase_profile_ns").
	PhaseNSPrefix = "phase_"
)

// WriteJSONL writes events to w, one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return fmt.Errorf("telemetry: encoding artifact line %d: %w", i, err)
		}
	}
	return nil
}

// NewJSONLSink returns an OnEvent sink that streams every event to w as a
// JSONL line. Writes are serialized; errors are dropped (telemetry must
// never fail the search).
func NewJSONLSink(w io.Writer) func(Event) {
	enc := json.NewEncoder(w)
	var mu sync.Mutex
	return func(ev Event) {
		mu.Lock()
		_ = enc.Encode(&ev)
		mu.Unlock()
	}
}

// ScanJSONL is the one reader of JSONL artifacts: it calls fn for every line
// that parses as a T (an Event, or a line type that embeds one, such as a
// datamimed job log's), in stream order, and returns how many non-empty
// lines did not parse (usually a tail truncated by a writer that died
// mid-flush; callers that care should warn when it is nonzero). Unknown
// event types reach fn like any other, so consumers skip what they do not
// know. An error from fn stops the scan and is returned with its line
// number.
func ScanJSONL[T any](r io.Reader, fn func(T) error) (malformed int, err error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var ev T
		if err := json.Unmarshal(raw, &ev); err != nil {
			malformed++
			continue
		}
		if err := fn(ev); err != nil {
			return malformed, fmt.Errorf("artifact line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return malformed, fmt.Errorf("reading artifact: %w", err)
	}
	return malformed, nil
}
