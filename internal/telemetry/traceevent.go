package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Trace-event export: WriteTrace turns a run's event stream into the
// Chrome/Perfetto trace-event JSON object format, loadable in
// https://ui.perfetto.dev or chrome://tracing.
//
// Track layout of the coordinator process (pid 1 "datamime"):
//
//	tid 1      "search"      — propose/observe spans; instant events for
//	                           each finished eval and each cache hit
//	tid 2      "optimizer"   — gp_fit/acquisition spans; instant events
//	                           when a GP fit fell back to a Cholesky
//	                           refactorization
//	tid 3      "fleet"       — instant events for fleet churn (worker
//	                           registrations and deregistrations); present
//	                           only when the fleet changed during the run
//	tid 10+L   "eval lane L" — per-candidate spans (generate, profile)
//	                           and any phase the exporter does not know
//	                           (the profile.run and profile.curves spans
//	                           of logs written before a profile was one
//	                           span), greedily packed into as few
//	                           non-overlapping lanes as they need
//	tid 100+   "worker W"    — one track per simulation budget slot, carrying
//	                           its profile.sim spans; budget-semaphore
//	                           waits appear as instant events. When
//	                           concurrent candidates make one worker's
//	                           spans overlap, extra "(+k)" lanes absorb
//	                           the overflow.
//	tid 10000+ "remote worker W" — one track per remote evaluation worker,
//	                           carrying its eval.remote round-trip spans;
//	                           evaluations that fell back in-process land
//	                           on a "remote fallback" track.
//
// Spans that executed on a remote fleet worker and were shipped back in the
// /v1/evaluate response envelope (marked by AttrFleetWorker, anchored to
// the coordinator clock before emission) render as separate *processes*:
// pid 100+W "fleet worker W" (pid 99 "fleet fallback" for the local
// fallback backend), each with its own sim-worker tracks and budget-wait
// instants — one Perfetto file shows coordinator scheduling and remote
// execution side by side. Any other shipped phase lands on the process's
// eval lanes, as on the coordinator's.
//
// Timestamps are microseconds from the earliest event in the stream, so
// traces from different runs all start at zero. The exporter is a pure
// function of the event stream: it never touches the search. Evals and
// spans without wall-clock stamps (TimeNS == 0) cannot be placed on a
// timeline; they are counted in
// the trace's otherData.dropped_unstamped metadata rather than silently
// lost. Other event types (the artifact's header log line) are never drawn,
// so they are not counted.

const (
	tracePID          = 1
	traceTIDSearch    = 1
	traceTIDOptimizer = 2
	traceTIDFleet     = 3
	traceTIDEvalBase  = 10
	traceTIDWorker    = 100
	// traceTIDRemote bases the remote-worker lanes high enough that no
	// realistic budget slot collides with them.
	traceTIDRemote = 10000
	// workerLaneStride spaces per-worker overflow lanes; lanes beyond it
	// fold into the last one (overlap is legal in the format).
	workerLaneStride = 8
	// traceFleetPIDBase maps fleet worker W to pid traceFleetPIDBase+W; the
	// dispatcher's local fallback (worker ID -1) lands on the pid just below.
	traceFleetPIDBase = 100
)

// traceEvent is one entry of the trace-event JSON array.
type traceEvent struct {
	Name  string                 `json:"name"`
	Phase string                 `json:"ph"`
	PID   int                    `json:"pid"`
	TID   int                    `json:"tid,omitempty"`
	TS    float64                `json:"ts"`
	Dur   float64                `json:"dur,omitempty"`
	Scope string                 `json:"s,omitempty"`
	Args  map[string]interface{} `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent           `json:"traceEvents"`
	DisplayTimeUnit string                 `json:"displayTimeUnit"`
	OtherData       map[string]interface{} `json:"otherData,omitempty"`
}

// spanInterval is a span event with resolved start/end nanoseconds.
type spanInterval struct {
	ev         Event
	start, end int64
}

func spanBounds(ev Event) spanInterval {
	return spanInterval{ev: ev, start: ev.TimeNS - ev.DurNS, end: ev.TimeNS}
}

// procSpans accumulates what one process draws on its own tracks: the
// coordinator's, or one fleet worker's, whose spans were shipped back.
type procSpans struct {
	evals []spanInterval         // generate, profile and any unknown phase
	sims  map[int][]spanInterval // budget slot → profile.sim
	waits []Event                // budget.wait instants
}

// add files a span under the process's eval lanes, worker tracks or
// budget waits.
func (p *procSpans) add(ev Event) {
	switch ev.Phase {
	case PhaseSimRun:
		wkr := int(ev.Attrs[AttrWorker])
		p.sims[wkr] = append(p.sims[wkr], spanBounds(ev))
	case PhaseBudgetWait:
		p.waits = append(p.waits, ev)
	default:
		// Packed into eval lanes, such a span neither disappears nor
		// overlaps another on its track.
		p.evals = append(p.evals, spanBounds(ev))
	}
}

// WriteTrace renders events (a run artifact's stream, in any order) as
// trace-event JSON. Evals and spans without wall-clock stamps (TimeNS == 0)
// are omitted from the timeline and counted in otherData.dropped_unstamped.
func WriteTrace(w io.Writer, events []Event) error {
	var base int64 = -1
	dropped := 0
	for _, ev := range events {
		if ev.TimeNS == 0 {
			if ev.Type == TypeEval || ev.Type == TypeSpan {
				dropped++
			}
			continue
		}
		start := ev.TimeNS
		if ev.Type == TypeSpan {
			start = ev.TimeNS - ev.DurNS
		}
		if base < 0 || start < base {
			base = start
		}
	}
	if base < 0 {
		base = 0
	}
	us := func(ns int64) float64 { return float64(ns-base) / 1e3 }

	var out []traceEvent
	meta := func(pid, tid int, name string, sortIndex int) {
		out = append(out,
			traceEvent{Name: "thread_name", Phase: "M", PID: pid, TID: tid,
				Args: map[string]interface{}{"name": name}},
			traceEvent{Name: "thread_sort_index", Phase: "M", PID: pid, TID: tid,
				Args: map[string]interface{}{"sort_index": sortIndex}},
		)
	}
	process := func(pid int, name string) {
		out = append(out,
			traceEvent{Name: "process_name", Phase: "M", PID: pid,
				Args: map[string]interface{}{"name": name}},
			traceEvent{Name: "process_sort_index", Phase: "M", PID: pid,
				Args: map[string]interface{}{"sort_index": pid}},
		)
	}
	process(tracePID, "datamime")
	meta(tracePID, traceTIDSearch, "search", traceTIDSearch)
	meta(tracePID, traceTIDOptimizer, "optimizer", traceTIDOptimizer)

	span := func(pid, tid int, iv spanInterval, args map[string]interface{}) {
		out = append(out, traceEvent{
			Name: iv.ev.Phase, Phase: "X", PID: pid, TID: tid,
			TS: us(iv.start), Dur: float64(iv.ev.DurNS) / 1e3, Args: args,
		})
	}
	instant := func(pid, tid int, name string, ns int64, args map[string]interface{}) {
		out = append(out, traceEvent{
			Name: name, Phase: "i", PID: pid, TID: tid,
			TS: us(ns), Scope: "t", Args: args,
		})
	}

	coord := &procSpans{sims: map[int][]spanInterval{}}
	remoteSpans := map[int][]spanInterval{}
	fleetProcs := map[int]*procSpans{}
	fleetUsed := false
	for _, ev := range events {
		if ev.TimeNS == 0 {
			continue
		}
		switch ev.Type {
		case TypeEval:
			args := map[string]interface{}{"iter": ev.Iter}
			if v, ok := ev.Attrs[AttrError]; ok {
				args["error"] = v
			}
			if v, ok := ev.Attrs[AttrBestError]; ok {
				args["best_error"] = v
			}
			if ev.Skipped {
				args["skipped"] = true
			}
			instant(tracePID, traceTIDSearch, "eval", ev.TimeNS, args)
			if ev.Attrs[AttrCacheHit] > 0 {
				instant(tracePID, traceTIDSearch, "cache hit", ev.TimeNS,
					map[string]interface{}{"iter": ev.Iter})
			}
		case TypeSpan:
			if fw, remote := ev.Attrs[AttrFleetWorker]; remote {
				// A span shipped back from a fleet worker: route it to that
				// worker's process rather than the coordinator's tracks.
				fp := fleetProcs[int(fw)]
				if fp == nil {
					fp = &procSpans{sims: map[int][]spanInterval{}}
					fleetProcs[int(fw)] = fp
				}
				fp.add(ev)
				continue
			}
			iv := spanBounds(ev)
			switch ev.Phase {
			case PhasePropose, PhaseObserve:
				span(tracePID, traceTIDSearch, iv, spanArgs(ev))
			case PhaseGPFit, PhaseAcquisition:
				span(tracePID, traceTIDOptimizer, iv, spanArgs(ev))
				if ev.Phase == PhaseGPFit && ev.Attrs[AttrCholeskyRebuilds] > 0 {
					instant(tracePID, traceTIDOptimizer, "cholesky refactorization", ev.TimeNS,
						map[string]interface{}{"rebuilds": ev.Attrs[AttrCholeskyRebuilds]})
				}
			case PhaseRemoteEval:
				wkr := int(ev.Attrs[AttrRemoteWorker])
				remoteSpans[wkr] = append(remoteSpans[wkr], iv)
			case PhaseWorkerRegister, PhaseWorkerDeregister:
				fleetUsed = true
				instant(tracePID, traceTIDFleet, ev.Phase, ev.TimeNS, spanArgs(ev))
			default:
				coord.add(ev)
			}
		}
	}

	// laneTracks packs intervals into non-overlapping lanes under one pid and
	// emits them with per-lane thread metadata named via nameFor. Lanes
	// beyond maxLanes fold into the last one (overlap is legal in the
	// format).
	laneTracks := func(pid, tidBase, maxLanes int, ivs []spanInterval, nameFor func(lane int) string) {
		ls := assignLanes(ivs)
		maxL := -1
		for i, iv := range ivs {
			lane := min(ls[i], maxLanes-1)
			maxL = max(maxL, lane)
			span(pid, tidBase+lane, iv, spanArgs(iv.ev))
		}
		for l := 0; l <= maxL; l++ {
			meta(pid, tidBase+l, nameFor(l), tidBase+l)
		}
	}

	// layout draws one process's own tracks: its eval lanes (greedy
	// interval coloring), one worker track per budget slot with overflow
	// lanes when spans of several budgets overlap the slot, and its
	// budget-wait instants, whose track is named even when its slot has
	// run no profile yet.
	layout := func(pid int, p *procSpans) {
		laneTracks(pid, traceTIDEvalBase, math.MaxInt, p.evals, func(lane int) string {
			return fmt.Sprintf("eval lane %d", lane)
		})
		workers := make([]int, 0, len(p.sims))
		for wkr := range p.sims {
			workers = append(workers, wkr)
		}
		sort.Ints(workers)
		for _, wkr := range workers {
			laneTracks(pid, traceTIDWorker+wkr*workerLaneStride, workerLaneStride, p.sims[wkr], func(lane int) string {
				if lane == 0 {
					return fmt.Sprintf("worker %d", wkr)
				}
				return fmt.Sprintf("worker %d (+%d)", wkr, lane)
			})
		}
		named := map[int]bool{}
		for _, ev := range p.waits {
			wkr := int(ev.Attrs[AttrWorker])
			tid := traceTIDWorker + wkr*workerLaneStride
			instant(pid, tid, "budget wait", ev.TimeNS-ev.DurNS, map[string]interface{}{
				"wait_ms": float64(ev.DurNS) / 1e6,
				"worker":  wkr,
				"iter":    ev.Iter,
			})
			if len(p.sims[wkr]) == 0 && !named[wkr] {
				named[wkr] = true
				meta(pid, tid, fmt.Sprintf("worker %d", wkr), tid)
			}
		}
	}
	layout(tracePID, coord)

	// Remote evaluation lanes: one track per remote worker ID (a dispatched
	// run's eval.remote round trips), with the local-fallback lane (worker
	// ID -1) named distinctly. The fleet track appears only when the run
	// recorded fleet churn.
	if fleetUsed {
		meta(tracePID, traceTIDFleet, "fleet", traceTIDFleet)
	}
	remotes := make([]int, 0, len(remoteSpans))
	for wkr := range remoteSpans {
		remotes = append(remotes, wkr)
	}
	sort.Ints(remotes)
	for slot, wkr := range remotes {
		trackBase := traceTIDRemote + slot*workerLaneStride
		name := fmt.Sprintf("remote worker %d", wkr)
		if wkr < 0 {
			name = "remote fallback"
		}
		laneTracks(tracePID, trackBase, workerLaneStride, remoteSpans[wkr], func(lane int) string {
			if lane == 0 {
				return name
			}
			return fmt.Sprintf("%s (+%d)", name, lane)
		})
	}

	// Fleet worker processes: spans shipped back over the wire, one process
	// per dispatcher worker ID, laid out as the coordinator's own tracks.
	fleetIDs := make([]int, 0, len(fleetProcs))
	for fw := range fleetProcs {
		fleetIDs = append(fleetIDs, fw)
	}
	sort.Ints(fleetIDs)
	for _, fw := range fleetIDs {
		pid := traceFleetPIDBase + fw
		name := fmt.Sprintf("fleet worker %d", fw)
		if fw < 0 {
			name = "fleet fallback"
		}
		process(pid, name)
		layout(pid, fleetProcs[fw])
	}

	tf := traceFile{TraceEvents: out, DisplayTimeUnit: "ms"}
	if dropped > 0 {
		tf.OtherData = map[string]interface{}{"dropped_unstamped": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// spanArgs copies a span's iteration and attributes into trace args.
func spanArgs(ev Event) map[string]interface{} {
	args := map[string]interface{}{"iter": ev.Iter}
	for k, v := range ev.Attrs {
		args[k] = v
	}
	return args
}

// assignLanes greedily packs possibly-overlapping intervals into lanes:
// each interval takes the first lane whose previous occupant ended at or
// before its start. Processing order is by (start, longest-first) so an
// enclosing span claims its lane before its children; assignment is
// deterministic for a given input. Returns one lane index per input
// interval, in input order.
func assignLanes(ivs []spanInterval) []int {
	order := make([]int, len(ivs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := ivs[order[a]], ivs[order[b]]
		if ia.start != ib.start {
			return ia.start < ib.start
		}
		return ia.end > ib.end
	})
	lanes := make([]int, len(ivs))
	var lastEnd []int64
	for _, idx := range order {
		iv := ivs[idx]
		placed := false
		for l, end := range lastEnd {
			if end <= iv.start {
				lanes[idx] = l
				lastEnd[l] = iv.end
				placed = true
				break
			}
		}
		if !placed {
			lanes[idx] = len(lastEnd)
			lastEnd = append(lastEnd, iv.end)
		}
	}
	return lanes
}

// TraceStats summarizes a validated trace for gating and reporting.
type TraceStats struct {
	// Events is the total trace-event count, metadata included.
	Events int
	// Spans and Instants count "X" and "i" entries.
	Spans    int
	Instants int
	// Tracks counts named thread tracks; WorkerTracks the "worker N" subset
	// and RemoteTracks the "remote worker N" / "remote fallback" subset
	// (overflow "(+k)" lanes excluded from both).
	Tracks       int
	WorkerTracks int
	RemoteTracks int
	// Processes counts named processes; FleetProcesses the "fleet worker N" /
	// "fleet fallback" subset carrying spans shipped from remote workers.
	Processes      int
	FleetProcesses int
	// DroppedUnstamped is the exporter's count of events it could not place
	// on the timeline (no wall-clock stamp), read from the trace metadata.
	DroppedUnstamped int
}

// ValidateTrace parses trace-event JSON (the object form WriteTrace emits)
// and checks structural invariants: every event has a phase type, complete
// events have non-negative timestamps and durations, every referenced
// (pid, tid) track is named by a thread_name metadata event, and every
// referenced pid is named by a process_name metadata event. It is the CI
// timeline and fleet gates' checker.
func ValidateTrace(r io.Reader) (TraceStats, error) {
	var tf traceFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&tf); err != nil {
		return TraceStats{}, fmt.Errorf("telemetry: parsing trace JSON: %w", err)
	}
	var st TraceStats
	st.Events = len(tf.TraceEvents)
	if v, ok := tf.OtherData["dropped_unstamped"].(float64); ok {
		st.DroppedUnstamped = int(v)
	}
	type track struct{ pid, tid int }
	named := map[track]string{}
	procNamed := map[int]string{}
	used := map[track]bool{}
	for i, ev := range tf.TraceEvents {
		switch ev.Phase {
		case "M":
			name, _ := ev.Args["name"].(string)
			switch ev.Name {
			case "thread_name":
				if name == "" {
					return st, fmt.Errorf("telemetry: trace event %d: thread_name without a name", i)
				}
				named[track{ev.PID, ev.TID}] = name
			case "process_name":
				if name == "" {
					return st, fmt.Errorf("telemetry: trace event %d: process_name without a name", i)
				}
				procNamed[ev.PID] = name
			}
		case "X":
			st.Spans++
			if ev.TS < 0 || ev.Dur < 0 {
				return st, fmt.Errorf("telemetry: trace event %d (%s): negative ts or dur", i, ev.Name)
			}
			used[track{ev.PID, ev.TID}] = true
		case "i":
			st.Instants++
			if ev.TS < 0 {
				return st, fmt.Errorf("telemetry: trace event %d (%s): negative ts", i, ev.Name)
			}
			used[track{ev.PID, ev.TID}] = true
		case "":
			return st, fmt.Errorf("telemetry: trace event %d (%s): missing ph", i, ev.Name)
		}
	}
	for tr := range used {
		if _, ok := named[tr]; !ok {
			return st, fmt.Errorf("telemetry: track pid %d tid %d carries events but has no thread_name", tr.pid, tr.tid)
		}
		if _, ok := procNamed[tr.pid]; !ok {
			return st, fmt.Errorf("telemetry: process %d carries events but has no process_name", tr.pid)
		}
	}
	for _, name := range named {
		st.Tracks++
		if containsPlus(name) {
			continue
		}
		var w int
		if n, _ := fmt.Sscanf(name, "worker %d", &w); n == 1 {
			st.WorkerTracks++
		}
		if n, _ := fmt.Sscanf(name, "remote worker %d", &w); n == 1 || name == "remote fallback" {
			st.RemoteTracks++
		}
	}
	for _, name := range procNamed {
		st.Processes++
		var w int
		if n, _ := fmt.Sscanf(name, "fleet worker %d", &w); n == 1 || name == "fleet fallback" {
			st.FleetProcesses++
		}
	}
	return st, nil
}

func containsPlus(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == '(' {
			return true
		}
	}
	return false
}
