package inspect

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"datamime/internal/telemetry"
)

// WorkerStat is one simulation budget slot's occupancy over the run.
type WorkerStat struct {
	// Worker is the pool index (0 also covers the serial path).
	Worker int
	// Runs counts profile.sim spans the worker executed.
	Runs int
	// BusyNS is the summed span duration.
	BusyNS int64
}

// Timeline is the utilization analysis of a run's profile.sim spans: how
// long each profiler worker was busy, how much wall-clock the simulation
// phase covered, and how well the pool overlapped work. All figures derive
// from the artifact's wall-clock stamps, so a run recorded without profiler
// spans (a datamimed job without -telemetry) yields an empty timeline.
type Timeline struct {
	// Workers lists per-worker occupancy, ordered by pool index.
	Workers []WorkerStat
	// BusyNS is the summed simulation time across all workers.
	BusyNS int64
	// WallNS is the union length of all simulation intervals — the
	// wall-clock time during which at least one worker was simulating.
	WallNS int64
	// SerialNS is the portion of WallNS with exactly one busy worker: the
	// simulation phase's critical-path-like share that no amount of pool
	// width can compress.
	SerialNS int64
	// BudgetWaits and BudgetWaitNS total the budget-semaphore stalls.
	BudgetWaits  int
	BudgetWaitNS int64
	// SpanNS is the run's full first-to-last span extent (any phase),
	// giving the share of the run the simulation phase accounts for.
	SpanNS int64
	// Remote lists per-remote-worker dispatch lanes (eval.remote spans),
	// ordered by worker ID with the local fallback (ID -1) first; empty for
	// runs that never dispatched. DispatchRetries counts eval.remote spans
	// that needed a retry (retries > 0), DispatchFallbacks those of them the
	// local backend served (remote == 0).
	Remote            []RemoteStat
	DispatchRetries   int
	DispatchFallbacks int

	// Fleet lists per-fleet-worker simulation occupancy, built from the
	// spans remote workers shipped back (anchored to the coordinator clock
	// and tagged with the fleet worker ID). Empty for runs without span
	// shipping.
	Fleet []FleetStat
	// FleetBusyNS is the summed remote simulation time across the fleet;
	// BusyNS above covers only this process's budget slots, so the two
	// together are the run's total simulation work.
	FleetBusyNS int64
	// FleetWallNS is the union extent of all simulation intervals — local
	// and remote — on the shared timeline: the denominator of the
	// fleet-wide occupancy figure.
	FleetWallNS int64
	// FleetBudgetWaits / FleetBudgetWaitNS total the budget-semaphore
	// stalls observed on remote workers.
	FleetBudgetWaits  int
	FleetBudgetWaitNS int64
	// DispatchOverheadNS sums, over eval.remote round trips that carried a
	// worker-side duration, the round trip minus the worker's own
	// evaluation time — serialization, network, and queueing overhead. Both
	// are monotonic durations and the second lies inside the first, so no
	// clock enters it; a sample that still comes out negative (a hand-edited
	// artifact) adds nothing.
	DispatchOverheadNS int64
	// DispatchOverheadSamples counts round trips that carried a worker-side
	// duration.
	DispatchOverheadSamples int
	// UnstampedSpans counts span events the artifact carried without
	// wall-clock stamps; they are invisible to every figure above.
	UnstampedSpans int
}

// RemoteStat is one remote evaluation worker's lane over the run.
type RemoteStat struct {
	// Worker is the dispatcher-assigned worker ID (-1 = local fallback).
	Worker int
	// Evals counts eval.remote round trips served by this worker.
	Evals int
	// BusyNS is the summed round-trip duration.
	BusyNS int64
	// Retries sums the failed attempts that preceded this worker's
	// successful evaluations.
	Retries int
}

// FleetStat is one fleet worker's simulation occupancy, from shipped spans.
type FleetStat struct {
	// Worker is the dispatcher-assigned fleet worker ID (-1 = spans from
	// evaluations the dispatcher served via the local fallback).
	Worker int
	// Sims counts profile.sim spans the worker executed.
	Sims int
	// BusyNS is the summed simulation time.
	BusyNS int64
	// WallNS is the union extent of this worker's simulation intervals.
	WallNS int64
	// Lanes is the number of distinct budget-slot lanes observed on the
	// worker — its effective intra-evaluation parallelism.
	Lanes int
}

// Efficiency is the worker's parallel efficiency: busy time divided by its
// covered wall-clock per observed lane (1.0 = every lane always busy).
func (f FleetStat) Efficiency() float64 {
	if f.WallNS <= 0 || f.Lanes <= 0 {
		return 0
	}
	return float64(f.BusyNS) / float64(f.WallNS) / float64(f.Lanes)
}

// boundary is one interval edge for the union sweeps.
type boundary struct {
	at    int64
	delta int
}

// sweep measures the union length of the intervals behind bounds (covered)
// and the portion covered by exactly one interval (serial). Ends sort before
// starts at the same instant so zero-length touching intervals don't inflate
// depth.
func sweep(bounds []boundary) (covered, serial int64) {
	sort.Slice(bounds, func(i, j int) bool {
		if bounds[i].at != bounds[j].at {
			return bounds[i].at < bounds[j].at
		}
		return bounds[i].delta < bounds[j].delta
	})
	depth := 0
	var prev int64
	for _, bd := range bounds {
		if depth > 0 {
			covered += bd.at - prev
		}
		if depth == 1 {
			serial += bd.at - prev
		}
		depth += bd.delta
		prev = bd.at
	}
	return covered, serial
}

// NewTimeline builds the utilization analysis from a run's retained spans.
// Spans shipped back from fleet workers (tagged with the fleet-worker
// attribute, already anchored to the coordinator clock) feed the Fleet
// figures and are kept out of the local pool's — each process's occupancy is
// measured against its own lanes.
func NewTimeline(run *Run) *Timeline {
	t := &Timeline{UnstampedSpans: run.UnstampedSpans}
	byWorker := make(map[int]*WorkerStat)
	byRemote := make(map[int]*RemoteStat)
	byFleet := make(map[int]*FleetStat)
	fleetBounds := make(map[int][]boundary)
	fleetLanes := make(map[int]map[int]bool)
	var bounds, simBounds []boundary
	var lo, hi int64
	for i, sp := range run.SpanLog {
		if i == 0 || sp.StartNS < lo {
			lo = sp.StartNS
		}
		if i == 0 || sp.EndNS > hi {
			hi = sp.EndNS
		}
		t.SpanNS = hi - lo
		fw, fleet := sp.Attrs[telemetry.AttrFleetWorker]
		switch sp.Phase {
		case telemetry.PhaseSimRun:
			d := sp.EndNS - sp.StartNS
			simBounds = append(simBounds, boundary{sp.StartNS, 1}, boundary{sp.EndNS, -1})
			if fleet {
				id := int(fw)
				fs := byFleet[id]
				if fs == nil {
					fs = &FleetStat{Worker: id}
					byFleet[id] = fs
					fleetLanes[id] = make(map[int]bool)
				}
				fs.Sims++
				fs.BusyNS += d
				t.FleetBusyNS += d
				fleetLanes[id][int(sp.Attrs[telemetry.AttrWorker])] = true
				fleetBounds[id] = append(fleetBounds[id],
					boundary{sp.StartNS, 1}, boundary{sp.EndNS, -1})
				continue
			}
			w := int(sp.Attrs[telemetry.AttrWorker])
			ws := byWorker[w]
			if ws == nil {
				ws = &WorkerStat{Worker: w}
				byWorker[w] = ws
			}
			ws.Runs++
			ws.BusyNS += d
			t.BusyNS += d
			bounds = append(bounds, boundary{sp.StartNS, 1}, boundary{sp.EndNS, -1})
		case telemetry.PhaseBudgetWait:
			if fleet {
				t.FleetBudgetWaits++
				t.FleetBudgetWaitNS += sp.EndNS - sp.StartNS
				continue
			}
			t.BudgetWaits++
			t.BudgetWaitNS += sp.EndNS - sp.StartNS
		case telemetry.PhaseRemoteEval:
			w := int(sp.Attrs[telemetry.AttrRemoteWorker])
			rs := byRemote[w]
			if rs == nil {
				rs = &RemoteStat{Worker: w}
				byRemote[w] = rs
			}
			rs.Evals++
			rs.BusyNS += sp.EndNS - sp.StartNS
			if retries := int(sp.Attrs[telemetry.AttrRetries]); retries > 0 {
				rs.Retries += retries
				t.DispatchRetries++
				if sp.Attrs[telemetry.AttrRemote] == 0 {
					t.DispatchFallbacks++
				}
			}
			if wns := int64(sp.Attrs[telemetry.AttrWorkerNS]); wns > 0 {
				t.DispatchOverheadSamples++
				t.DispatchOverheadNS += max(0, (sp.EndNS-sp.StartNS)-wns)
			}
		}
	}
	for _, rs := range byRemote {
		t.Remote = append(t.Remote, *rs)
	}
	sort.Slice(t.Remote, func(i, j int) bool { return t.Remote[i].Worker < t.Remote[j].Worker })
	for _, ws := range byWorker {
		t.Workers = append(t.Workers, *ws)
	}
	sort.Slice(t.Workers, func(i, j int) bool { return t.Workers[i].Worker < t.Workers[j].Worker })
	for id, fs := range byFleet {
		fs.WallNS, _ = sweep(fleetBounds[id])
		fs.Lanes = len(fleetLanes[id])
		t.Fleet = append(t.Fleet, *fs)
	}
	sort.Slice(t.Fleet, func(i, j int) bool { return t.Fleet[i].Worker < t.Fleet[j].Worker })

	t.WallNS, t.SerialNS = sweep(bounds)
	t.FleetWallNS, _ = sweep(simBounds)
	return t
}

// FleetOccupancy is the fleet-wide simulation occupancy: total simulation
// time (local pool + shipped remote spans) over the union wall-clock of all
// simulation intervals on the shared timeline.
func (t *Timeline) FleetOccupancy() float64 {
	if t.FleetWallNS <= 0 {
		return 0
	}
	return float64(t.BusyNS+t.FleetBusyNS) / float64(t.FleetWallNS)
}

// RemoteShare is the fraction of total simulation time executed on fleet
// workers rather than this process's pool.
func (t *Timeline) RemoteShare() float64 {
	total := t.BusyNS + t.FleetBusyNS
	if total <= 0 {
		return 0
	}
	return float64(t.FleetBusyNS) / float64(total)
}

// Speedup is the parallel speedup the pool achieved over running the same
// simulations serially: total busy time divided by covered wall-clock.
func (t *Timeline) Speedup() float64 {
	if t.WallNS <= 0 {
		return 0
	}
	return float64(t.BusyNS) / float64(t.WallNS)
}

// Efficiency is the speedup per observed worker (1.0 = perfect overlap).
func (t *Timeline) Efficiency() float64 {
	if len(t.Workers) == 0 {
		return 0
	}
	return t.Speedup() / float64(len(t.Workers))
}

// SerialShare is the fraction of the simulation wall-clock spent with only
// one worker busy.
func (t *Timeline) SerialShare() float64 {
	if t.WallNS <= 0 {
		return 0
	}
	return float64(t.SerialNS) / float64(t.WallNS)
}

// RenderText writes the terminal utilization report: per-worker occupancy
// with bars, the pool-level overlap summary, then the dispatch lanes and —
// for runs with shipped fleet spans — the fleet-wide occupancy section.
func (t *Timeline) RenderText(w io.Writer) error {
	var b strings.Builder
	if len(t.Workers) == 0 && len(t.Fleet) == 0 {
		b.WriteString("no timed profile.sim spans in the artifact\n")
		b.WriteString("(record the run with datamime -artifact, or datamimed -telemetry)\n")
		if t.UnstampedSpans > 0 {
			fmt.Fprintf(&b, "%d span events carried no wall-clock stamp\n", t.UnstampedSpans)
		}
		_, err := io.WriteString(w, b.String())
		return err
	}
	if len(t.Workers) > 0 {
		fmt.Fprintf(&b, "profiler worker occupancy (%d workers, %s simulated over %s wall):\n",
			len(t.Workers), fms(t.BusyNS), fms(t.WallNS))
		fmt.Fprintf(&b, "  %-10s %6s %12s %10s\n", "worker", "runs", "busy", "occupancy")
		for _, ws := range t.Workers {
			occ := 0.0
			if t.WallNS > 0 {
				occ = float64(ws.BusyNS) / float64(t.WallNS)
			}
			fmt.Fprintf(&b, "  %-10s %6d %12s %10s  |%s|\n",
				fmt.Sprintf("worker %d", ws.Worker), ws.Runs, fms(ws.BusyNS), fpct(occ), asciiBar(occ, 24))
		}
		fmt.Fprintf(&b, "\nspeedup %.2fx over %d workers — parallel efficiency %s\n",
			t.Speedup(), len(t.Workers), fpct(t.Efficiency()))
		fmt.Fprintf(&b, "single-worker (serial) share of sim wall-clock: %s\n", fpct(t.SerialShare()))
	}
	if t.BudgetWaits > 0 {
		fmt.Fprintf(&b, "budget-semaphore stalls: %d totaling %s\n", t.BudgetWaits, fms(t.BudgetWaitNS))
	}
	if t.SpanNS > 0 && len(t.Workers) > 0 {
		fmt.Fprintf(&b, "simulation covers %s of the run's %s span extent\n",
			fpct(float64(t.WallNS)/float64(t.SpanNS)), fms(t.SpanNS))
	}
	if len(t.Remote) > 0 {
		var remoteBusy int64
		for _, rs := range t.Remote {
			remoteBusy += rs.BusyNS
		}
		fmt.Fprintf(&b, "\nremote dispatch lanes (%d lanes, %s of round trips):\n",
			len(t.Remote), fms(remoteBusy))
		fmt.Fprintf(&b, "  %-18s %6s %12s %8s\n", "lane", "evals", "busy", "retries")
		for _, rs := range t.Remote {
			name := fmt.Sprintf("remote worker %d", rs.Worker)
			if rs.Worker < 0 {
				name = "local fallback"
			}
			fmt.Fprintf(&b, "  %-18s %6d %12s %8d\n", name, rs.Evals, fms(rs.BusyNS), rs.Retries)
		}
		if t.DispatchRetries > 0 || t.DispatchFallbacks > 0 {
			fmt.Fprintf(&b, "dispatch churn: %d retried evaluations, %d local fallbacks\n",
				t.DispatchRetries, t.DispatchFallbacks)
		}
		if t.DispatchOverheadSamples > 0 {
			fmt.Fprintf(&b, "dispatch overhead (round trip minus worker eval time): %s over %d samples\n",
				fms(t.DispatchOverheadNS), t.DispatchOverheadSamples)
		}
	}
	if len(t.Fleet) > 0 {
		fmt.Fprintf(&b, "\nfleet simulation occupancy (%d fleet processes, %s remote sim):\n",
			len(t.Fleet), fms(t.FleetBusyNS))
		fmt.Fprintf(&b, "  %-18s %6s %12s %6s %11s\n", "process", "sims", "busy", "lanes", "efficiency")
		for _, fs := range t.Fleet {
			name := fmt.Sprintf("fleet worker %d", fs.Worker)
			if fs.Worker < 0 {
				name = "fleet fallback"
			}
			fmt.Fprintf(&b, "  %-18s %6d %12s %6d %11s\n",
				name, fs.Sims, fms(fs.BusyNS), fs.Lanes, fpct(fs.Efficiency()))
		}
		fmt.Fprintf(&b, "fleet-wide occupancy: %s over %s covered sim wall (remote share %s)\n",
			fpct(t.FleetOccupancy()), fms(t.FleetWallNS), fpct(t.RemoteShare()))
		if t.FleetBudgetWaits > 0 {
			fmt.Fprintf(&b, "remote budget-semaphore stalls: %d totaling %s\n",
				t.FleetBudgetWaits, fms(t.FleetBudgetWaitNS))
		}
	}
	if t.UnstampedSpans > 0 {
		fmt.Fprintf(&b, "\n%d span events carried no wall-clock stamp and are excluded above\n",
			t.UnstampedSpans)
	}
	_, err := io.WriteString(w, b.String())
	return err
}
