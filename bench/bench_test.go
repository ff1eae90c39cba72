package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// Fake servers, one mix-in per optional interface profile.runOn and
// workload.Run type-assert.
type fakeServer struct{}

func (fakeServer) Name() string { return "fake" }
func (fakeServer) Handle(col trace.Collector, _ *stats.RNG) {
	col.Load(64, 8)
	col.Ops(3)
}

type fakeWarm struct{ warmed *int }

func (f fakeWarm) WarmDataset(col trace.Collector) {
	*f.warmed++
	col.Store(0, 64)
}

type fakeCompress struct{}

func (fakeCompress) CompressionRatio() float64 { return 2.5 }

type fakeSizer struct{}

func (fakeSizer) LastMessageSizes() (int, int) { return 10, 20 }

func TestWrapServerExposesOnlyInnerInterfaces(t *testing.T) {
	warmed := 0
	fw := fakeWarm{&warmed}
	inners := []workload.Server{
		fakeServer{},
		struct {
			fakeServer
			fakeWarm
		}{fakeWarm: fw},
		struct {
			fakeServer
			fakeCompress
		}{},
		struct {
			fakeServer
			fakeSizer
		}{},
		struct {
			fakeServer
			fakeWarm
			fakeCompress
		}{fakeWarm: fw},
		struct {
			fakeServer
			fakeWarm
			fakeSizer
		}{fakeWarm: fw},
		struct {
			fakeServer
			fakeCompress
			fakeSizer
		}{},
		struct {
			fakeServer
			fakeWarm
			fakeCompress
			fakeSizer
		}{fakeWarm: fw},
	}
	for i, inner := range inners {
		tr := newTracer(false)
		r := &simRun{}
		wrapped := wrapServer(inner, tr, r)

		_, innerW := inner.(workload.Warmable)
		_, innerC := inner.(workload.Compressible)
		_, innerZ := inner.(workload.Sizer)
		w, gotW := wrapped.(workload.Warmable)
		c, gotC := wrapped.(workload.Compressible)
		z, gotZ := wrapped.(workload.Sizer)
		if gotW != innerW || gotC != innerC || gotZ != innerZ {
			t.Errorf("server %d: wrapped exposes warm/compress/sizer %v/%v/%v, inner %v/%v/%v",
				i, gotW, gotC, gotZ, innerW, innerC, innerZ)
		}

		var events int64
		if gotW {
			before := warmed
			w.WarmDataset(trace.Null{})
			if warmed != before+1 || r.warmEnd == 0 {
				t.Errorf("server %d: WarmDataset not forwarded or not timed", i)
			}
			events++
		}
		if gotC && c.CompressionRatio() != 2.5 {
			t.Errorf("server %d: CompressionRatio not forwarded", i)
		}
		if gotZ {
			if req, resp := z.LastMessageSizes(); req != 10 || resp != 20 {
				t.Errorf("server %d: LastMessageSizes not forwarded", i)
			}
		}
		wrapped.Handle(trace.Null{}, nil)
		events += 2
		if wrapped.Name() != "fake" || r.handles != 1 || r.col.events != events {
			t.Errorf("server %d: name %q, %d handles, %d events (want %d)",
				i, wrapped.Name(), r.handles, r.col.events, events)
		}
	}
}

// smallSearch is the search-cached scenario (30 ms an evaluation) cut down
// to a test's budget.
func smallSearch(iterations, parallel int, cached bool) workloadDef {
	return workloadDef{name: "small", iterations: iterations, parallel: parallel, cached: cached, scenario: cachedScenario}
}

// The wrappers must not change the search: a traced search equals the
// untraced one bit for bit. 4 serial iterations cover the evaluation path;
// 13 iterations at Parallel=2 reach the first GP proposal, so they also
// cover NextBatch (opt.FallbackBatch would jitter instead) and the
// diagnostics the trace records carry.
func TestTracedSearchIsBitIdentical(t *testing.T) {
	for _, w := range []workloadDef{smallSearch(4, 1, false), smallSearch(13, 2, false)} {
		p, err := prepare(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := runSearch(p, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer(w.parallel == 1)
		traced, err := runSearch(p, tr, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.res.Trace, traced.res.Trace) {
			t.Errorf("%d iterations, parallel %d: traces differ", w.iterations, w.parallel)
		}
		if !reflect.DeepEqual(plain.res.BestProfile, traced.res.BestProfile) {
			t.Errorf("%d iterations, parallel %d: best profiles differ", w.iterations, w.parallel)
		}
		if plain.fingerprint != traced.fingerprint {
			t.Errorf("fingerprints differ: %s, %s", plain.fingerprint, traced.fingerprint)
		}
		if w.iterations > 12 && traced.res.Trace[12].Diagnostics == nil {
			t.Errorf("first GP proposal carries no diagnostics through the wrapper")
		}
		if len(traced.evalMS) != w.iterations {
			t.Errorf("%d per-evaluation samples, want %d", len(traced.evalMS), w.iterations)
		}

		m := layerMetrics(tr, w, traced)
		runs := float64(w.iterations * 4) // 1 main run + 3 curve points
		if m["apps.build_calls"] != runs || m["profile.runs"] != runs {
			t.Errorf("build_calls %v, runs %v, want %v", m["apps.build_calls"], m["profile.runs"], runs)
		}
		if m["apps.requests"] == 0 || m["sim.events"] == 0 || m["sim.warm_ms"] == 0 {
			t.Errorf("no requests, events or warm time recorded: %v", m)
		}
		ids := map[int]bool{0: true}
		for _, s := range tr.spans {
			if !ids[s.Parent] || s.End < s.Start {
				t.Fatalf("span %+v: unknown parent or negative duration", s)
			}
			ids[s.ID] = true
		}
	}
}

// The traced pass on a cached search: every per-layer metric is produced,
// every lookup hits, and the output checks pass.
func TestTracedPassReportsEveryLayer(t *testing.T) {
	w := smallSearch(14, 1, true)
	res, c, spans, err := runTraced(w, 5, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.violations) != 0 || c.failed != 0 {
		t.Errorf("checks failed: %v", c.violations)
	}
	for _, d := range perLayer {
		if _, ok := res.PerLayer[d.Name]; !ok {
			t.Errorf("per-layer metric %s not reported", d.Name)
		}
	}
	if got := res.PerLayer["core.cache_hits"].Value; got != 14 {
		t.Errorf("cache hits %v, want 14", got)
	}
	if res.PerLayer["profile.sweep_ms"].Value != 0 {
		t.Errorf("a fully cached search ran a sweep")
	}
	for _, name := range []string{"opt.propose_ms", "opt.gp_fit_ms", "sim.replay_ns_per_event", "apps.emit_ns_per_event", "telemetry.on_over_off"} {
		if res.PerLayer[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.PerLayer[name].Value)
		}
	}
	if len(spans) == 0 {
		t.Error("no spans for the trace file")
	}
}

func TestChecksCatchViolations(t *testing.T) {
	w := smallSearch(3, 1, false)
	p, err := prepare(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := runSearch(p, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := &checks{}
	c.search("same", p, run, run.fingerprint)
	if len(c.violations) != 0 {
		t.Fatalf("clean search flagged: %v", c.violations)
	}
	c.search("other trajectory", p, run, "0000")
	p.def.cached = true // no cache was configured, so nothing hit
	c.search("uncached", p, run, run.fingerprint)
	if len(c.violations) != 2 || c.attempted != 9 {
		t.Errorf("violations %v, attempted %d", c.violations, c.attempted)
	}
}

func TestUnionNS(t *testing.T) {
	spans := []span{{Start: 10, End: 20}, {Start: 15, End: 30}, {Start: 40, End: 50}, {Start: 41, End: 45}}
	if got := unionNS(spans); got != 30 {
		t.Errorf("union = %d, want 30", got)
	}
}

func TestSlowdown(t *testing.T) {
	// One evaluation hit by a burst moves the wall ratio, not the median.
	a := []float64{10, 20, 30, 0, 40}
	b := []float64{11, 22, 90, 5, 44}
	if got := slowdown(a, b); got < 1.0999 || got > 1.1001 {
		t.Errorf("slowdown = %v, want 1.1", got)
	}
}

func TestQuietSum(t *testing.T) {
	// Three repeats of a three-part search; a burst lands on another part of
	// each, and the sum keeps the undisturbed cost.
	repeats := [][]float64{{9, 2, 3}, {1, 9, 3}, {1, 2, 9}}
	if got := quietSum(repeats); got != 6 {
		t.Errorf("quietSum = %v, want 6", got)
	}
	if got := quietSum(repeats[:1]); got != 14 {
		t.Errorf("quietSum of one repeat = %v, want its total 14", got)
	}
}

func resultWith(wall measured, rebuilds float64) *resultFile {
	return &resultFile{
		Host: hostShape{CPUModel: "cpu", NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"},
		Workloads: map[string]*workloadResult{"search-kv": {
			EndToEnd: map[string]measured{"search_wall_s": wall},
			PerLayer: map[string]measured{"opt.cholesky_rebuilds": single(rebuilds, "count")},
		}},
	}
}

func TestCompare(t *testing.T) {
	bound := 0.0
	for _, d := range endToEnd {
		if d.Name == "search_wall_s" {
			bound = d.Bound
		}
	}
	base := measured{Value: 10, Unit: "s", Min: 9.9, Max: 10.1, Samples: 3}
	scaled := func(f float64) measured {
		return measured{Value: 10 * f, Unit: "s", Min: 9.9 * f, Max: 10.1 * f, Samples: 3}
	}
	noisy := measured{Value: 10.2, Unit: "s", Min: 9, Max: 9 + 10.2*(bound+0.2), Samples: 3}
	cases := []struct {
		name     string
		b        *resultFile
		wantOK   bool
		wantText string
	}{
		{"same", resultWith(scaled(1+bound/2), 24), true, "within bound"},
		{"slower", resultWith(scaled(1+2*bound), 24), false, "REGRESSED"},
		{"faster", resultWith(scaled(1-2*bound), 24), true, "improved"},
		{"spread wider than bound", resultWith(noisy, 24), true, "unresolved"},
		{"exact count moved", resultWith(base, 25), false, "DIFFERS"},
	}
	for _, tc := range cases {
		var out bytes.Buffer
		ok, err := compare(&out, resultWith(base, 24), tc.b)
		if err != nil || ok != tc.wantOK || !strings.Contains(out.String(), tc.wantText) {
			t.Errorf("%s: ok=%v err=%v, want ok=%v and %q in:\n%s", tc.name, ok, err, tc.wantOK, tc.wantText, out.String())
		}
	}

	other := resultWith(base, 24)
	other.Host.GOMAXPROCS = 1
	if _, err := compare(io.Discard, resultWith(base, 24), other); err == nil {
		t.Error("compared results from different host shapes")
	}

	degenerate := resultWith(scaled(3), 24)
	degenerate.Workloads["search-kv"].Degenerate = true
	var out bytes.Buffer
	if ok, err := compare(&out, resultWith(base, 24), degenerate); err != nil || !ok || !strings.Contains(out.String(), "degenerate") {
		t.Errorf("degenerate workload was judged: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

func TestMergeJoinsSections(t *testing.T) {
	dir := t.TempDir()
	e2e := resultWith(single(10, "s"), 0)
	e2e.Workloads["search-kv"].PerLayer = nil
	e2e.Workloads["search-kv"].Attempted = 16
	layers := resultWith(single(0, "s"), 24)
	layers.Workloads["search-kv"].EndToEnd = nil
	layers.Workloads["search-kv"].Attempted = 32
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	if err := writeJSON(a, e2e); err != nil {
		t.Fatal(err)
	}
	if err := writeJSON(b, layers); err != nil {
		t.Fatal(err)
	}
	got, err := merge([]string{a, b})
	if err != nil {
		t.Fatal(err)
	}
	w := got.Workloads["search-kv"]
	if w.EndToEnd["search_wall_s"].Value != 10 || w.PerLayer["opt.cholesky_rebuilds"].Value != 24 || w.Attempted != 48 {
		t.Errorf("merged workload %+v", w)
	}

	layers.Seed = 7
	if err := writeJSON(b, layers); err != nil {
		t.Fatal(err)
	}
	if _, err := merge([]string{a, b}); err == nil {
		t.Error("merged results of different seeds")
	}
}

// BENCHMARK.json and the Go tables name the same workloads and metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var bj struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"bench"}) {
		t.Errorf("paths %v", bj.Paths)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: %+v, table has %s: %s", i, bj.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (metric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s %d: %+v, table has %+v", kind, i, got[i], d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Better != "lower" || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: compare assumes lower-is-better with a bound in (0, 0.25]", d.Name)
		}
	}
}
