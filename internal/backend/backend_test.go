package backend

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/core"
	"datamime/internal/datagen"
	"datamime/internal/opt"
	"datamime/internal/profile"
	"datamime/internal/sim"
	"datamime/internal/stats"
	"datamime/internal/telemetry"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

// testGenerator is a fast memcached-style generator for backend tests.
func testGenerator() datagen.Generator {
	space := opt.MustSpace(
		opt.Param{Name: "qps", Lo: 10_000, Hi: 200_000, Log: true},
		opt.Param{Name: "get_ratio", Lo: 0, Hi: 1},
		opt.Param{Name: "val_mu", Lo: 16, Hi: 3_000, Log: true, Integer: true},
	)
	return datagen.Generator{
		Name:  "kv-backend-test",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			cfg := kvstore.Config{
				NumKeys:   4_000,
				KeySize:   stats.Normal{Mu: 24, Sigma: 6, Min: 4},
				ValueSize: stats.Normal{Mu: x[2], Sigma: x[2] / 8, Min: 1},
				GetRatio:  x[1],
			}
			return workload.Benchmark{
				Name: "kv-backend-test",
				QPS:  x[0],
				NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
					return kvstore.New(cfg, layout, seed)
				},
			}
		},
	}
}

// testProfiler is a reduced-budget profiler keeping these tests fast.
func testProfiler() *profile.Profiler {
	p := profile.New(sim.Broadwell())
	p.WindowCycles = 60_000
	p.Windows = 3
	p.WarmupWindows = 1
	p.SkipCurves = true
	return p
}

func testRequest(pr *profile.Profiler) EvalRequest {
	return EvalRequest{
		Version:   ProtocolVersion,
		Kind:      KindCandidate,
		Generator: "kv-backend-test",
		Params:    []float64{50_000, 0.9, 128},
		Seed:      7,
		Profiler:  SpecOf(pr),
	}
}

// TestLocalBackendBitIdentical pins the determinism contract at its root:
// the LocalBackend returns byte-for-byte the profile a direct profiler call
// measures, and JSON round-tripping (the wire transport) preserves that
// identity.
func TestLocalBackendBitIdentical(t *testing.T) {
	gen := testGenerator()
	pr := testProfiler()
	direct, err := pr.Profile(gen.Benchmark([]float64{50_000, 0.9, 128}), 7)
	if err != nil {
		t.Fatal(err)
	}

	lb := NewLocalBackend(gen)
	res, err := lb.Evaluate(context.Background(), testRequest(pr))
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(direct)
	gotJSON, _ := json.Marshal(res.Profile)
	if string(wantJSON) != string(gotJSON) {
		t.Fatal("LocalBackend profile differs from direct profiler measurement")
	}

	// Wire round trip: encode/decode like RemoteBackend does.
	var decoded profile.Profile
	if err := json.Unmarshal(gotJSON, &decoded); err != nil {
		t.Fatal(err)
	}
	reJSON, _ := json.Marshal(&decoded)
	if string(reJSON) != string(wantJSON) {
		t.Fatal("JSON round trip perturbed the profile")
	}
}

// TestRequestValidation covers the requests no backend may serve: resolve
// refuses each with ErrRequest, and never builds a benchmark to find out.
func TestRequestValidation(t *testing.T) {
	pr := testProfiler()
	l := NewLocalBackend(testGenerator())
	if _, _, err := l.resolve(testRequest(pr)); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	for _, tc := range unresolvableRequests() {
		r := testRequest(pr)
		tc.mutate(&r)
		if _, _, err := l.resolve(r); !errors.Is(err, ErrRequest) {
			t.Errorf("%s: err = %v, want ErrRequest", tc.name, err)
		}
	}
}

// badRequest mutates testRequest into a request resolve must refuse. wire
// reports whether JSON can carry the mutation at all (a NaN cannot:
// RemoteBackend refuses to encode it).
type badRequest struct {
	name   string
	wire   bool
	mutate func(*EvalRequest)
}

func unresolvableRequests() []badRequest {
	return []badRequest{
		{"version mismatch", true, func(r *EvalRequest) { r.Version = 99 }},
		{"unknown kind", true, func(r *EvalRequest) { r.Kind = "mystery" }},
		{"candidate without generator", true, func(r *EvalRequest) { r.Generator = "" }},
		{"unknown generator", true, func(r *EvalRequest) { r.Generator = "nope" }},
		{"no machine", true, func(r *EvalRequest) { r.Profiler.Machine = "" }},
		{"unknown machine", true, func(r *EvalRequest) { r.Profiler.Machine = "pentium" }},
		{"windows 0", true, func(r *EvalRequest) { r.Profiler.Windows = 0 }},
		{"target without workload", true, func(r *EvalRequest) { r.Kind = KindTarget; r.Workload = "" }},
		{"unknown workload", true, func(r *EvalRequest) { r.Kind = KindTarget; r.Workload = "mem-fbb" }},
		{"short params", true, func(r *EvalRequest) { r.Params = r.Params[:1] }},
		{"long params", true, func(r *EvalRequest) { r.Params = append(r.Params, 1) }},
		{"NaN param", false, func(r *EvalRequest) { r.Params = []float64{50_000, math.NaN(), 128} }},
		{"infinite param", false, func(r *EvalRequest) { r.Params = []float64{math.Inf(1), 0.9, 128} }},
	}
}

// TestProtocolGoldenRequest pins the v2 request wire format. Changing this
// encoding requires a ProtocolVersion bump: a silently reinterpreted field
// could break bit-identity between coordinator and worker. (Dropping an
// optional field both sides may ignore, as the key was, does not.)
func TestProtocolGoldenRequest(t *testing.T) {
	req := EvalRequest{
		Version:   2,
		Kind:      KindCandidate,
		Generator: "g",
		Params:    []float64{0.5, 3},
		Seed:      42,
		Profiler: ProfilerSpec{
			Machine: "broadwell",
			Spec:    profile.Spec{WindowCycles: 60000, Windows: 3, SkipCurves: true},
		},
		TraceID: "t1",
	}
	got, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"version":2,"kind":"candidate","generator":"g","params":[0.5,3],"seed":42,` +
		`"profiler":{"machine":"broadwell","window_cycles":60000,"windows":3,"warmup_windows":0,` +
		`"curve_windows":0,"curve_points":0,"max_requests_per_run":0,"skip_curves":true},` +
		`"trace_id":"t1"}`
	if string(got) != want {
		t.Fatalf("request encoding drifted:\n got %s\nwant %s", got, want)
	}
}

// TestProtocolGoldenHealth pins the v2 handshake wire format.
func TestProtocolGoldenHealth(t *testing.T) {
	h := WorkerHealth{Protocol: 2, Name: "w1", Capacity: 4, Version: "abc123"}
	got, err := json.Marshal(&h)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"protocol":2,"name":"w1","capacity":4,"version":"abc123"}`
	if string(got) != want {
		t.Fatalf("health encoding drifted:\n got %s\nwant %s", got, want)
	}
}

// TestProtocolGoldenResponse pins the v2 /v1/evaluate envelope: the
// deterministic EvalResult fields plus the spans/time_ns sidecars — and,
// crucially, that EvalResult's routing and span fields (json:"-") never
// leak into the wire form.
func TestProtocolGoldenResponse(t *testing.T) {
	resp := EvalResponse{
		EvalResult: EvalResult{
			Profile:    &profile.Profile{Benchmark: "b"},
			Worker:     "w1",
			DurationNS: 5,
			// Coordinator-side-only fields: must not appear in the JSON.
			WorkerID: 7, Retries: 1, Remote: true,
			Spans: []WireSpan{{Phase: "leaked-span"}},
		},
		Spans: []WireSpan{{Phase: "profile.sim", DurNS: 10, TimeNS: 20,
			Attrs: map[string]float64{"worker": 0}}},
		TimeNS: 30,
	}
	got, err := json.Marshal(&resp)
	if err != nil {
		t.Fatal(err)
	}
	s := string(got)
	for _, leak := range []string{"leaked-span", "worker_id", "retries", "fallback"} {
		if strings.Contains(s, leak) {
			t.Fatalf("envelope leaked %q: %s", leak, s)
		}
	}
	profJSON, err := json.Marshal(resp.Profile)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"profile":` + string(profJSON) + `,"worker":"w1",` +
		`"duration_ns":5,"spans":[{"phase":"profile.sim","dur_ns":10,"time_ns":20,` +
		`"attrs":{"worker":0}}],"time_ns":30}`
	if s != want {
		t.Fatalf("envelope encoding drifted:\n got %s\nwant %s", s, want)
	}
}

// TestLRUEvictionAccounting covers the cache's counters.
func TestLRUEvictionAccounting(t *testing.T) {
	c := NewLRU(2)
	p := &profile.Profile{Benchmark: "x"}
	c.Put("a", p)
	c.Put("b", p)
	c.Get("a") // a is MRU
	c.Put("c", p)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSearchEvaluatorBuildsKeyedRequests: with telemetry on, the adapter
// names every request by the same core.EvalKey the search cache uses, as its
// trace ID; with telemetry off the request carries no key at all.
func TestSearchEvaluatorBuildsKeyedRequests(t *testing.T) {
	pr := testProfiler()
	var got EvalRequest
	fb := &funcBackend{name: "fake", eval: func(ctx context.Context, req EvalRequest) (EvalResult, error) {
		got = req
		return EvalResult{Profile: &profile.Profile{Benchmark: "fake"}}, nil
	}}
	ev := NewSearchEvaluator(fb, "kv-backend-test", pr)
	x := []float64{50_000, 0.9, 128}
	p, err := ev.Evaluate(context.Background(), x, 7)
	if err != nil || p.Benchmark != "fake" {
		t.Fatalf("evaluate = (%v, %v)", p, err)
	}
	if got.Kind != KindCandidate || got.Generator != "kv-backend-test" || got.Seed != 7 {
		t.Fatalf("request = %+v", got)
	}
	if got.TraceID != "" {
		t.Fatalf("untraced request carries trace ID %q", got.TraceID)
	}
	ev.Telemetry = telemetry.New(telemetry.Options{})
	if _, err := ev.Evaluate(context.Background(), x, 7); err != nil {
		t.Fatal(err)
	}
	if want := core.EvalKey("kv-backend-test", pr, x, 7); got.TraceID != want || want == "" {
		t.Fatalf("trace ID = %q, want %q", got.TraceID, want)
	}
}
