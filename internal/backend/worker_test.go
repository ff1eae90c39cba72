package backend

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"datamime/internal/apps/kvstore"
	"datamime/internal/datagen"
	"datamime/internal/opt"
	"datamime/internal/stats"
	"datamime/internal/trace"
	"datamime/internal/workload"
)

func newTestWorker(t *testing.T, cfg WorkerConfig) (*Worker, *RemoteBackend, *httptest.Server) {
	t.Helper()
	if cfg.Name == "" {
		cfg.Name = "test-worker"
	}
	if cfg.Generators == nil {
		cfg.Generators = []datagen.Generator{testGenerator()}
	}
	w := NewWorker(cfg)
	ts := httptest.NewServer(w.Handler())
	t.Cleanup(ts.Close)
	return w, NewRemoteBackend(ts.URL, cfg.Name), ts
}

// TestWorkerEvaluateOverWire: a real HTTP round trip returns the profile
// the local profiler measures, byte for byte, and a repeated request is
// simulated again, to the same bytes: the worker keeps no cache.
func TestWorkerEvaluateOverWire(t *testing.T) {
	w, rb, _ := newTestWorker(t, WorkerConfig{})
	pr := testProfiler()
	req := testRequest(pr)

	res, err := rb.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Worker != "test-worker" {
		t.Fatalf("first eval served by %q", res.Worker)
	}
	direct, err := pr.Profile(testGenerator().Benchmark(req.Params), req.Seed)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(direct)
	gotJSON, _ := json.Marshal(res.Profile)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("wire profile differs from direct measurement")
	}

	res2, err := rb.Evaluate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if n := w.evals.Load(); n != 2 || res2.DurationNS == 0 {
		t.Fatalf("repeat eval: %d evaluations served, duration %d ns; want 2 simulated", n, res2.DurationNS)
	}
	got2, _ := json.Marshal(res2.Profile)
	if string(got2) != string(wantJSON) {
		t.Fatal("repeated profile differs from the first")
	}
}

// TestWorkerIgnoresParentKey: an older coordinator still sends each
// evaluation's content address as "key". The worker decodes leniently, so
// the field is ignored: the request is served, with the profile the same
// request has without it.
func TestWorkerIgnoresParentKey(t *testing.T) {
	_, _, ts := newTestWorker(t, WorkerConfig{})
	body, err := json.Marshal(testRequest(testProfiler()))
	if err != nil {
		t.Fatal(err)
	}
	keyed := append(bytes.TrimSuffix(body, []byte("}")), []byte(`,"key":"0123456789abcdef0123456789abcdef"}`)...)
	profiles := make([]string, 2)
	for i, b := range [][]byte{body, keyed} {
		resp, err := http.Post(ts.URL+PathEvaluate, "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		var wire EvalResponse
		err = json.NewDecoder(resp.Body).Decode(&wire)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || wire.Profile == nil {
			t.Fatalf("request %s: HTTP %d, decode err %v", b, resp.StatusCode, err)
		}
		p, _ := json.Marshal(wire.Profile)
		profiles[i] = string(p)
	}
	if profiles[0] != profiles[1] {
		t.Fatal("a request carrying a key was served a different profile")
	}
}

// blockingGenerator returns a generator whose Benchmark construction blocks
// until release closes — it runs inside Worker evaluation while holding the
// admission slot, which is exactly what the shed test needs.
func blockingGenerator(started chan<- struct{}, release <-chan struct{}) datagen.Generator {
	space := opt.MustSpace(opt.Param{Name: "qps", Lo: 1_000, Hi: 100_000})
	return datagen.Generator{
		Name:  "kv-blocking",
		Space: space,
		Benchmark: func(x []float64) workload.Benchmark {
			started <- struct{}{}
			<-release
			cfg := kvstore.Config{
				NumKeys:   1_000,
				KeySize:   stats.Normal{Mu: 16, Sigma: 2, Min: 4},
				ValueSize: stats.Normal{Mu: 64, Sigma: 8, Min: 1},
				GetRatio:  0.9,
			}
			return workload.Benchmark{
				Name: "kv-blocking",
				QPS:  x[0],
				NewServer: func(layout *trace.CodeLayout, seed uint64) workload.Server {
					return kvstore.New(cfg, layout, seed)
				},
			}
		},
	}
}

// TestWorkerShedsAtCapacity: with Capacity 1, and so a backlog of 1, the
// third concurrent evaluation is shed with 503, which the RemoteBackend reports
// as ErrBusy so the dispatcher re-routes without counting a failure.
func TestWorkerShedsAtCapacity(t *testing.T) {
	started := make(chan struct{}, 4)
	release := make(chan struct{})
	w, rb, _ := newTestWorker(t, WorkerConfig{
		Capacity:   1,
		Generators: []datagen.Generator{blockingGenerator(started, release)},
	})

	req := EvalRequest{
		Version:   ProtocolVersion,
		Kind:      KindCandidate,
		Generator: "kv-blocking",
		Params:    []float64{10_000},
		Seed:      1,
		Profiler:  SpecOf(testProfiler()),
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := rb.Evaluate(context.Background(), req); err != nil {
				t.Error(err)
			}
		}()
	}
	<-started // the first evaluation is running (and holding the slot)
	waitUntil(t, "one queued request", func() bool { return w.queued.Load() == 2 })

	_, err := rb.Evaluate(context.Background(), req)
	if !errors.Is(err, ErrBusy) {
		t.Fatalf("err = %v, want ErrBusy", err)
	}

	close(release)
	wg.Wait()
	if got := w.evals.Load(); got != 2 {
		t.Fatalf("evals = %d, want 2", got)
	}
}

// TestWorkerHealthHandshake: /v1/healthz reports identity and protocol, and
// RemoteBackend.Health refreshes the advertised capacity from it.
func TestWorkerHealthHandshake(t *testing.T) {
	_, rb, _ := newTestWorker(t, WorkerConfig{Name: "hs", Capacity: 3})
	if err := rb.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if rb.Capacity() != 3 {
		t.Fatalf("capacity after handshake = %d, want 3", rb.Capacity())
	}
}

// TestRemoteBackendRejectsProtocolMismatch: a worker speaking another
// protocol version fails the handshake instead of risking silently
// reinterpreted requests.
func TestRemoteBackendRejectsProtocolMismatch(t *testing.T) {
	// A version-2 worker profiles as a multi-run sweep.
	for _, v := range []int{ProtocolVersion + 1, 2} {
		ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			writeWire(rw, http.StatusOK, WorkerHealth{Protocol: v, Name: "other"})
		}))
		rb := NewRemoteBackend(ts.URL, "other")
		err := rb.Health(context.Background())
		ts.Close()
		if err == nil || !strings.Contains(err.Error(), "protocol") {
			t.Fatalf("protocol %d: err = %v, want protocol mismatch", v, err)
		}
	}
}

// TestWorkerRejectsBadRequests: version mismatches and malformed bodies get
// HTTP 400 with a wire error, never an evaluation.
func TestWorkerRejectsBadRequests(t *testing.T) {
	_, _, ts := newTestWorker(t, WorkerConfig{})
	bad := testRequest(testProfiler())
	bad.Version = ProtocolVersion + 1
	body, _ := json.Marshal(&bad)
	resp, err := http.Post(ts.URL+PathEvaluate, "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	var we wireError
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Error == "" {
		t.Fatalf("wire error = %+v (%v)", we, err)
	}

	resp2, err := http.Post(ts.URL+PathEvaluate, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", resp2.StatusCode)
	}
}

// TestWorkerRefusesUnresolvableRequests: a request the worker cannot resolve
// is answered 400 before admission — never a 500, never a handler panic (a
// short params vector used to index past its end inside the generator) — and
// reaches the coordinator as ErrRequest. No slot is taken and nothing is
// counted as a failed evaluation: the request is at fault, not the worker.
func TestWorkerRefusesUnresolvableRequests(t *testing.T) {
	w, rb, ts := newTestWorker(t, WorkerConfig{})
	for _, tc := range unresolvableRequests() {
		req := testRequest(testProfiler())
		tc.mutate(&req)
		if _, err := rb.Evaluate(context.Background(), req); !errors.Is(err, ErrRequest) {
			t.Errorf("%s: RemoteBackend err = %v, want ErrRequest", tc.name, err)
		}
		if !tc.wire {
			continue
		}
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+PathEvaluate, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		msg := readWireError(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || msg == "" {
			t.Errorf("%s: HTTP %d %q, want 400 with a wire error", tc.name, resp.StatusCode, msg)
		}
	}
	if q, n := w.queued.Load(), w.evals.Load(); q != 0 || n != 0 {
		t.Fatalf("a refused request took a slot (%d) or was served (%d)", q, n)
	}
	if n := w.evalErrors.Load(); n != 0 {
		t.Fatalf("evaluation_errors_total = %d: a request's fault was booked as the worker's", n)
	}
}

// FuzzEvalRequest feeds arbitrary bytes through the worker's decode into
// resolve. It must never panic, refuse only with ErrRequest, and accept only
// what can be measured — without building a benchmark to find out (generation
// belongs inside the admission slot resolve runs ahead of).
func FuzzEvalRequest(f *testing.F) {
	seeds := []EvalRequest{testRequest(testProfiler())}
	target := testRequest(testProfiler())
	target.Kind, target.Generator, target.Params, target.Workload = KindTarget, "", nil, "mem-fb"
	seeds = append(seeds, target)
	for _, tc := range unresolvableRequests() {
		if tc.wire {
			req := testRequest(testProfiler())
			tc.mutate(&req)
			seeds = append(seeds, req)
		}
	}
	for _, req := range seeds {
		data, err := json.Marshal(&req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	gen := testGenerator()
	gen.Benchmark = func([]float64) workload.Benchmark { panic("resolve built a benchmark") }
	l := NewLocalBackend(gen)

	f.Fuzz(func(t *testing.T, data []byte) {
		var req EvalRequest
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		pr, build, err := l.resolve(req)
		if err != nil {
			if !errors.Is(err, ErrRequest) {
				t.Fatalf("resolve refused with %v, which is not an ErrRequest", err)
			}
			return
		}
		if build == nil {
			t.Fatal("resolve accepted a request without a benchmark builder")
		}
		if err := pr.Validate(); err != nil {
			t.Fatalf("resolve accepted a profiler that does not validate: %v", err)
		}
	})
}

// FuzzEvalResponse serves arbitrary bytes as a worker's 200 /v1/evaluate
// body to RemoteBackend.Evaluate. It must never panic, accept a response
// only with a profile, and hand back the shipped spans in the order the
// body lists them, moved by one shift. The committed seeds (testdata/fuzz/FuzzEvalResponse) are
// a Worker's answers to testRequest with and without trace context, one
// without a profile, and one truncated; the one added here is an older
// worker's, which also wrote spans_truncated and cache_tier.
func FuzzEvalResponse(f *testing.F) {
	oldWorker := []byte(`{"profile":{"benchmark":"b"},"worker":"w1","cache_tier":"shared",` +
		`"spans":[{"phase":"cache.probe","dur_ns":1,"time_ns":2},{"phase":"profile.sim","dur_ns":1,"time_ns":1}],` +
		`"time_ns":3,"spans_truncated":7}`)
	f.Add(oldWorker)

	var body atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
		_, _ = rw.Write(body.Load().([]byte))
	}))
	f.Cleanup(srv.Close)
	rb := NewRemoteBackend(srv.URL, "fuzzed")
	req := testRequest(testProfiler())
	body.Store(oldWorker)
	if _, err := rb.Evaluate(context.Background(), req); err != nil {
		f.Fatalf("an old worker's envelope no longer decodes: %v", err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		body.Store(data)
		res, err := rb.Evaluate(context.Background(), req)
		if err != nil {
			return
		}
		if res.Profile == nil {
			t.Fatal("accepted a response without a profile")
		}
		var wire EvalResponse
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&wire); err != nil {
			t.Fatalf("accepted a body that does not decode: %v", err)
		}
		// The spans come back in the body's order, each moved by one shift
		// (none without the envelope's stamp); unstamped ones stay 0.
		if len(res.Spans) != len(wire.Spans) {
			t.Fatalf("shipped %d spans came back as %d", len(wire.Spans), len(res.Spans))
		}
		var shift int64
		shifted := false
		for i, got := range res.Spans {
			want := wire.Spans[i]
			if want.TimeNS != 0 {
				if !shifted {
					shift, shifted = want.TimeNS-got.TimeNS, true
				}
				want.TimeNS -= shift
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("span %d came back as %+v, the body lists %+v shifted by %d", i, got, wire.Spans[i], shift)
			}
		}
		if wire.TimeNS == 0 && shift != 0 {
			t.Fatalf("spans moved by %d without an envelope stamp", shift)
		}
	})
}

// TestRemoteBackendBoundsResponses: the coordinator reads at most
// maxResponseBytes of a worker's answer to /v1/evaluate or /v1/healthz. A
// body of exactly the bound decodes; one byte more is an error that is
// neither ErrRequest nor ErrBusy, so a dispatcher books it against the worker
// and serves the evaluation elsewhere.
func TestRemoteBackendBoundsResponses(t *testing.T) {
	var body atomic.Value
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		_, _ = rw.Write(body.Load().([]byte))
	}))
	defer srv.Close()
	rb := NewRemoteBackend(srv.URL, "padded")
	ctx := context.Background()
	req := testRequest(testProfiler())
	// sized is a valid JSON body of exactly n bytes, padded inside a string.
	sized := func(prefix string, n int) []byte {
		return []byte(prefix + strings.Repeat("x", n-len(prefix)-2) + `"}`)
	}
	evalBody := `{"profile":{"benchmark":"b"},"worker":"`
	for _, c := range []struct {
		name, prefix string
		call         func() error
	}{
		{"evaluate", evalBody, func() error { _, err := rb.Evaluate(ctx, req); return err }},
		{"health", fmt.Sprintf(`{"protocol":%d,"name":"`, ProtocolVersion), func() error { return rb.Health(ctx) }},
	} {
		body.Store(sized(c.prefix, maxResponseBytes))
		if err := c.call(); err != nil {
			t.Errorf("%s: a %d-byte body, just under the bound: %v", c.name, maxResponseBytes, err)
		}
		body.Store(sized(c.prefix, maxResponseBytes+1))
		if err := c.call(); err == nil || errors.Is(err, ErrRequest) || errors.Is(err, ErrBusy) {
			t.Errorf("%s: a %d-byte body, just over the bound: err = %v, want a worker failure",
				c.name, maxResponseBytes+1, err)
		}
	}

	body.Store(sized(evalBody, maxResponseBytes+1))
	d := newTestDispatcher(okBackend("local"))
	d.Register(rb)
	res, err := d.Evaluate(ctx, req)
	if err != nil || res.Remote || res.Retries != 1 {
		t.Fatalf("dispatch = (remote %v, retries %d, %v), want one failed attempt then local", res.Remote, res.Retries, err)
	}
	if w := d.Workers()[0]; w.Healthy || w.Failures != 1 {
		t.Fatalf("worker after an over-bound answer = %+v, want one failure booked", w)
	}
}

// TestWorkerMetrics: /metrics exposes the worker metric families with
// accounting that matches the served traffic, and no cache family: the
// worker has no cache.
func TestWorkerMetrics(t *testing.T) {
	_, rb, ts := newTestWorker(t, WorkerConfig{})
	req := testRequest(testProfiler())
	if _, err := rb.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.Evaluate(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"datamime_worker_capacity 1",
		"datamime_worker_evaluations_total 2",
		"datamime_worker_busy_rejects_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if strings.Contains(text, "datamime_worker_cache") {
		t.Errorf("metrics publish a worker cache family:\n%s", text)
	}
}

// TestWorkerRejectsOversizeRequest: /v1/evaluate stops reading a body at
// maxEvalRequestBytes and answers 413 without taking an evaluation slot.
func TestWorkerRejectsOversizeRequest(t *testing.T) {
	w, _, ts := newTestWorker(t, WorkerConfig{})
	body := `{"version":2,"kind":"candidate","generator":"` + strings.Repeat("x", maxEvalRequestBytes) + `"}`
	resp, err := ts.Client().Post(ts.URL+"/v1/evaluate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize evaluate = %d, want 413", resp.StatusCode)
	}
	if q, n := w.queued.Load(), w.evals.Load(); q != 0 || n != 0 {
		t.Fatalf("oversize request reached the evaluator: %d admitted, %d served", q, n)
	}
}
