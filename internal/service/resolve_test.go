package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"testing"

	"datamime/internal/backend"
	"datamime/internal/core"
	"datamime/internal/datagen"
	"datamime/internal/inspect"
	"datamime/internal/workload"
)

// refusedSpec mutates testSpec into a spec that names something this server
// cannot resolve; offender is the value the 400 must quote.
// TestSubmitRefusesWhatCannotRun submits each; FuzzJobSpec starts from them.
type refusedSpec struct {
	name, offender string
	mutate         func(*JobSpec)
}

func refusedSpecs() []refusedSpec {
	return []refusedSpec{
		{"workload", "mem-fbb", func(s *JobSpec) { s.Metric, s.Workload = "", "mem-fbb" }},
		{"generator", "memcachd", func(s *JobSpec) { s.Generator = "memcachd" }},
		{"machine", "pentium", func(s *JobSpec) { s.Machine = "pentium" }},
		// Scored against a metric nobody measures, this job used to run its
		// whole budget at a constant error of 1 and succeed.
		{"metric", "cpu_utl", func(s *JobSpec) { s.Metric = "cpu_utl" }},
		{"target_profile", "target_profile", func(s *JobSpec) {
			s.Metric, s.TargetProfile = "", json.RawMessage(`"not a profile"`)
		}},
		{"optimizer", "gradient", func(s *JobSpec) { s.Optimizer = "gradient" }},
		{"on_eval_error", "explode", func(s *JobSpec) { s.OnEvalError = "explode" }},
		{"backend", "cloud", func(s *JobSpec) { s.Backend = "cloud" }},
	}
}

// TestSubmitRefusesWhatCannotRun: a spec naming something that does not exist
// is a 400 that quotes the offending value, before a job exists — nothing is
// listed, checkpointed or indexed — while the spec it was mutated from is
// accepted.
func TestSubmitRefusesWhatCannotRun(t *testing.T) {
	ckpt := t.TempDir()
	svc := newCorpusServer(t, ckpt)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	for _, tc := range refusedSpecs() {
		spec := testSpec(3, 1)
		tc.mutate(&spec)
		var body map[string]string
		if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &body); code != http.StatusBadRequest {
			t.Errorf("%s: submit = %d %v, want 400", tc.name, code, body)
		}
		if !strings.Contains(body["error"], tc.offender) {
			t.Errorf("%s: error %q does not name %q", tc.name, body["error"], tc.offender)
		}
	}
	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	httpJSON(t, ts, "GET", "/v1/jobs", nil, &list)
	files, err := os.ReadDir(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 0 || len(files) != 0 || len(corpusRecords(svc)) != 0 {
		t.Fatalf("refused specs left %d jobs, %d checkpoint files, %d corpus records",
			len(list.Jobs), len(files), len(corpusRecords(svc)))
	}
	if code := httpJSON(t, ts, "POST", "/v1/jobs", testSpec(3, 1), nil); code != http.StatusAccepted {
		t.Fatalf("the unmutated spec = %d, want 202", code)
	}
}

// TestSubmitCapacityIs503: a full queue and a closed server are the server's
// condition, not the client's error — 503, as a worker's shed.
func TestSubmitCapacityIs503(t *testing.T) {
	started, release := make(chan struct{}, 1), make(chan struct{})
	blocking := testGenerator()
	blocking.Name = "kv-blocking"
	build := blocking.Benchmark
	blocking.Benchmark = func(x []float64) workload.Benchmark {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return build(x)
	}
	svc, err := New(Config{Workers: 1, QueueDepth: 1, Generators: []datagen.Generator{blocking}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	spec := testSpec(1, 1)
	spec.Generator, spec.Parallel = "kv-blocking", 1

	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, nil); code != http.StatusAccepted {
		t.Fatalf("first submit = %d", code)
	}
	<-started // the only worker is inside job 1; the queue is empty again
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, nil); code != http.StatusAccepted {
		t.Fatalf("second submit = %d, want it queued", code)
	}
	var body map[string]string
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &body); code != http.StatusServiceUnavailable ||
		!strings.Contains(body["error"], "queue is full") {
		t.Fatalf("submit to a full queue = %d %v, want 503", code, body)
	}
	close(release)
	svc.Close()
	if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &body); code != http.StatusServiceUnavailable ||
		!strings.Contains(body["error"], "shut down") {
		t.Fatalf("submit to a closed server = %d %v, want 503", code, body)
	}
}

// TestUnresolvableRequestLeavesFleetHealthy: a job naming a generator only the
// coordinator has registered. Every worker refuses every candidate (400), and
// that is the request's fault, not theirs: the dispatcher hands each
// evaluation to its local backend without a retry, and the fleet ends the job
// as healthy as it began. Booked as worker failures, one such job used to mark
// the whole fleet unhealthy.
func TestUnresolvableRequestLeavesFleetHealthy(t *testing.T) {
	var urls []string
	for _, name := range []string{"bare-a", "bare-b"} {
		w := backend.NewWorker(backend.WorkerConfig{Name: name})
		ts := httptest.NewServer(w.Handler())
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	svc := newFleetServer(t, urls)
	spec := testSpec(6, 5)
	spec.Backend = "remote"
	st, _ := runToCompletion(t, svc, spec)

	if st.Evaluations != 6 {
		t.Fatalf("evaluations = %d, want 6", st.Evaluations)
	}
	c := svc.Dispatcher().Counters()
	if c.Retries != 0 || c.RemoteEvals != 0 || c.LocalEvals != c.Fallbacks || c.Fallbacks == 0 {
		t.Fatalf("dispatch counters = %+v, want every evaluation a local fallback, none retried", c)
	}
	workers := svc.Dispatcher().Workers()
	if len(workers) != 2 {
		t.Fatalf("fleet = %+v, want both workers still registered", workers)
	}
	for _, w := range workers {
		if !w.Healthy || w.Failures != 0 {
			t.Errorf("worker %s booked for the request's fault: healthy=%v failures=%d", w.Name, w.Healthy, w.Failures)
		}
	}
}

// TestJobSpecFieldsAreResolved makes JobSpec's listing load-bearing the way
// TestSpecFieldsAreCovered does profile.Spec's: every field, set through
// reflection, must either be a scenarioSpec field that moves the scenario hash
// (it changes what runs) or be on the short list of knobs that change how
// fast, never what (and must then leave the hash alone). A field added to the
// struct alone fails here until the scenario hash or the list knows it.
func TestJobSpecFieldsAreResolved(t *testing.T) {
	howFastNeverWhat := map[string]bool{"Backend": true}
	base := JobSpec{Workload: "mem-fb", Iterations: 8}
	scenario := reflect.TypeOf(scenarioSpec{})

	set := func(path string, v reflect.Value) {
		switch v.Interface().(type) {
		case string:
			v.SetString("x")
		case int:
			v.SetInt(7)
		case uint64:
			v.SetUint(7)
		case float64:
			v.SetFloat(7.5)
		case bool:
			v.SetBool(true)
		case json.RawMessage:
			v.SetBytes([]byte(`{"benchmark":"x"}`))
		default:
			t.Fatalf("JobSpec.%s is a %s: teach this test (and scenarioHash) the new kind", path, v.Type())
		}
	}
	check := func(path, name string, mutated JobSpec) {
		moved := scenarioHash(mutated) != scenarioHash(base)
		_, inScenario := scenario.FieldByName(name)
		switch {
		case howFastNeverWhat[path] && moved:
			t.Errorf("JobSpec.%s is listed as how-fast-never-what but moves the scenario hash", path)
		case !howFastNeverWhat[path] && !(inScenario && moved):
			t.Errorf("JobSpec.%s neither enters the scenario hash (scenarioSpec field: %v, hash moved: %v) nor is on the how-fast-never-what list",
				path, inScenario, moved)
		}
		delete(howFastNeverWhat, path)
	}

	specType := reflect.TypeOf(JobSpec{})
	for i := 0; i < specType.NumField(); i++ {
		name := specType.Field(i).Name
		if name != "Profiling" {
			mutated := base
			set(name, reflect.ValueOf(&mutated).Elem().Field(i))
			check(name, name, mutated)
			continue
		}
		budgets := reflect.TypeOf(ProfilingSpec{})
		for k := 0; k < budgets.NumField(); k++ {
			mutated, override := base, ProfilingSpec{}
			set("Profiling."+budgets.Field(k).Name, reflect.ValueOf(&override).Elem().Field(k))
			mutated.Profiling = &override
			check("Profiling."+budgets.Field(k).Name, budgets.Field(k).Name, mutated)
		}
	}
	for path := range howFastNeverWhat {
		t.Errorf("the how-fast-never-what list names %s, which JobSpec does not have", path)
	}
}

// TestPlanSurvivesRestart: the plan is a pure function of the spec and the
// registries, so nothing of it is persisted — a server restarted on the
// checkpoint directory resolves the restored job to the same hidden-target
// key, generator and best-point evaluation key the live run used, and with
// those two cache entries present serves both profiles again.
func TestPlanSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	svc := newTestServer(t, dir)
	spec := JobSpec{Workload: "mem-fb", Iterations: 3, Seed: 11, Optimizer: "random",
		Profiling: &ProfilingSpec{WindowCycles: 60_000, Windows: 4, WarmupWindows: 1, SkipCurves: true}}
	live, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-live.Done()
	if st := live.status(); st.State != JobSucceeded {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	bestKey := func(j *Job) string {
		best, ok := j.run.Best()
		if !ok {
			t.Fatal("the job has no best evaluation")
		}
		p := j.plan
		return core.EvalKey(p.generator.Name, p.profiler, best.Record.Params,
			core.IterationSeed(p.spec.Seed, best.Record.Iteration, best.Retried))
	}
	liveBest := bestKey(live)
	target, okT := svc.Cache().Get(live.plan.targetKey)
	best, okB := svc.Cache().Get(liveBest)
	if !okT || !okB {
		t.Fatalf("the live run did not cache under its plan's keys: target %v, best %v", okT, okB)
	}
	svc.Close()

	svc2 := newTestServer(t, dir)
	defer svc2.Close()
	restored, ok := svc2.Job(live.ID())
	if !ok || restored.plan == nil {
		t.Fatalf("job not restored with a plan (found %v)", ok)
	}
	if restored.plan.targetKey != live.plan.targetKey ||
		restored.plan.generator.Name != live.plan.generator.Name ||
		bestKey(restored) != liveBest {
		t.Fatalf("restored plan diverged: target key %s vs %s, generator %s vs %s, best key %s vs %s",
			restored.plan.targetKey, live.plan.targetKey,
			restored.plan.generator.Name, live.plan.generator.Name, bestKey(restored), liveBest)
	}

	// The shared cache is what a restart loses; put back what the live run
	// stored, under the keys the live run used.
	svc2.Cache().Put(live.plan.targetKey, target)
	svc2.Cache().Put(liveBest, best)
	ts := httptest.NewServer(svc2.Handler())
	defer ts.Close()
	var doc inspect.ProfilesDoc
	if code := httpJSON(t, ts, "GET", "/v1/jobs/"+live.ID()+"/profiles", nil, &doc); code != http.StatusOK {
		t.Fatalf("profiles = %d", code)
	}
	if doc.Target == nil || doc.Best == nil {
		t.Fatalf("restored job did not recover its profiles from the cache: target %v, best %v",
			doc.Target != nil, doc.Best != nil)
	}
}

// FuzzJobSpec feeds arbitrary bytes through the submit handler's decode into
// resolve. It must never panic, and whatever it accepts must be runnable and
// stable: a profiler that validates, a generator with a space, a scenario
// hash, and the same target key and hash when the accepted spec is marshaled
// (as a checkpoint does) and resolved again.
func FuzzJobSpec(f *testing.F) {
	// The literal seeds — ci/fleet_gate.sh's spec, README's three examples,
	// inline profiles, edge cases — are files under testdata/fuzz/FuzzJobSpec.
	seeds := []JobSpec{testSpec(5, 1)}
	for _, tc := range refusedSpecs() {
		spec := testSpec(3, 1)
		tc.mutate(&spec)
		seeds = append(seeds, spec)
	}
	for _, spec := range seeds {
		data, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	svc := &Server{local: backend.NewLocalBackend(testGenerator())}

	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(data))
		if err != nil {
			return
		}
		p, err := svc.resolve(spec)
		if err != nil {
			return
		}
		if err := p.profiler.Validate(); err != nil {
			t.Fatalf("resolved a profiler that does not validate: %v", err)
		}
		if p.generator.Space == nil || p.generator.Space.Dim() == 0 || p.generator.Benchmark == nil {
			t.Fatalf("resolved generator %q cannot be searched", p.generator.Name)
		}
		hash := scenarioHash(spec)
		if hash == "" {
			t.Fatal("accepted spec has no scenario hash")
		}
		persisted, err := json.Marshal(spec)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := decodeJobSpec(bytes.NewReader(persisted))
		if err != nil {
			t.Fatalf("persisted form %s does not decode: %v", persisted, err)
		}
		p2, err := svc.resolve(again)
		if err != nil {
			t.Fatalf("persisted form %s no longer resolves: %v", persisted, err)
		}
		if p2.targetKey != p.targetKey || scenarioHash(again) != hash {
			t.Fatalf("persisted form %s resolves differently: target key %q vs %q, scenario %s vs %s",
				persisted, p2.targetKey, p.targetKey, scenarioHash(again), hash)
		}
	})
}

// TestSubmitRefusesNegativeBudgets: a negative profiling budget is a 400
// naming the field. The override applies only positive values, so such a
// job used to run at the default budget while its log kept the negative
// one.
func TestSubmitRefusesNegativeBudgets(t *testing.T) {
	svc := newCorpusServer(t, "")
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	typ := reflect.TypeOf(ProfilingSpec{})
	for i := 0; i < typ.NumField(); i++ {
		field := typ.Field(i)
		name := strings.Split(field.Tag.Get("json"), ",")[0]
		spec := testSpec(3, 1)
		o := *spec.Profiling
		v := reflect.ValueOf(&o).Elem().Field(i)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(-3)
		case reflect.Float64:
			v.SetFloat(-3)
		default:
			continue
		}
		spec.Profiling = &o
		var body map[string]string
		if code := httpJSON(t, ts, "POST", "/v1/jobs", spec, &body); code != http.StatusBadRequest {
			t.Errorf("%s = -3: submit = %d %v, want 400", name, code, body)
		}
		if !strings.Contains(body["error"], name) {
			t.Errorf("%s = -3: error %q does not name the field", name, body["error"])
		}
	}
}
