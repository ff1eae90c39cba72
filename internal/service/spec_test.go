package service

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"datamime/internal/backend"
	"datamime/internal/core"
	"datamime/internal/profile"
	"datamime/internal/sim"
)

// TestSpecFieldsAreCovered makes profile.Spec's single listing load-bearing:
// every field, set through reflection to a value no default uses, must
// change Spec.Key (and so core.EvalKey), survive the wire form
// (backend.ProfilerSpec) and have a same-named, same-typed, same-tagged
// override in ProfilingSpec that resolve applies. A knob added to Spec
// alone fails here until the key and the override know it — forgetting the
// key is a stale cache hit, a wrong profile served as a right one.
func TestSpecFieldsAreCovered(t *testing.T) {
	svc := &Server{local: backend.NewLocalBackend()} // all resolve reads of a server
	base := profile.New(sim.Broadwell())
	x := []float64{0.5, 3}
	specType := reflect.TypeOf(profile.Spec{})
	overrideType := reflect.TypeOf(ProfilingSpec{})

	for i := 0; i < specType.NumField(); i++ {
		field := specType.Field(i)
		pr := *base
		set := func(v reflect.Value) {
			switch v.Kind() {
			case reflect.Float64:
				v.SetFloat(123456)
			case reflect.Int:
				v.SetInt(7)
			case reflect.Bool:
				v.SetBool(true)
			default:
				t.Fatalf("Spec.%s is a %s: teach this test (and Key) the new kind", field.Name, v.Kind())
			}
		}
		set(reflect.ValueOf(&pr.Spec).Elem().Field(i))

		if pr.Spec.Key() == base.Spec.Key() {
			t.Errorf("Spec.%s does not enter Spec.Key()", field.Name)
		}
		if core.EvalKey("g", &pr, x, 42) == core.EvalKey("g", base, x, 42) {
			t.Errorf("Spec.%s does not enter core.EvalKey", field.Name)
		}

		wire, err := json.Marshal(backend.SpecOf(&pr))
		if err != nil {
			t.Fatal(err)
		}
		var back backend.ProfilerSpec
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatal(err)
		}
		if back.Spec != pr.Spec {
			t.Errorf("Spec.%s lost on the wire: %s -> %+v", field.Name, wire, back.Spec)
		}

		of, ok := overrideType.FieldByName(field.Name)
		if !ok || of.Type != field.Type {
			t.Errorf("ProfilingSpec has no %s %s to override Spec.%s", field.Name, field.Type, field.Name)
			continue
		}
		if got, want := of.Tag.Get("json"), field.Tag.Get("json")+",omitempty"; got != want {
			t.Errorf("ProfilingSpec.%s is tagged %q, want %q", field.Name, got, want)
		}
		var override ProfilingSpec
		set(reflect.ValueOf(&override).Elem().FieldByName(field.Name))
		plan, err := svc.resolve(JobSpec{Workload: "mem-fb", Iterations: 1, Profiling: &override})
		if err != nil {
			t.Fatal(err)
		}
		if applied := plan.profiler; applied.Spec != pr.Spec {
			t.Errorf("resolve does not apply ProfilingSpec.%s: got %+v, want %+v", field.Name, applied.Spec, pr.Spec)
		}
	}

	// The other direction: the override lists nothing Spec does not.
	for i := 0; i < overrideType.NumField(); i++ {
		name := overrideType.Field(i).Name
		if _, ok := specType.FieldByName(name); !ok {
			t.Errorf("ProfilingSpec.%s overrides nothing in profile.Spec", name)
		}
	}
}

// TestPersistedKeysPinned pins bytes that outlive a process — evaluation
// cache keys and corpus scenario hashes. A change here re-keys every cache
// and corpus. The keys a multi-run sweep wrote, before profiles were one
// pass (profile.Method), must not be the keys of one-pass profiles: a cache
// entry or corpus record from then must never hit or compare as one
// measured now. (A job log from then cannot resume:
// TestResumeRefusesAnotherProfileMethod.)
func TestPersistedKeysPinned(t *testing.T) {
	pr := profile.New(sim.Broadwell())
	pr.MaxRequestsPerRun = 17
	const sweepKey, sweepScenario = "7c15f487934df67d7df817d61f5df817", "81e52cf7b1e7fcdc"
	key := core.EvalKey("g", pr, []float64{0.5, 3}, 42)
	if key == sweepKey {
		t.Error("a one-pass profile keys like a multi-run sweep's")
	}
	if want := "de2c2600bf3284c2c61143e9fefd49de"; key != want {
		t.Errorf("EvalKey = %s, want %s", key, want)
	}
	if got, want := pr.Spec.Key(), "method=one-pass|wc=400000|w=36|warm=5|cw=6|cp=0|max=17|skip=false"; got != want {
		t.Errorf("Spec.Key() = %s, want %s", got, want)
	}
	if scenarioHash(JobSpec{Workload: "mem-fb", Iterations: 8}) == sweepScenario {
		t.Error("a one-pass run's corpus scenario is a multi-run sweep's")
	}

	withBudgets := JobSpec{Workload: "mem-fb", Iterations: 8, Seed: 3, Profiling: &ProfilingSpec{
		WindowCycles: 60000, Windows: 4, WarmupWindows: 1, SkipCurves: true,
	}}
	if got, want := scenarioHash(withBudgets), "957e1e91a36614e3"; got != want {
		t.Errorf("scenarioHash(with budgets) = %s, want %s", got, want)
	}
	if got, want := scenarioHash(JobSpec{Workload: "mem-fb", Iterations: 8}), "ac318c0b17ae78b7"; got != want {
		t.Errorf("scenarioHash(defaults) = %s, want %s", got, want)
	}
	// An explicit default budget, hashed as submitted, splits a scenario.
	explicit := JobSpec{Workload: "mem-fb", Iterations: 8, Profiling: &ProfilingSpec{Windows: 36}}
	if got := scenarioHash(explicit); got == "ac318c0b17ae78b7" {
		t.Error("an explicit default budget hashed like an omitted one; scenarioHash's comment says otherwise")
	}
}

// TestProfilingOverridesRoundTrip pins the job API's persisted form: a spec
// with profiling overrides marshals — for GET /v1/jobs/{id} and the checkpoint
// file alike — to the bytes it did before ProfilingSpec was tied to
// profile.Spec, zero overrides omitted, and decodes back to itself.
func TestProfilingOverridesRoundTrip(t *testing.T) {
	spec := JobSpec{Generator: "memcached", Iterations: 5, Metric: "ipc", MetricValue: 1.5,
		Profiling: &ProfilingSpec{WindowCycles: 60000, Windows: 4, CurvePoints: 3, SkipCurves: true}}
	got, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const wantProfiling = `"profiling":{"window_cycles":60000,"windows":4,"curve_points":3,"skip_curves":true}`
	if !strings.Contains(string(got), wantProfiling) {
		t.Fatalf("job spec JSON = %s\nwant it to contain %s", got, wantProfiling)
	}
	var back JobSpec
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, spec) {
		t.Fatalf("round trip: got %+v, want %+v", back, spec)
	}
}
