package service

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"datamime/internal/corpus"
	"datamime/internal/datagen"
	"datamime/internal/inspect"
)

// TestJobFiguresAreItsRunReport: a job's status, result and corpus record are
// views of its one run. For a live job, a job restored from a cut log and
// resumed, and a job whose replay diverged from its log and rewound, every
// figure the three serve equals the report of the job's artifact parsed
// afresh. The telemetry-on GP search skips one iteration and retries another,
// so the run carries skips, retries, snapshots and spans.
func TestJobFiguresAreItsRunReport(t *testing.T) {
	const iterations, cut = 10, 6
	newServer := func(dir string, gen datagen.Generator) *Server {
		s, err := New(Config{Workers: 1, CheckpointDir: dir, Generators: []datagen.Generator{gen}, Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Serial, so Benchmark calls map onto iterations: calls 3 and 4 are
	// iteration 2 and its retry (skipped); call 6 is iteration 4's first
	// attempt, whose retry succeeds.
	spec := profileSpec(testTargetProfile(t), iterations, 17)
	spec.Generator = "kv-flaky"
	spec.Parallel = 1
	spec.OnEvalError = "retry-skip"
	spec.Optimizer = ""

	dir := t.TempDir()
	svc := newServer(dir, flakyGenerator(3, 4, 6))
	live, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-live.Done()
	checkJobFigures(t, svc, live, 0)
	svc.Close()
	data, err := os.ReadFile(filepath.Join(dir, live.ID()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	restoredLog := func() []byte {
		lines, iters := unfinishedLog(data)
		var out []byte
		for i, line := range lines {
			if iters[i] == cut {
				break
			}
			out = append(out, line...)
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		log     []byte
		rewinds int
	}{
		{"restored", restoredLog(), 0},
		{"rewound", divergedLog(t, data, cut), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, live.ID()+".jsonl"), tc.log, 0o644); err != nil {
				t.Fatal(err)
			}
			svc := newServer(dir, flakyGenerator())
			defer svc.Close()
			job, ok := svc.Job(live.ID())
			if !ok {
				t.Fatal("the job was not restored")
			}
			<-job.Done()
			if evaluated := svc.metrics.evalsTotal.Value(); evaluated != iterations-cut {
				t.Fatalf("the resumed job evaluated %g iterations, want the %d after its log", evaluated, iterations-cut)
			}
			checkJobFigures(t, svc, job, tc.rewinds)
		})
	}
}

// checkJobFigures requires a succeeded job's status, result and corpus
// record to equal the figures of the report of its artifact, parsed afresh,
// and the job to have rewound its log the given number of times.
func checkJobFigures(t *testing.T, svc *Server, job *Job, rewinds int) {
	t.Helper()
	run, err := inspect.NewRun(artifactEvents(job))
	if err != nil {
		t.Fatal(err)
	}
	r := inspect.NewReport(run, nil, "")
	c := r.Counts
	if c.Skipped != 1 || c.Retried == 0 || len(run.Diagnostics) == 0 || run.Spans == 0 {
		t.Fatalf("the job's run is not the scenario this test needs: %+v, %d snapshots, %d spans",
			c, len(run.Diagnostics), run.Spans)
	}
	if job.rewinds != rewinds || job.foldErr != nil {
		t.Fatalf("the job rewound %d times (fold error %v), want %d", job.rewinds, job.foldErr, rewinds)
	}

	st := job.status()
	if st.State != JobSucceeded {
		t.Fatalf("job %s: %s", st.State, st.Error)
	}
	var cycles float64
	for _, ev := range run.Evals {
		cycles += ev.SimCycles
	}
	if st.Iterations != len(run.Evals) || st.Evaluations != c.Evals || st.CacheHits != c.CacheHits ||
		st.CacheMisses != c.Misses || st.Skipped != c.Skipped || st.SimCycles != cycles || st.BestError != r.Best.Error {
		t.Errorf("status %+v\nreport counts %+v, best error %g, %g cycles", st, c, r.Best.Error, cycles)
	}
	want := JobResult{
		BestParams:  r.Best.Params,
		BestValues:  job.plan.generator.Space.Values(r.Best.Params),
		BestError:   r.Best.Error,
		Evaluations: c.Evals,
		CacheHits:   c.CacheHits,
		Skipped:     c.Skipped,
		Components:  r.Best.Components,
	}
	if !reflect.DeepEqual(*st.Result, want) {
		t.Errorf("result %+v\nthe report's %+v", *st.Result, want)
	}

	rec := findRecord(t, svc, job.ID())
	got := corpus.Record{BestError: rec.BestError, BestIter: rec.BestIter, Components: rec.Components,
		Evals: rec.Evals, CacheHits: rec.CacheHits, Skipped: rec.Skipped,
		TrajectoryHash: rec.TrajectoryHash, ModelHealth: rec.ModelHealth}
	wantRec := corpus.Record{BestError: r.Best.Error, BestIter: r.Best.Iteration, Components: r.Best.Components,
		Evals: c.Evals, CacheHits: c.CacheHits, Skipped: c.Skipped,
		TrajectoryHash: corpus.TrajectoryHash(r.Trace), ModelHealth: r.Health.ModelHealth()}
	if !reflect.DeepEqual(got, wantRec) {
		t.Errorf("corpus record %+v\nthe report's   %+v", got, wantRec)
	}
}
