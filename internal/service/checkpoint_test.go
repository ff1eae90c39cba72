package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"datamime/internal/backend"
	"datamime/internal/core"
	"datamime/internal/corpus"
	"datamime/internal/datagen"
	"datamime/internal/inspect"
	"datamime/internal/profile"
	"datamime/internal/telemetry"
)

// misfitLog is the log of a finished memcached job whose one eval holds a
// 2-element point: what a custom generator re-registered under the same name
// with another space, or an edited file, leaves on disk.
const misfitLog = `{"type":"job.spec","time_ns":1767225600000000000,"spec":{"generator":"memcached","iterations":1,` +
	`"seed":1,"optimizer":"random","metric":"cpu_util","metric_value":0.2}}` + "\n" +
	`{"type":"job.state","time_ns":1767225600100000000,"state":"running"}` + "\n" +
	`{"type":"eval","job":"job-1","params":[20000,0.5],"u":[0.5,0.5],"attrs":{"best_error":0.1,"error":0.1}}` + "\n" +
	`{"type":"job.state","time_ns":1767225601000000000,"state":"succeeded"}` + "\n"

// TestRestoredMisfitCheckpointFailsJob: a restored log that does not fit its
// generator fails that job instead of panicking the server. The server
// starts, and the job lists as failed with an error naming the generator and
// both dimensions; its profiles and artifact still answer.
func TestRestoredMisfitCheckpointFailsJob(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-1.jsonl"), []byte(misfitLog), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := New(Config{Workers: 1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	var list struct {
		Jobs []JobStatus `json:"jobs"`
	}
	httpJSON(t, ts, "GET", "/v1/jobs", nil, &list)
	if len(list.Jobs) != 1 {
		t.Fatalf("listing has %d jobs, want the restored one", len(list.Jobs))
	}
	gen, err := backend.NewLocalBackend().Generator("memcached")
	if err != nil {
		t.Fatal(err)
	}
	st := list.Jobs[0]
	for _, want := range []string{`"memcached"`, "2 dimensions", fmt.Sprintf("takes %d", gen.Space.Dim())} {
		if st.State != JobFailed || !strings.Contains(st.Error, want) {
			t.Fatalf("restored job is %s with error %q, want failed naming %s", st.State, st.Error, want)
		}
	}
	for _, route := range []string{"/profiles", "/artifact"} {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/job-1" + route)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", route, resp.StatusCode)
		}
	}
}

// TestResumeRefusesAnotherProfileMethod: a job log's header names the
// profile method its evaluations were measured by. An unfinished log whose
// header names none, as servers before one-pass profiles wrote it, or
// another method fails its job at restore: resuming would replay errors of
// the old method beside profiles of this one, under this method's scenario.
// The same log with this server's method resumes and succeeds.
func TestResumeRefusesAnotherProfileMethod(t *testing.T) {
	dir := t.TempDir()
	svc := newTestServer(t, dir)
	job, err := svc.Submit(testSpec(8, 31))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	svc.Close()
	data, err := os.ReadFile(filepath.Join(dir, job.ID()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines, iters := unfinishedLog(data)
	tag := []byte(`,"profile_method":"` + profile.Method + `"`)
	if !bytes.Contains(lines[0], tag) {
		t.Fatalf("the header does not record the profile method: %s", lines[0])
	}
	for _, tc := range []struct {
		name, method string
		resumes      bool
	}{
		{"current", string(tag), true},
		{"none", "", false},
		{"other", `,"profile_method":"multi-run"`, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := bytes.Replace(lines[0], tag, []byte(tc.method), 1)
			for i, line := range lines[1:] {
				if iters[i+1] == 4 {
					break
				}
				log = append(log, line...)
			}
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, job.ID()+".jsonl"), log, 0o644); err != nil {
				t.Fatal(err)
			}
			svc := newTestServer(t, dir)
			defer svc.Close()
			restored, ok := svc.Job(job.ID())
			if !ok {
				t.Fatal("the job was not restored")
			}
			<-restored.Done()
			st := restored.status()
			if tc.resumes {
				if st.State != JobSucceeded {
					t.Fatalf("resumed job %s: %s", st.State, st.Error)
				}
				return
			}
			if st.State != JobFailed || !strings.Contains(st.Error, "profile method") || !strings.Contains(st.Error, profile.Method) {
				t.Fatalf("restored job is %s with error %q, want failed naming the profile methods", st.State, st.Error)
			}
			if recs := corpusRecords(svc); len(recs) != 0 {
				t.Fatalf("a job that could not resume entered the corpus: %+v", recs)
			}
		})
	}
}

// TestUnreadableJobFileIsNotReissued: a job file the server cannot load — a
// checkpoint from before job logs, or a log without its header — keeps its
// job ID. The next submit takes the ID after every job-N.* file present, and
// neither file is overwritten.
func TestUnreadableJobFileIsNotReissued(t *testing.T) {
	dir := t.TempDir()
	files := map[string][]byte{
		"job-1.json":  []byte(`{"id":"job-1","spec":{"generator":`),
		"job-3.jsonl": []byte("not a job log\n"),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	svc := newTestServer(t, dir)
	defer svc.Close()
	if n := len(svc.Jobs()); n != 0 {
		t.Fatalf("restored %d jobs from files that do not load", n)
	}
	job, err := svc.Submit(testSpec(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	if job.ID() != "job-4" {
		t.Errorf("the next job is %s, want job-4", job.ID())
	}
	for name, data := range files {
		if got, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(got, data) {
			t.Errorf("%s was overwritten: %q (%v)", name, got, err)
		}
	}
}

// TestJobLogIsWrittenOnce: an uninterrupted job's log is its header, then
// exactly the events /artifact serves after its synthesized header,
// interleaved with the job's state lines and, before the terminal one, its
// corpus record line, in order — appended as they happened to the one file
// the job created.
func TestJobLogIsWrittenOnce(t *testing.T) {
	dir := t.TempDir()
	svc := newTelemetryServer(t, dir)
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	job, err := svc.Submit(bayesSpec(10, 3))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, job.ID()+".jsonl")
	created, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	finished, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(created, finished) {
		t.Fatal("the job's log was replaced during the run")
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events bytes.Buffer
	var jobLines []string
	for i, line := range bytes.SplitAfter(data, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var l jobLine
		if err := json.Unmarshal(line, &l); err != nil {
			t.Fatalf("log line %d: %v", i, err)
		}
		switch {
		case l.Type == typeJobSpec && i == 0, l.Type == typeJobState, l.Type == corpus.TypeRecord && l.Record != nil:
			jobLines = append(jobLines, l.Type+" "+string(l.State))
		default:
			events.Write(line)
		}
	}
	if want := []string{"job.spec ", "job.state running", "corpus.record ", "job.state succeeded"}; !reflect.DeepEqual(jobLines, want) {
		t.Errorf("job lines %q, want %q", jobLines, want)
	}
	_, artifact, _ := bytes.Cut(getBody(t, ts, "/v1/jobs/"+job.ID()+"/artifact"), []byte("\n"))
	if !bytes.Equal(events.Bytes(), artifact) {
		t.Fatalf("the log's events are not the artifact's:\nlog      %s\nartifact %s", events.Bytes(), artifact)
	}
	run, err := inspect.LoadRunFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Evals) != 10 || len(run.Diagnostics) == 0 || run.Spans == 0 || run.Malformed != 0 {
		t.Fatalf("the log read as an artifact has %d evals, %d snapshots, %d spans, %d malformed lines",
			len(run.Evals), len(run.Diagnostics), run.Spans, run.Malformed)
	}
}

// TestRestoredJobMatchesLiveSelf: a finished job restored from its log reads
// as it did live. The telemetry-on GP search skips one iteration (both
// attempts fail) and retries another, so its artifact carries a skip, a
// retry, search-health snapshots and spans; after a restart on the same
// directory its /artifact is byte-equal to the live one, and its status
// (counters, result, state, error, timestamps) equal too.
func TestRestoredJobMatchesLiveSelf(t *testing.T) {
	dir := t.TempDir()
	newServer := func(gen datagen.Generator) *Server {
		s, err := New(Config{Workers: 1, CheckpointDir: dir, Generators: []datagen.Generator{gen}, Telemetry: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// view reads a job the way a client does: its status and /artifact.
	view := func(svc *Server, id string) (JobStatus, []byte) {
		ts := httptest.NewServer(svc.Handler())
		defer ts.Close()
		var st JobStatus
		httpJSON(t, ts, "GET", "/v1/jobs/"+id, nil, &st)
		return st, getBody(t, ts, "/v1/jobs/"+id+"/artifact")
	}

	// Serial, so Benchmark calls map onto iterations: calls 3 and 4 are
	// iteration 2 and its retry (skipped); call 6 is iteration 4's first
	// attempt, whose retry succeeds.
	svc := newServer(flakyGenerator(3, 4, 6))
	spec := profileSpec(testTargetProfile(t), 10, 17)
	spec.Generator = "kv-flaky"
	spec.Parallel = 1
	spec.OnEvalError = "retry-skip"
	spec.Optimizer = "" // GP, so the run carries search-health snapshots
	job, err := svc.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	live, liveArtifact := view(svc, job.ID())
	svc.Close()
	run, err := inspect.LoadRun(bytes.NewReader(liveArtifact))
	if err != nil {
		t.Fatal(err)
	}
	// Retried counts the skipped iteration too: its retry ran, and failed.
	if c := run.Counts(); live.State != JobSucceeded || c.Skipped != 1 || c.Retried != 2 ||
		len(run.Diagnostics) == 0 || run.Spans == 0 {
		t.Fatalf("live job is not the scenario this test needs: %s, %+v, %d snapshots, %d spans",
			live.State, c, len(run.Diagnostics), run.Spans)
	}

	svc2 := newServer(flakyGenerator())
	defer svc2.Close()
	restored, artifact := view(svc2, job.ID())
	if !bytes.Equal(artifact, liveArtifact) {
		t.Errorf("the restored /artifact differs from the live one:\nrestored %s\nlive     %s", artifact, liveArtifact)
	}
	// Where the job ran (its backend) is not logged.
	live.Backend = ""
	if !reflect.DeepEqual(restored, live) {
		t.Errorf("restored status %+v\nlive status     %+v", restored, live)
	}
}

// unfinishedLog returns a job log's lines without its state lines, each with
// the eval iteration it carries (-1 for other lines).
func unfinishedLog(data []byte) (lines [][]byte, evalIter []int) {
	for _, line := range bytes.SplitAfter(data, []byte("\n")) {
		var l jobLine
		if len(line) == 0 || json.Unmarshal(line, &l) != nil || l.Type == typeJobState {
			continue
		}
		it := -1
		if l.Type == telemetry.TypeEval {
			it = l.Iter
		}
		lines, evalIter = append(lines, line), append(evalIter, it)
	}
	return lines, evalIter
}

// divergedLog is a finished job's log, unfinished, with iteration it's logged
// point altered in place, so a resume's replay diverges from the log there.
func divergedLog(t *testing.T, data []byte, it int) []byte {
	t.Helper()
	lines, iters := unfinishedLog(data)
	var out []byte
	for i, line := range lines {
		if iters[i] == it {
			var l jobLine
			if err := json.Unmarshal(line, &l); err != nil {
				t.Fatal(err)
			}
			l.U[0] = 1 - l.U[0]
			altered, err := json.Marshal(l)
			if err != nil {
				t.Fatal(err)
			}
			line = append(altered, '\n')
		}
		out = append(out, line...)
	}
	return out
}

// TestResumeFromTornOrDivergedLog: an unfinished job resumes exactly from
// whatever its log holds whole. Each case takes a finished job's log, drops
// its state lines and damages it: torn mid-line inside a later eval line, or
// with one logged point altered in place, so the replay diverges from the log
// there. After a restart the job succeeds with a run identical to the
// uninterrupted one, each iteration appears once in its /artifact, and its
// compacted log reads back without a malformed line.
func TestResumeFromTornOrDivergedLog(t *testing.T) {
	const iterations = 10
	dir := t.TempDir()
	svc := newTestServer(t, dir)
	job, err := svc.Submit(testSpec(iterations, 23))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	want, err := inspect.NewRun(artifactEvents(job))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	data, err := os.ReadFile(filepath.Join(dir, job.ID()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name   string
		damage func() []byte
	}{
		{"torn", func() []byte {
			lines, iters := unfinishedLog(data)
			var out []byte
			for i, line := range lines {
				if iters[i] == 7 {
					return append(out, line[:len(line)/2]...)
				}
				out = append(out, line...)
			}
			t.Fatal("the log has no eval of iteration 7")
			return nil
		}},
		{"diverged", func() []byte { return divergedLog(t, data, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, job.ID()+".jsonl")
			if err := os.WriteFile(path, tc.damage(), 0o644); err != nil {
				t.Fatal(err)
			}
			svc := newTestServer(t, dir)
			defer svc.Close()
			resumed, ok := svc.Job(job.ID())
			if !ok {
				t.Fatal("the job was not restored")
			}
			<-resumed.Done()
			if st := resumed.status(); st.State != JobSucceeded {
				t.Fatalf("resumed job %s: %s", st.State, st.Error)
			}
			ts := httptest.NewServer(svc.Handler())
			defer ts.Close()
			got, err := inspect.LoadRun(bytes.NewReader(getBody(t, ts, "/v1/jobs/"+job.ID()+"/artifact")))
			if err != nil {
				t.Fatal(err)
			}
			if d := inspect.DiffRuns(want, got, inspect.DiffOptions{}); !d.Identical() {
				t.Fatalf("the resumed run differs from the uninterrupted one: %v", d.Differences)
			}
			seen := make(map[int]int)
			for _, ev := range got.Evals {
				seen[ev.Record.Iteration]++
			}
			for it := 0; it < iterations; it++ {
				if seen[it] != 1 || len(got.Evals) != iterations {
					t.Fatalf("the artifact's evals cover iterations %v, want each of 0..%d once", seen, iterations-1)
				}
			}
			compacted, err := inspect.LoadRunFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if d := inspect.DiffRuns(want, compacted, inspect.DiffOptions{}); compacted.Malformed != 0 || !d.Identical() {
				t.Fatalf("the compacted log has %d malformed lines, differences %v", compacted.Malformed, d.Differences)
			}
		})
	}
}

// TestFollowEndsAtRewind: a follower attached while a resumed job replays a
// diverged log never sees two histories spliced. The resumed job is held (its
// generator blocks) until the follower has read the log's iterations; when
// the replay then diverges and the job rewinds, the stream ends without the
// job's terminal state, which tail reports as an incomplete stream: no
// iteration twice, and no done line. The job itself still succeeds.
func TestFollowEndsAtRewind(t *testing.T) {
	const iterations = 10
	dir := t.TempDir()
	svc := newTestServer(t, dir)
	job, err := svc.Submit(testSpec(iterations, 23))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	svc.Close()
	data, err := os.ReadFile(filepath.Join(dir, job.ID()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	dir = t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, job.ID()+".jsonl"), divergedLog(t, data, 3), 0o644); err != nil {
		t.Fatal(err)
	}

	release := make(chan struct{})
	var once sync.Once
	defer once.Do(func() { close(release) })
	svc, err = New(Config{Workers: 1, CheckpointDir: dir, Generators: []datagen.Generator{heldGenerator(nil, release)}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	out, w := io.Pipe()
	followed := make(chan error, 1)
	go func() {
		_, err := inspect.Follow(context.Background(), ts.Client(), ts.URL+"/v1/jobs/"+job.ID(), w)
		w.Close()
		followed <- err
	}()
	var lines []string
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if lines = append(lines, sc.Text()); len(lines) == iterations {
			once.Do(func() { close(release) })
		}
	}
	err = <-followed

	seen := make(map[string]bool)
	for _, line := range lines {
		if f := strings.Fields(line); len(f) > 1 && f[0] == "iter" {
			if seen[f[1]] {
				t.Fatalf("iteration %s followed twice:\n%s", f[1], strings.Join(lines, "\n"))
			}
			seen[f[1]] = true
		}
	}
	if len(lines) == 0 || strings.HasPrefix(lines[len(lines)-1], "done:") || err == nil {
		t.Fatalf("the stream of a rewound job ended as complete (err %v):\n%s", err, strings.Join(lines, "\n"))
	}
	resumed, _ := svc.Job(job.ID())
	<-resumed.Done()
	if st := resumed.status(); st.State != JobSucceeded || st.Iterations != iterations {
		t.Fatalf("resumed job %s after %d iterations: %s", st.State, st.Iterations, st.Error)
	}
}

// TestResumeLogWithRetiredDiagnosticsKey: an unfinished log written by an
// older server, with a key this one no longer writes, restores and resumes:
// every logged iteration replays, none is evaluated again and none rewinds
// the log, and the resumed run is the uninterrupted one. Servers before the
// GP's jitter ladder went wrote gp_jitter_level into every search.diagnostics
// line; telemetry-on servers before eval events lost their phase timings
// wrote phase_generate_ns and phase_profile_ns into every completed eval
// line.
func TestResumeLogWithRetiredDiagnosticsKey(t *testing.T) {
	const iterations, cut = 12, 9
	dir := t.TempDir()
	svc := newTestServer(t, dir)
	job, err := svc.Submit(bayesSpec(iterations, 23))
	if err != nil {
		t.Fatal(err)
	}
	<-job.Done()
	want, err := inspect.NewRun(artifactEvents(job))
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	data, err := os.ReadFile(filepath.Join(dir, job.ID()+".jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines, iters := unfinishedLog(data)

	for _, tc := range []struct {
		name      string
		lineType  string
		old, with string
	}{
		{"gp_jitter_level", telemetry.TypeSearchDiagnostics, `"gp_length_scale":`, `"gp_jitter_level":0,"gp_length_scale":`},
		{"phase timings", telemetry.TypeEval, `"attrs":{`, `"attrs":{"phase_generate_ns":13372,"phase_profile_ns":351064489,`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log []byte
			altered := 0
			for i, line := range lines {
				if iters[i] == cut {
					break
				}
				if bytes.Contains(line, []byte(`"type":"`+tc.lineType+`"`)) && bytes.Contains(line, []byte(tc.old)) {
					line = bytes.Replace(line, []byte(tc.old), []byte(tc.with), 1)
					altered++
				}
				log = append(log, line...)
			}
			if altered == 0 {
				t.Fatalf("the log holds no %s line before iteration %d to write the retired key into", tc.lineType, cut)
			}

			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, job.ID()+".jsonl"), log, 0o644); err != nil {
				t.Fatal(err)
			}
			svc := newTestServer(t, dir)
			defer svc.Close()
			resumed, ok := svc.Job(job.ID())
			if !ok {
				t.Fatal("the job was not restored")
			}
			<-resumed.Done()
			if st := resumed.status(); st.State != JobSucceeded {
				t.Fatalf("resumed job %s: %s", st.State, st.Error)
			}
			resumed.mu.Lock()
			rewinds := resumed.rewinds
			resumed.mu.Unlock()
			if evaluated := svc.metrics.evalsTotal.Value(); rewinds != 0 || evaluated != iterations-cut {
				t.Fatalf("the resumed job rewound %d times and evaluated %g iterations; want 0 and the %d after the log", rewinds, evaluated, iterations-cut)
			}
			got, err := inspect.NewRun(artifactEvents(resumed))
			if err != nil {
				t.Fatal(err)
			}
			if d := inspect.DiffRuns(want, got, inspect.DiffOptions{}); !d.Identical() {
				t.Fatalf("the resumed run differs from the uninterrupted one: %v", d.Differences)
			}
		})
	}
}

// TestResumedJobKeepsCacheHits: a resumed job keeps what its first leg
// served from the evaluation cache. Random search draws the same first ten
// points under the same seed at any budget, so the second job serves those
// from the first job's cache entries; it is interrupted right after them and
// resumed on a server whose cache is cold.
func TestResumedJobKeepsCacheHits(t *testing.T) {
	dir := t.TempDir()
	// The generator builds the first job's ten benchmarks and holds the
	// second job's first, so the second job stops right after its cached
	// prefix, with its first two misses in flight.
	release := make(chan struct{})
	var built atomic.Int32
	svcA := heldServer(t, dir, func([]float64) bool { return built.Add(1) <= 10 }, release)
	first, err := svcA.Submit(testSpec(10, 19))
	if err != nil {
		t.Fatal(err)
	}
	<-first.Done()
	job, err := svcA.Submit(testSpec(30, 19))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the second job to pass its cached prefix", func() bool { return job.status().Iterations >= 10 })
	closeHeld(svcA, release)
	leg := job.status()
	if leg.State != JobQueued || leg.CacheHits < 10 {
		t.Fatalf("first leg: %s with %d cache hits; want interrupted after 10 hits", leg.State, leg.CacheHits)
	}

	svcB := newTestServer(t, dir)
	defer svcB.Close()
	resumed, ok := svcB.Job(job.ID())
	if !ok {
		t.Fatal("the job was not restored")
	}
	<-resumed.Done()
	st := resumed.status()
	if st.State != JobSucceeded || st.Evaluations != 30 {
		t.Fatalf("resumed job %s after %d evaluations: %s", st.State, st.Evaluations, st.Error)
	}
	if st.CacheHits < leg.CacheHits || st.CacheHits+st.CacheMisses != st.Evaluations || st.Result.CacheHits != st.CacheHits {
		t.Fatalf("resumed job: %d cache hits (result %d) + %d misses for %d evaluations; the first leg had %d hits",
			st.CacheHits, st.Result.CacheHits, st.CacheMisses, st.Evaluations, leg.CacheHits)
	}
}

// TestCheckpointFromEventsIsTheSearchCheckpoint: what a resume reads from a
// search's recorded events (the evals of the job's run) is the events the search
// gave its OnEval, less the search-health snapshots the eval lines do not
// carry. The retry-skip search on testGenerator skips one iteration and
// retries another; its integer val_mu is why the events carry each point: a
// point does not survive denormalizing and normalizing back.
func TestCheckpointFromEventsIsTheSearchCheckpoint(t *testing.T) {
	gen := flakyGenerator(3, 4, 6)
	svc := &Server{local: backend.NewLocalBackend(gen)}
	spec := profileSpec(testTargetProfile(t), 8, 5)
	spec.Generator = gen.Name
	spec.Parallel = 1
	spec.OnEvalError = "retry-skip"
	p, err := svc.resolve(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := svc.buildSearch(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	var artifact bytes.Buffer
	cfg.Telemetry = telemetry.New(telemetry.Options{OnEvent: telemetry.NewJSONLSink(&artifact)})
	var events []core.EvalEvent
	cfg.OnEval = func(ev core.EvalEvent) {
		ev.Record.Diagnostics = nil
		events = append(events, ev)
	}
	if _, err := core.Search(cfg); err != nil {
		t.Fatal(err)
	}
	var job Job
	for _, ev := range scanEvents(t, artifact.Bytes()) {
		job.add(ev)
	}
	if job.foldErr != nil {
		t.Fatal(job.foldErr)
	}
	if resume := job.run.Evals; !reflect.DeepEqual(resume, events) {
		t.Fatalf("resume read from the artifact %+v\nthe search's events        %+v", resume, events)
	}

	skipped, retried, moved := 0, 0, 0
	for _, ev := range events {
		if ev.Skipped {
			skipped++
		}
		if ev.Retried {
			retried++
		}
		if u := gen.Space.Normalize(gen.Space.Denormalize(ev.U)); !reflect.DeepEqual(u, ev.U) {
			moved++
		}
	}
	if skipped != 1 || retried != 2 || moved == 0 {
		t.Fatalf("search had %d skips, %d retries and %d points that do not survive their parameters; want 1, 2 and some",
			skipped, retried, moved)
	}
}

// FuzzCheckpoint writes arbitrary bytes as one job log in a checkpoint
// directory, starts a server on it and reads the restored job back: its
// status, /profiles and /artifact, and the corpus. None of it may panic. The
// committed seeds (testdata/fuzz/FuzzCheckpoint) are the log of a job
// datamimed ran, the same log torn mid-line, a point of the wrong dimension,
// an unknown generator and an eval without its point.
func FuzzCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "job-1.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if lines, err := readLog(path); err == nil {
			if j, err := replayLog("job-1", lines); err == nil && !j.state.terminal() {
				// An unfinished job is re-queued and runs its search, at
				// whatever cost its spec names. Its log is read exactly as a
				// finished job's is.
				return
			}
		}
		svc, err := New(Config{Workers: 1, CheckpointDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		h := svc.Handler()
		get := func(path string) {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		}
		get("/v1/jobs")
		get("/v1/corpus")
		for _, j := range svc.Jobs() {
			base := "/v1/jobs/" + url.PathEscape(j.ID())
			for _, route := range []string{"", "/profiles", "/artifact"} {
				get(base + route)
			}
		}
	})
}
