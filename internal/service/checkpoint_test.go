package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"datamime/internal/backend"
)

// misfitJob is a finished memcached job whose one checkpoint entry holds a
// 2-element point: what a custom generator re-registered under the same name
// with another space, or an edited file, leaves on disk.
const misfitJob = `{"id":"job-1","spec":{"generator":"memcached","iterations":1,"seed":1,` +
	`"optimizer":"random","metric":"cpu_util","metric_value":0.2},"state":"succeeded",` +
	`"checkpoint":{"entries":[{"iteration":0,"u":[0.5,0.5],"y":0.1}]},"created":"2026-01-01T00:00:00Z"}`

// TestRestoredMisfitCheckpointFailsJob: a restored checkpoint that does not
// fit its generator fails that job instead of panicking the server. The
// server starts, and the job lists as failed with an error naming the
// generator and both dimensions; its profiles and artifact still answer.
func TestRestoredMisfitCheckpointFailsJob(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "job-1.json"), []byte(misfitJob), 0o644); err != nil {
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

// FuzzCheckpoint writes arbitrary bytes as one job file in a checkpoint
// directory, starts a server on it and reads the restored job back: its
// status, /profiles and /artifact. None of it may panic. The committed seeds
// (testdata/fuzz/FuzzCheckpoint) are a job datamimed persisted, the same file
// truncated, a wrong-dimension entry and an unknown generator.
func FuzzCheckpoint(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p persistedJob
		if json.Unmarshal(data, &p) == nil && !p.State.terminal() {
			// An unfinished job is re-queued and runs its search, at whatever
			// cost its spec names. Its file decodes and its checkpoint is
			// checked exactly as a finished job's are.
			return
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "job-1.json"), data, 0o644); err != nil {
			t.Fatal(err)
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
		for _, j := range svc.Jobs() {
			base := "/v1/jobs/" + url.PathEscape(j.ID())
			for _, route := range []string{"", "/profiles", "/artifact"} {
				get(base + route)
			}
		}
	})
}
