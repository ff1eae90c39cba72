package inspect

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// jobServer serves a canned job the way datamimed does: its live stream
// (GET /v1/jobs/job-1/artifact?follow=1) writes lines, and its status
// (GET /v1/jobs/job-1) says state.
func jobServer(t *testing.T, lines []string, state string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/job-1/artifact", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("follow") != "1" {
			t.Errorf("stream requested as %s, want ?follow=1", r.URL)
		}
		fl := w.(http.Flusher)
		for _, l := range lines {
			_, _ = w.Write([]byte(l + "\n"))
			fl.Flush()
		}
	})
	mux.HandleFunc("GET /v1/jobs/job-1", func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"id":"job-1","state":"` + state + `"}`))
	})
	return httptest.NewServer(mux)
}

func TestFollowRendersStream(t *testing.T) {
	lines := []string{
		`{"type":"log","job":"job-1","msg":"datamime run artifact: state=running events=0"}`,
		`{"type":"eval","iter":0,"attrs":{"error":0.9,"best_error":0.9}}`,
		`{"type":"span","iter":0,"phase":"profile","dur_ns":5000000}`,
		`{"type":"eval","iter":1,"skipped":true,"msg":"generator failed"}`,
		`{"type":"eval","iter":2,"attrs":{"error":0.5,"best_error":0.5,"cache_hit":1}}`,
	}
	srv := jobServer(t, lines, "succeeded")
	defer srv.Close()

	var out strings.Builder
	st, err := Follow(context.Background(), srv.Client(), srv.URL+"/v1/jobs/job-1", &out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evals != 3 || st.Spans != 1 || st.FinalState != "succeeded" {
		t.Errorf("stats %+v", st)
	}
	text := out.String()
	for _, want := range []string{
		"error 0.9", "span profile", "skipped: generator failed", "[cache]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
	if !strings.HasSuffix(text, "\ndone: job succeeded\n") || strings.Contains(text, "run artifact") {
		t.Errorf("output does not end with the job's state, or shows the header:\n%s", text)
	}
}

// TestFollowDroppedStream: a stream that ends while the job is not terminal
// is an error — the caller must know the job did not finish — and prints no
// done line.
func TestFollowDroppedStream(t *testing.T) {
	lines := []string{
		`{"type":"eval","iter":0,"attrs":{"error":0.9,"best_error":0.9}}`,
	}
	srv := jobServer(t, lines, "running")
	defer srv.Close()
	var out strings.Builder
	st, err := Follow(context.Background(), srv.Client(), srv.URL+"/v1/jobs/job-1", &out)
	if err == nil {
		t.Fatal("want error for a stream that ended with the job running")
	}
	if st.Evals != 1 || st.FinalState != "" || strings.Contains(out.String(), "done:") {
		t.Errorf("stats %+v, output:\n%s", st, out.String())
	}
}

func TestFollowHTTPError(t *testing.T) {
	srv := jobServer(t, nil, "succeeded")
	defer srv.Close()
	var out strings.Builder
	if _, err := Follow(context.Background(), srv.Client(), srv.URL+"/v1/jobs/job-2", &out); err == nil {
		t.Fatal("want error for 404")
	}
}
