package inspect

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// sseServer serves a canned event stream the way datamimed's
// GET /v1/jobs/{id}/events does.
func sseServer(t *testing.T, frames []string) *httptest.Server {
	t.Helper()
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		fl := w.(http.Flusher)
		for _, f := range frames {
			_, _ = w.Write([]byte(f))
			fl.Flush()
		}
	}))
}

func TestFollowRendersStream(t *testing.T) {
	frames := []string{
		"event: eval\ndata: {\"type\":\"eval\",\"iter\":0,\"attrs\":{\"error\":0.9,\"best_error\":0.9}}\n\n",
		"event: span\ndata: {\"type\":\"span\",\"iter\":0,\"phase\":\"profile\",\"dur_ns\":5000000}\n\n",
		"event: eval\ndata: {\"type\":\"eval\",\"iter\":1,\"skipped\":true,\"msg\":\"generator failed\"}\n\n",
		"event: eval\ndata: {\"type\":\"eval\",\"iter\":2,\"attrs\":{\"error\":0.5,\"best_error\":0.5,\"cache_hit\":1}}\n\n",
		"event: done\ndata: {\"state\":\"done\"}\n\n",
	}
	srv := sseServer(t, frames)
	defer srv.Close()

	var out strings.Builder
	st, err := Follow(context.Background(), srv.Client(), srv.URL, &out)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evals != 3 || st.Spans != 1 || !st.Done || st.FinalState != "done" {
		t.Errorf("stats %+v", st)
	}
	text := out.String()
	for _, want := range []string{
		"error 0.9", "span profile", "skipped: generator failed", "[cache]", "done: job done",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q:\n%s", want, text)
		}
	}
}

// TestFollowDroppedStream: a stream that ends without a done frame is an
// error — the caller must know the job did not finish.
func TestFollowDroppedStream(t *testing.T) {
	frames := []string{
		"event: eval\ndata: {\"type\":\"eval\",\"iter\":0,\"attrs\":{\"error\":0.9,\"best_error\":0.9}}\n\n",
	}
	srv := sseServer(t, frames)
	defer srv.Close()
	var out strings.Builder
	st, err := Follow(context.Background(), srv.Client(), srv.URL, &out)
	if err == nil {
		t.Fatal("want error for stream without done frame")
	}
	if st.Evals != 1 || st.Done {
		t.Errorf("stats %+v", st)
	}
}

func TestFollowHTTPError(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"no job"}`, http.StatusNotFound)
	}))
	defer srv.Close()
	var out strings.Builder
	if _, err := Follow(context.Background(), srv.Client(), srv.URL, &out); err == nil {
		t.Fatal("want error for 404")
	}
}
