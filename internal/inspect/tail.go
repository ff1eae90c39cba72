package inspect

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"datamime/internal/core"
	"datamime/internal/telemetry"
)

// TailStats summarizes one Follow session.
type TailStats struct {
	// Evals, Spans count the frames rendered by kind.
	Evals, Spans int
	// Done reports whether the stream closed with the server's terminal
	// `done` frame (as opposed to a dropped connection).
	Done bool
	// FinalState is the job state carried by the `done` frame.
	FinalState string
}

// Follow connects to a datamimed SSE event stream (GET /v1/jobs/{id}/events)
// and renders each frame as one line on w until the job reaches a terminal
// state, the context is canceled, or the stream drops. It is the engine of
// `datamime-inspect tail`.
func Follow(ctx context.Context, client *http.Client, url string, w io.Writer) (TailStats, error) {
	var st TailStats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return st, fmt.Errorf("inspect: %w", err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if client == nil {
		client = http.DefaultClient
	}
	resp, err := client.Do(req)
	if err != nil {
		return st, fmt.Errorf("inspect: connecting to %s: %w", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return st, fmt.Errorf("inspect: %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	err = readSSE(resp.Body, func(event, data string) error {
		line, kind := renderFrame(event, data)
		switch kind {
		case telemetry.TypeEval:
			st.Evals++
		case telemetry.TypeSpan:
			st.Spans++
		case "done":
			st.Done = true
			var d struct {
				State string `json:"state"`
			}
			if json.Unmarshal([]byte(data), &d) == nil {
				st.FinalState = d.State
			}
		}
		if line != "" {
			if _, err := fmt.Fprintln(w, line); err != nil {
				return err
			}
		}
		if st.Done {
			return errTailDone
		}
		return nil
	})
	if err == errTailDone {
		err = nil
	}
	if err == nil && !st.Done {
		// The server closed without a done frame (restart, network drop).
		err = fmt.Errorf("inspect: stream ended before job completion")
	}
	if err != nil && ctx.Err() != nil {
		// A user interrupt is a clean exit, not a stream failure.
		err = nil
	}
	return st, err
}

// errTailDone signals readSSE to stop after the terminal frame.
var errTailDone = fmt.Errorf("done")

// readSSE parses text/event-stream frames from r, calling emit for each
// complete frame. It understands the subset datamimed emits: `event:` and
// `data:` fields, frames separated by blank lines.
func readSSE(r io.Reader, emit func(event, data string) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var event string
	var data strings.Builder
	flush := func() error {
		if event == "" && data.Len() == 0 {
			return nil
		}
		err := emit(event, data.String())
		event = ""
		data.Reset()
		return err
	}
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if err := flush(); err != nil {
				return err
			}
		case strings.HasPrefix(line, "event:"):
			event = strings.TrimSpace(strings.TrimPrefix(line, "event:"))
		case strings.HasPrefix(line, "data:"):
			if data.Len() > 0 {
				data.WriteByte('\n')
			}
			data.WriteString(strings.TrimSpace(strings.TrimPrefix(line, "data:")))
		}
	}
	if err := flush(); err != nil {
		return err
	}
	return sc.Err()
}

// renderFrame turns one SSE frame into a display line and reports the frame
// kind ("" for frames it does not recognize).
func renderFrame(event, data string) (line, kind string) {
	switch event {
	case telemetry.TypeEval:
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", ""
		}
		eval, err := core.EvalEventFromTelemetry(ev)
		if err != nil {
			return fmt.Sprintf("iter %4d  (unparseable eval: %v)", ev.Iter, err), telemetry.TypeEval
		}
		rec := eval.Record
		if eval.Skipped {
			msg := eval.Err
			if msg == "" {
				msg = "skipped"
			}
			return fmt.Sprintf("iter %4d  skipped: %s", rec.Iteration, msg), telemetry.TypeEval
		}
		var flags []string
		if eval.CacheHit {
			flags = append(flags, "cache")
		}
		if eval.Retried {
			flags = append(flags, "retried")
		}
		if eval.Replayed {
			flags = append(flags, "replayed")
		}
		suffix := ""
		if len(flags) > 0 {
			suffix = "  [" + strings.Join(flags, ",") + "]"
		}
		return fmt.Sprintf("iter %4d  error %-12s best %-12s%s",
			rec.Iteration, fnum(rec.Error), fnum(rec.BestError), suffix), telemetry.TypeEval
	case telemetry.TypeSpan:
		var ev telemetry.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			return "", ""
		}
		return fmt.Sprintf("iter %4d  span %-14s %s", ev.Iter, ev.Phase, fms(ev.DurNS)), telemetry.TypeSpan
	case "done":
		var d struct {
			State string `json:"state"`
		}
		state := "?"
		if json.Unmarshal([]byte(data), &d) == nil && d.State != "" {
			state = d.State
		}
		return fmt.Sprintf("done: job %s", state), "done"
	default:
		return "", ""
	}
}
