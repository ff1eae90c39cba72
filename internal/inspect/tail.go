package inspect

import (
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
	// Evals, Spans count the events rendered by kind.
	Evals, Spans int
	// FinalState is the job's terminal state, once the stream ended there.
	FinalState string
}

// Follow reads a datamimed job's live stream, GET <jobURL>/artifact?follow=1,
// and renders each event as one line on w until the stream ends, the context
// is canceled, or the stream drops. The server ends the stream cleanly only
// once the job is terminal, so Follow then reads that state from <jobURL>
// and prints it as a last `done: job <state>` line. It is the engine of
// `datamime-inspect tail`.
func Follow(ctx context.Context, client *http.Client, jobURL string, w io.Writer) (TailStats, error) {
	var st TailStats
	if client == nil {
		client = http.DefaultClient
	}
	err := get(ctx, client, jobURL+"/artifact?follow=1", func(body io.Reader) error {
		_, err := telemetry.ScanJSONL(body, func(ev telemetry.Event) error {
			switch ev.Type {
			case telemetry.TypeEval:
				st.Evals++
			case telemetry.TypeSpan:
				st.Spans++
			}
			if line := renderEvent(ev); line != "" {
				_, err := fmt.Fprintln(w, line)
				return err
			}
			return nil
		})
		return err
	})
	var status struct {
		State string `json:"state"`
	}
	if err == nil {
		err = get(ctx, client, jobURL, func(body io.Reader) error { return json.NewDecoder(body).Decode(&status) })
	}
	if err == nil && status.State != "succeeded" && status.State != "failed" && status.State != "canceled" {
		err = fmt.Errorf("the job is %s", status.State)
	}
	if ctx.Err() != nil {
		// A user interrupt is a clean exit, not a stream failure.
		return st, nil
	}
	if err != nil {
		// A cut stream: a server restart, a rewound replay, a network drop.
		return st, fmt.Errorf("inspect: the stream of %s ended before the job did: %w", jobURL, err)
	}
	st.FinalState = status.State
	_, err = fmt.Fprintf(w, "done: job %s\n", st.FinalState)
	return st, err
}

// get calls read on the body of a 200 answer to GET url.
func get(ctx context.Context, client *http.Client, url string, read func(io.Reader) error) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, strings.TrimSpace(string(body)))
	}
	if err := read(resp.Body); err != nil {
		return fmt.Errorf("GET %s: %w", url, err)
	}
	return nil
}

// renderEvent turns one event of the stream into a display line ("" for the
// types it does not show).
func renderEvent(ev telemetry.Event) string {
	switch ev.Type {
	case telemetry.TypeEval:
		eval, err := core.EvalEventFromTelemetry(ev)
		if err != nil {
			return fmt.Sprintf("iter %4d  (unparseable eval: %v)", ev.Iter, err)
		}
		rec := eval.Record
		if eval.Skipped {
			msg := eval.Err
			if msg == "" {
				msg = "skipped"
			}
			return fmt.Sprintf("iter %4d  skipped: %s", rec.Iteration, msg)
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
			rec.Iteration, fnum(rec.Error), fnum(rec.BestError), suffix)
	case telemetry.TypeSpan:
		return fmt.Sprintf("iter %4d  span %-14s %s", ev.Iter, ev.Phase, fms(ev.DurNS))
	default:
		return ""
	}
}
