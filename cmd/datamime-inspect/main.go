// Command datamime-inspect is the introspection CLI over Datamime run
// artifacts: it renders reports, diffs runs for CI gating, and follows live
// job event streams.
//
// Usage:
//
//	datamime-inspect report -artifact run.jsonl [-profiles profiles.json] [-html report.html] [-json] [-diagnostics diag.json]
//	datamime-inspect diff -a baseline.jsonl -b candidate.jsonl [-exact] [-json]
//	datamime-inspect timeline -artifact run.jsonl [-trace trace.json] [-min-efficiency 1.3]
//	datamime-inspect corpus list|trends -dir checkpoints [...]
//	datamime-inspect tail -server http://localhost:8080 -job job-1
//
// report, diff and timeline also read a live datamimed job: every -artifact,
// -profiles, -a or -b file may be an http:// or https:// URL, such as
// http://localhost:8080/v1/jobs/job-1/artifact (served mid-run too). A job's
// log, <checkpoint-dir>/<id>.jsonl, reads as its artifact.
//
// Exit codes: 0 success; 1 the diff crossed a regression threshold (any
// difference under -exact) or the timeline missed -min-efficiency; 2 usage
// or input errors.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"

	"datamime/internal/buildinfo"
	"datamime/internal/inspect"
	"datamime/internal/telemetry"
)

func main() {
	flag.Usage = usage
	version := flag.Bool("version", false, "print build information and exit")
	flag.Parse()
	if *version {
		fmt.Println("datamime-inspect", buildinfo.Read())
		return
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch args[0] {
	case "report":
		err = runReport(args[1:])
	case "diff":
		err = runDiff(args[1:])
	case "timeline":
		err = runTimeline(args[1:])
	case "corpus":
		err = runCorpus(args[1:])
	case "tail":
		err = runTail(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "datamime-inspect: unknown command %q\n\n", args[0])
		usage()
		os.Exit(2)
	}
	if err != nil {
		if err == errRegressed {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "datamime-inspect:", err)
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `datamime-inspect — run-artifact introspection

commands:
  report    render a run artifact as a terminal summary and optional HTML
  diff      compare two run artifacts; exit 1 on regression (CI gate)
  timeline  profiler utilization report from a run's timed spans; writes and
            validates its -trace file and gates on -min-efficiency (CI gate)
  corpus    query a coordinator's run corpus, the records in its checkpoint
            directory's job logs: list the runs, or render per-scenario
            trends and the HTML scoreboard
  tail      follow a live datamimed job's SSE event stream

report, diff and timeline read -artifact, -profiles, -a and -b from a file
or an http(s):// URL (a datamimed job's /artifact and /profiles). A job's
log in the checkpoint directory is its artifact too.

run "datamime-inspect <command> -h" for command flags.
`)
}

// errRegressed maps a diff regression onto exit code 1 (distinct from the
// exit-2 input errors).
var errRegressed = fmt.Errorf("regressed")

func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	artifact := fs.String("artifact", "", "run artifact (JSONL) to report on, a file or http(s) URL (required)")
	profiles := fs.String("profiles", "", "profiles doc (JSON pair of target/best profiles), a file or http(s) URL, enabling eCDF overlays and quantile-band attribution")
	htmlOut := fs.String("html", "", "also write the self-contained HTML report to this file")
	title := fs.String("title", "", "report title (default: the artifact's job ID)")
	quiet := fs.Bool("quiet", false, "suppress the terminal summary (useful with -html)")
	asJSON := fs.Bool("json", false, "emit the machine-readable run summary JSON instead of text")
	diagOut := fs.String("diagnostics", "", "also write the search-health diagnostics summary JSON to this file; unlike the full -json summary it carries no wall-clock figures, so identically-seeded runs write identical bytes (CI determinism gate)")
	_ = fs.Parse(args)
	if *artifact == "" {
		return fmt.Errorf("report: -artifact is required")
	}
	run, _, err := loadArtifact(*artifact)
	if err != nil {
		return err
	}
	var doc *inspect.ProfilesDoc
	if *profiles != "" {
		data, err := readInput(*profiles)
		if err != nil {
			return err
		}
		doc, err = inspect.DecodeProfilesDoc(data)
		if err != nil {
			return err
		}
	}
	report := inspect.NewReport(run, doc, *title)
	if *asJSON {
		if err := inspect.NewRunSummary(report).WriteJSON(os.Stdout); err != nil {
			return err
		}
	} else if !*quiet {
		if err := report.RenderText(os.Stdout); err != nil {
			return err
		}
	}
	if *htmlOut != "" {
		f, err := os.Create(*htmlOut)
		if err != nil {
			return err
		}
		if err := report.RenderHTML(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *htmlOut)
	}
	if *diagOut != "" {
		f, err := os.Create(*diagOut)
		if err != nil {
			return err
		}
		// A run with no diagnostics writes the literal "null" — still
		// deterministic, still diffable.
		if err := writeJSON(f, report.Health); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *diagOut)
	}
	return nil
}

func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	aPath := fs.String("a", "", "baseline run artifact, a file or http(s) URL (required)")
	bPath := fs.String("b", "", "candidate run artifact, a file or http(s) URL (required)")
	tol := fs.Float64("tolerance", 0, "absolute numeric tolerance (default 1e-9)")
	errTol := fs.Float64("error-tolerance", 0, "allowed best-error drift before it counts as a regression (default: -tolerance)")
	exact := fs.Bool("exact", false, "treat ANY difference as a failure (determinism gate), not just regressions")
	asJSON := fs.Bool("json", false, "emit the machine-readable RunDiff JSON instead of text")
	_ = fs.Parse(args)
	if *aPath == "" || *bPath == "" {
		return fmt.Errorf("diff: -a and -b are required")
	}
	a, _, err := loadArtifact(*aPath)
	if err != nil {
		return err
	}
	b, _, err := loadArtifact(*bPath)
	if err != nil {
		return err
	}
	d := inspect.DiffRuns(a, b, inspect.DiffOptions{Tolerance: *tol, ErrorTolerance: *errTol})
	if *asJSON {
		if err := writeJSON(os.Stdout, d); err != nil {
			return err
		}
	} else {
		printDiff(d, *aPath, *bPath)
	}
	// A regression, or under -exact any difference, exits 1.
	if d.Regressed() || (*exact && !d.Identical()) {
		return errRegressed
	}
	return nil
}

// writeJSON renders v as indented JSON — the form of every -json output.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func printDiff(d *inspect.RunDiff, aPath, bPath string) {
	fmt.Printf("diff %s -> %s: %s\n", aPath, bPath, strings.ToUpper(d.Verdict))
	fmt.Printf("  best error %g -> %g (%+g), iterations %d -> %d\n",
		d.BestError.A, d.BestError.B, d.BestError.Delta, d.Iterations[0], d.Iterations[1])
	if len(d.Differences) == 0 {
		fmt.Println("  no differences beyond tolerance")
		return
	}
	for _, msg := range d.Differences {
		fmt.Printf("  - %s\n", msg)
	}
}

func runTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	artifact := fs.String("artifact", "", "run artifact (JSONL) with timed spans, a file or http(s) URL (required)")
	trace := fs.String("trace", "", "also write the run's Chrome/Perfetto trace-event JSON to this file and validate it")
	minSpeedup := fs.Float64("min-efficiency", 0, "fail (exit 1) when the profiler pool's speedup over serial falls below this factor")
	_ = fs.Parse(args)
	if *artifact == "" {
		return fmt.Errorf("timeline: -artifact is required")
	}
	run, data, err := loadArtifact(*artifact)
	if err != nil {
		return err
	}
	report := inspect.NewReport(run, nil, "")
	tl := report.Timeline
	if err := tl.RenderText(os.Stdout); err != nil {
		return err
	}
	if *trace != "" {
		st, err := writeTrace(*trace, data)
		if err != nil {
			return fmt.Errorf("timeline: %s: %w", *trace, err)
		}
		fmt.Printf("\ntrace %s ok: %d events (%d spans, %d instants) on %d tracks (%d workers) across %d processes (%d fleet)\n",
			*trace, st.Events, st.Spans, st.Instants, st.Tracks, st.WorkerTracks, st.Processes, st.FleetProcesses)
		if st.DroppedUnstamped > 0 {
			fmt.Printf("trace %s: %d unstamped events were dropped at export\n", *trace, st.DroppedUnstamped)
		}
	}
	if *minSpeedup > 0 {
		if len(tl.Workers) == 0 {
			fmt.Fprintf(os.Stderr, "timeline: no timed profile.sim spans to gate on\n")
			return errRegressed
		}
		if sp := tl.Speedup(); sp < *minSpeedup {
			fmt.Fprintf(os.Stderr, "timeline: speedup %.2fx below the %.2fx gate\n", sp, *minSpeedup)
			return errRegressed
		}
		fmt.Printf("efficiency gate passed: speedup %.2fx >= %.2fx\n", tl.Speedup(), *minSpeedup)
	}
	return nil
}

// readInput reads an -artifact, -profiles, -a or -b input: a file, or the body of a
// 2xx answer from an http(s) URL such as a datamimed job's /artifact. Any
// other answer is an error, never an empty run.
func readInput(path string) ([]byte, error) {
	if !strings.HasPrefix(path, "http://") && !strings.HasPrefix(path, "https://") {
		return os.ReadFile(path)
	}
	resp, err := http.Get(path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return data, nil
}

// loadArtifact reads the -artifact input at path and parses it, returning
// the bytes it read as well.
func loadArtifact(path string) (*inspect.Run, []byte, error) {
	data, err := readInput(path)
	if err != nil {
		return nil, nil, err
	}
	run, err := inspect.LoadRun(bytes.NewReader(data))
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return run, data, nil
}

// writeTrace writes the Perfetto trace of the artifact's events to path and
// validates what it wrote.
func writeTrace(path string, artifact []byte) (telemetry.TraceStats, error) {
	var events []telemetry.Event
	if _, err := telemetry.ScanJSONL(bytes.NewReader(artifact), func(ev telemetry.Event) error {
		events = append(events, ev)
		return nil
	}); err != nil {
		return telemetry.TraceStats{}, err
	}
	var buf bytes.Buffer
	if err := telemetry.WriteTrace(&buf, events); err != nil {
		return telemetry.TraceStats{}, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return telemetry.TraceStats{}, err
	}
	return telemetry.ValidateTrace(&buf)
}

func runTail(args []string) error {
	fs := flag.NewFlagSet("tail", flag.ExitOnError)
	server := fs.String("server", "http://localhost:8080", "datamimed base URL")
	job := fs.String("job", "", "job ID to follow (required unless -url)")
	rawURL := fs.String("url", "", "full SSE endpoint URL (overrides -server/-job)")
	_ = fs.Parse(args)
	url := *rawURL
	if url == "" {
		if *job == "" {
			return fmt.Errorf("tail: -job (or -url) is required")
		}
		url = strings.TrimRight(*server, "/") + "/v1/jobs/" + *job + "/events"
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	st, err := inspect.Follow(ctx, http.DefaultClient, url, os.Stdout)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "followed %d evals, %d spans", st.Evals, st.Spans)
	if st.FinalState != "" {
		fmt.Fprintf(os.Stderr, "; job %s", st.FinalState)
	}
	fmt.Fprintln(os.Stderr)
	return nil
}
