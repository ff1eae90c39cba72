package main

// The corpus subcommands query the coordinator's on-disk run corpus
// longitudinally: list indexed runs, compare two of them artifact-to-artifact
// (the diff gate, but addressed by run ID instead of file path), and render
// per-scenario trends with the HTML scoreboard.

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"datamime/internal/corpus"
	"datamime/internal/inspect"
)

func runCorpus(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("corpus: subcommand required: list, compare, or trends")
	}
	switch args[0] {
	case "list":
		return runCorpusList(args[1:])
	case "compare":
		return runCorpusCompare(args[1:])
	case "trends":
		return runCorpusTrends(args[1:])
	default:
		return fmt.Errorf("corpus: unknown subcommand %q (want list, compare, or trends)", args[0])
	}
}

func runCorpusList(args []string) error {
	fs := flag.NewFlagSet("corpus list", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory (required)")
	scenario := fs.String("scenario", "", "only runs of this scenario hash")
	target := fs.String("target", "", "only runs against this target workload")
	limit := fs.Int("limit", 0, "keep only the most recent N matching runs")
	asJSON := fs.Bool("json", false, "emit the records as JSON instead of text")
	_ = fs.Parse(args)
	c, err := openCorpus(*dir)
	if err != nil {
		return err
	}
	defer c.Close()
	recs := c.Select(corpus.Filter{Scenario: *scenario, Target: *target, Limit: *limit})
	if *asJSON {
		return writeJSON(os.Stdout, recs)
	}
	fmt.Printf("corpus %s: %d runs", c.Dir(), len(recs))
	if n := c.Len(); n != len(recs) {
		fmt.Printf(" (of %d indexed)", n)
	}
	if m := c.Malformed(); m > 0 {
		fmt.Printf(", %d malformed index lines dropped", m)
	}
	fmt.Println()
	for _, rec := range recs {
		fmt.Printf("  %-16s scenario %s  seed %-6d best %-12g evals %-4d wall %6.1fs  %-10s %s\n",
			rec.ID, rec.Scenario, rec.Seed, rec.BestError, rec.Evals,
			rec.WallSeconds, rec.Verdict, rec.FinishedAt.UTC().Format(time.RFC3339))
	}
	return nil
}

func runCorpusCompare(args []string) error {
	fs := flag.NewFlagSet("corpus compare", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory (required)")
	aID := fs.String("a", "", "baseline run ID (required)")
	bID := fs.String("b", "", "candidate run ID (required)")
	tol := fs.Float64("tolerance", 0, "absolute numeric tolerance (default 1e-9)")
	exact := fs.Bool("exact", false, "treat ANY difference as a failure (determinism gate)")
	asJSON := fs.Bool("json", false, "emit the machine-readable RunDiff JSON instead of text")
	_ = fs.Parse(args)
	if *aID == "" || *bID == "" {
		return fmt.Errorf("corpus compare: -a and -b run IDs are required")
	}
	c, err := openCorpus(*dir)
	if err != nil {
		return err
	}
	defer c.Close()
	a, err := corpusRun(c, *aID)
	if err != nil {
		return err
	}
	b, err := corpusRun(c, *bID)
	if err != nil {
		return err
	}
	d := inspect.DiffRuns(a, b, inspect.DiffOptions{Tolerance: *tol})
	return reportDiff(d, *aID, *bID, *asJSON, *exact)
}

func runCorpusTrends(args []string) error {
	fs := flag.NewFlagSet("corpus trends", flag.ExitOnError)
	dir := fs.String("dir", "", "corpus directory (required)")
	scenario := fs.String("scenario", "", "only this scenario hash (default: every scenario)")
	htmlOut := fs.String("html", "", "write the self-contained HTML scoreboard to this file")
	title := fs.String("title", "", "scoreboard title")
	asJSON := fs.Bool("json", false, "emit the trends as JSON instead of text")
	_ = fs.Parse(args)
	c, err := openCorpus(*dir)
	if err != nil {
		return err
	}
	defer c.Close()
	scenarios := c.Scenarios()
	if *scenario != "" {
		scenarios = []string{*scenario}
	}
	trends := make([]corpus.Trend, 0, len(scenarios))
	for _, sc := range scenarios {
		tr := c.Trend(sc)
		if tr.Runs == 0 {
			return fmt.Errorf("corpus trends: no runs for scenario %q", sc)
		}
		trends = append(trends, tr)
	}
	if *asJSON {
		if err := writeJSON(os.Stdout, trends); err != nil {
			return err
		}
	} else {
		for _, tr := range trends {
			printTrend(tr)
		}
	}
	if *htmlOut != "" {
		recs := c.Select(corpus.Filter{Scenario: *scenario})
		rows := inspect.ScoreboardRuns(c, recs)
		var buf bytes.Buffer
		if err := inspect.RenderScoreboard(&buf, *title, rows); err != nil {
			return err
		}
		if err := os.WriteFile(*htmlOut, buf.Bytes(), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *htmlOut)
	}
	return nil
}

func printTrend(tr corpus.Trend) {
	fmt.Printf("scenario %s (target %s, generator %s): %d runs\n",
		tr.Scenario, tr.Target, tr.Generator, tr.Runs)
	fmt.Printf("  best error: best %g, median %g; median wall %.1fs; regressions %d\n",
		tr.BestError, tr.MedianBestError, tr.MedianWallSeconds, tr.Regressions)
	for _, p := range tr.Points {
		fmt.Printf("  %-16s best %-12g wall %6.1fs evals %-4d seed %-6d %-10s %s\n",
			p.ID, p.BestError, p.WallSeconds, p.Evals, p.Seed, p.Verdict,
			p.FinishedAt.UTC().Format(time.RFC3339))
	}
}

func openCorpus(dir string) (*corpus.Corpus, error) {
	if dir == "" {
		return nil, fmt.Errorf("corpus: -dir is required")
	}
	if _, err := os.Stat(dir); err != nil {
		// Open would create the directory; for a read-oriented CLI a missing
		// corpus is an input error, not an empty result.
		return nil, fmt.Errorf("corpus: %w", err)
	}
	return corpus.Open(dir)
}

// corpusRun loads the stored artifact for a run ID back into a Run.
func corpusRun(c *corpus.Corpus, id string) (*inspect.Run, error) {
	rec, ok := c.Find(id)
	if !ok {
		return nil, fmt.Errorf("corpus: run %q not in the index", id)
	}
	data, err := c.Artifact(rec)
	if err != nil {
		return nil, err
	}
	return inspect.LoadRun(bytes.NewReader(data))
}
