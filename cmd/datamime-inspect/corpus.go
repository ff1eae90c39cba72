package main

// The corpus subcommands query a coordinator's run corpus longitudinally —
// the record lines of the job logs in its checkpoint directory: list the
// runs, and render per-scenario trends with the HTML scoreboard. Two runs
// compare with diff, over their logs or /artifact URLs.

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
		return fmt.Errorf("corpus: subcommand required: list or trends")
	}
	switch args[0] {
	case "list":
		return runCorpusList(args[1:])
	case "trends":
		return runCorpusTrends(args[1:])
	default:
		return fmt.Errorf("corpus: unknown subcommand %q (want list or trends)", args[0])
	}
}

func runCorpusList(args []string) error {
	fs := flag.NewFlagSet("corpus list", flag.ExitOnError)
	dir := fs.String("dir", "", "the coordinator's checkpoint directory (required)")
	scenario := fs.String("scenario", "", "only runs of this scenario hash")
	target := fs.String("target", "", "only runs against this target workload")
	limit := fs.Int("limit", 0, "keep only the most recent N matching runs")
	asJSON := fs.Bool("json", false, "emit the records as JSON instead of text")
	_ = fs.Parse(args)
	all, err := loadCorpus(*dir)
	if err != nil {
		return err
	}
	recs := corpus.Select(all, corpus.Filter{Scenario: *scenario, Target: *target, Limit: *limit})
	if *asJSON {
		return writeJSON(os.Stdout, recs)
	}
	fmt.Printf("corpus %s: %d runs", *dir, len(recs))
	if n := len(all); n != len(recs) {
		fmt.Printf(" (of %d indexed)", n)
	}
	fmt.Println()
	for _, rec := range recs {
		fmt.Printf("  %-16s scenario %s  seed %-6d best %-12g evals %-4d wall %6.1fs  %-10s %s\n",
			rec.ID, rec.Scenario, rec.Seed, rec.BestError, rec.Evals,
			rec.WallSeconds, rec.Verdict, rec.FinishedAt.UTC().Format(time.RFC3339))
	}
	return nil
}

func runCorpusTrends(args []string) error {
	fs := flag.NewFlagSet("corpus trends", flag.ExitOnError)
	dir := fs.String("dir", "", "the coordinator's checkpoint directory (required)")
	scenario := fs.String("scenario", "", "only this scenario hash (default: every scenario)")
	htmlOut := fs.String("html", "", "write the self-contained HTML scoreboard to this file")
	title := fs.String("title", "", "scoreboard title")
	asJSON := fs.Bool("json", false, "emit the trends as JSON instead of text")
	_ = fs.Parse(args)
	all, err := loadCorpus(*dir)
	if err != nil {
		return err
	}
	recs := corpus.Select(all, corpus.Filter{Scenario: *scenario})
	trends := corpus.Trends(recs)
	if *scenario != "" && len(trends) == 0 {
		return fmt.Errorf("corpus trends: no runs for scenario %q", *scenario)
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
		rows := inspect.ScoreboardRuns(*dir, recs)
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

// loadCorpus reads the corpus of the -dir checkpoint directory.
func loadCorpus(dir string) ([]corpus.Record, error) {
	if dir == "" {
		return nil, fmt.Errorf("corpus: -dir is required")
	}
	return corpus.Load(dir)
}
