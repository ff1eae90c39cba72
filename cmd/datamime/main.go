// Command datamime runs a full Datamime search for one evaluation workload:
// it profiles the hidden target, searches the workload's dataset-generator
// parameter space with Bayesian optimization, and reports the best dataset
// parameters and the resulting benchmark's profile.
//
// Usage:
//
//	datamime -workload mem-fb -iterations 200
//	datamime -workload silo -iterations 60 -seed 7 -quiet
//	datamime -workload mem-fb -quick -artifact run.jsonl -profiles profiles.json
//
// The -artifact and -profiles outputs feed cmd/datamime-inspect: the JSONL
// artifact carries the evaluation history and span timeline (report, diff
// and timeline inputs; `timeline -trace` writes its Chrome/Perfetto
// trace-event JSON), the profiles doc carries the target and best-candidate
// distributions behind the report's eCDF overlays.
//
// Every simulation runs in this process, on one backend.LocalBackend and its
// one budget. To spread candidate evaluations over datamime-worker
// processes, submit the search as a job to cmd/datamimed, whose dispatcher
// owns the fleet and checks its evaluation cache before every dispatch.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"strings"

	"datamime"
	"datamime/internal/backend"
	"datamime/internal/buildinfo"
	"datamime/internal/inspect"
	"datamime/internal/telemetry"
)

func main() {
	var (
		workloadName = flag.String("workload", "mem-fb", "target workload: "+strings.Join(workloadNames(), ", "))
		iterations   = flag.Int("iterations", 200, "search iterations (the paper uses 200)")
		seed         = flag.Uint64("seed", 1, "seed for all stochastic streams")
		quiet        = flag.Bool("quiet", false, "suppress per-iteration progress")
		quick        = flag.Bool("quick", false, "use reduced profiling budgets (faster, noisier)")
		parallel     = flag.Int("parallel", 4, "concurrent candidate evaluations per batch (1 = the paper's serial loop)")
		targetFile   = flag.String("target-profile", "", "load the target profile from a JSON file (as produced by cmd/profiler) instead of profiling the workload — the paper's share-profiles-not-data workflow")
		artifactOut  = flag.String("artifact", "", "stream a JSONL run artifact to this file (datamime-inspect report/diff input)")
		profilesOut  = flag.String("profiles", "", "write the target/best profile pair to this JSON file (datamime-inspect -profiles input)")
		version      = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("datamime", buildinfo.Read())
		return
	}

	if err := run(*workloadName, *iterations, *seed, *quiet, *quick, *parallel,
		*targetFile, *artifactOut, *profilesOut); err != nil {
		fmt.Fprintln(os.Stderr, "datamime:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range datamime.Workloads() {
		names = append(names, w.Name)
	}
	for _, w := range datamime.CaseStudyWorkloads() {
		names = append(names, w.Name)
	}
	return names
}

func run(name string, iterations int, seed uint64, quiet, quick bool, parallel int,
	targetFile, artifactOut, profilesOut string) error {
	w, err := datamime.WorkloadByName(name)
	if err != nil {
		return err
	}
	st := datamime.FullSettings()
	if quick {
		st = datamime.QuickSettings()
	}

	// One LocalBackend per process: its profilers draw on its one budget of
	// GOMAXPROCS profiles, which the target profile and every candidate
	// share.
	local := backend.NewLocalBackend()
	profiler := local.Profiler(datamime.Broadwell())
	profiler.Spec = st.Spec

	// The artifact sink streams events to disk as they happen.
	var rec *telemetry.Recorder
	if artifactOut != "" {
		f, err := os.Create(artifactOut)
		if err != nil {
			return err
		}
		defer f.Close()
		sink := telemetry.NewJSONLSink(f)
		sink(telemetry.Event{
			Type: telemetry.TypeLog,
			Msg: fmt.Sprintf("datamime run artifact: workload=%s iterations=%d seed=%d parallel=%d",
				name, iterations, seed, parallel),
		})
		rec = telemetry.New(telemetry.Options{OnEvent: sink})
		profiler.Telemetry = rec
	}

	var target *datamime.Profile
	if targetFile != "" {
		data, err := os.ReadFile(targetFile)
		if err != nil {
			return err
		}
		target, err = datamime.DecodeProfile(data)
		if err != nil {
			return err
		}
		fmt.Printf("loaded target profile %q (%s, measured on %s)\n",
			targetFile, target.Benchmark, target.Machine)
	} else {
		fmt.Printf("profiling target %s on broadwell...\n", w.Name)
		var err error
		target, err = profiler.Profile(w.Target, seed)
		if err != nil {
			return err
		}
	}
	fmt.Printf("target: IPC %.2f, LLC MPKI %.2f, CPU util %.2f\n",
		target.Mean(datamime.MetricIPC), target.Mean(datamime.MetricLLC),
		target.Mean(datamime.MetricCPUUtil))

	// Per-iteration progress lines ride on OnEval through the telemetry
	// line logger.
	var logger *slog.Logger
	if !quiet {
		logger = telemetry.NewLineLogger(os.Stdout)
	}
	fmt.Printf("searching %s's %d-parameter space for %d iterations...\n",
		w.Generator.Name, w.Generator.Space.Dim(), iterations)
	res, err := datamime.Search(datamime.SearchConfig{
		Generator:  w.Generator,
		Objective:  datamime.NewProfileObjective(target, datamime.NewErrorModel()),
		Profiler:   profiler,
		Iterations: iterations,
		Seed:       seed,
		Parallel:   parallel,
		Telemetry:  rec,
		OnEval: func(ev datamime.EvalEvent) {
			if logger == nil {
				return
			}
			if ev.Skipped {
				logger.Warn("iter skipped",
					slog.Int("n", ev.Record.Iteration), slog.String("err", ev.Err))
				return
			}
			logger.Info("iter",
				slog.Int("n", ev.Record.Iteration),
				slog.String("err", fmt.Sprintf("%.4f", ev.Record.Error)),
				slog.String("best", fmt.Sprintf("%.4f", ev.Record.BestError)),
				slog.String("params", w.Generator.Space.Values(ev.Record.Params)))
		},
	})
	if err != nil {
		return err
	}

	fmt.Printf("\nbest dataset parameters (total EMD %.4f):\n  %s\n",
		res.BestError, w.Generator.Space.Values(res.BestParams))
	fmt.Printf("benchmark vs target (broadwell means):\n")
	for _, m := range []datamime.MetricID{
		datamime.MetricIPC, datamime.MetricLLC, datamime.MetricICache,
		datamime.MetricBranch, datamime.MetricCPUUtil, datamime.MetricMemBW,
	} {
		fmt.Printf("  %-12s target %8.3f   datamime %8.3f\n",
			m, target.Mean(m), res.BestProfile.Mean(m))
	}
	if profilesOut != "" {
		doc := &inspect.ProfilesDoc{
			Components: res.BestComponents(),
			Target:     target,
			Best:       res.BestProfile,
		}
		data, err := doc.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(profilesOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote profiles doc %s\n", profilesOut)
	}
	if artifactOut != "" {
		fmt.Printf("wrote run artifact %s\n", artifactOut)
	}
	return nil
}
