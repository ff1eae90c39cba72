// Command datamimed serves Datamime benchmark generation as a long-running
// HTTP/JSON service: clients submit search jobs, follow their live events,
// and fetch the best dataset parameters when done. Jobs run on a bounded
// worker pool, share a content-addressed evaluation cache, and append to a
// per-job log (<id>.jsonl) as they run — kill the server mid-search and the
// next start resumes every unfinished job from its last logged iteration.
// A succeeded job's log also carries its run-corpus record, judged against
// its scenario's first run, so the corpus lives in the checkpoint directory
// (and in memory only, without one).
//
// Usage:
//
//	datamimed -addr :8080 -workers 4 -checkpoint-dir ./checkpoints
//
// Quickstart:
//
//	curl -X POST localhost:8080/v1/jobs -d '{"workload":"mem-fb","iterations":200,"parallel":4,"seed":1}'
//	curl localhost:8080/v1/jobs/job-1            # status, counters, result
//	curl localhost:8080/v1/jobs/job-1/artifact   # JSONL run artifact
//	curl -N 'localhost:8080/v1/jobs/job-1/artifact?follow=1'  # the same, live to the job's end
//	curl localhost:8080/v1/jobs/job-1/profiles   # target + best profiles (JSON)
//	curl -X POST localhost:8080/v1/jobs/job-1/cancel
//	curl localhost:8080/v1/corpus             # run history: the succeeded jobs' records
//	curl localhost:8080/metrics               # Prometheus text metrics
//
// A job's HTML report and Perfetto trace are rendered from its artifact by
// datamime-inspect, which reads the URLs directly:
//
//	datamime-inspect report -artifact http://localhost:8080/v1/jobs/job-1/artifact \
//	    -profiles http://localhost:8080/v1/jobs/job-1/profiles -html report.html
//	datamime-inspect timeline -artifact http://localhost:8080/v1/jobs/job-1/artifact -trace trace.json
//
// -telemetry enables per-job phase spans (feeding the /metrics latency
// histograms and the artifact's span timeline, live stream included — open
// its trace at https://ui.perfetto.dev); -debug mounts net/http/pprof under
// /debug/pprof/ for live profiling of the server itself.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datamime/internal/buildinfo"
	"datamime/internal/service"
)

func main() {
	var (
		addr          = flag.String("addr", ":8080", "listen address")
		workers       = flag.Int("workers", 2, "concurrent search jobs")
		queueDepth    = flag.Int("queue-depth", 1024, "maximum queued jobs")
		checkpointDir = flag.String("checkpoint-dir", "", "directory for job logs, <id>.jsonl, appended as each job records (empty disables persistence and resume)")
		cacheCapacity = flag.Int("cache-capacity", 4096, "evaluation-cache capacity (profiles)")
		quiet         = flag.Bool("quiet", false, "suppress job lifecycle logs")
		telemetry     = flag.Bool("telemetry", false, "record per-job phase spans (latency histograms in /metrics, spans in /artifact)")
		debug         = flag.Bool("debug", false, "expose net/http/pprof under /debug/pprof/")
		version       = flag.Bool("version", false, "print build information and exit")

		dispatchTimeout = flag.Duration("dispatch-timeout", 5*time.Minute, "per-attempt timeout for remote evaluations")
		dispatchQueue   = flag.Int("dispatch-max-queue", 64, "evaluations waiting for a remote slot before admission control sheds to local")
		healthInterval  = flag.Duration("worker-health-interval", 15*time.Second, "fleet health-probe period")
	)
	var workerURLs workerList
	flag.Var(&workerURLs, "worker", "datamime-worker base URL to dispatch evaluations to (repeatable; workers may also self-register via POST /v1/workers)")
	flag.Parse()
	if *version {
		fmt.Println("datamimed", buildinfo.Read())
		return
	}

	if err := run(options{
		addr:            *addr,
		workers:         *workers,
		queueDepth:      *queueDepth,
		checkpointDir:   *checkpointDir,
		cacheCapacity:   *cacheCapacity,
		quiet:           *quiet,
		telemetry:       *telemetry,
		debug:           *debug,
		workerURLs:      workerURLs,
		dispatchTimeout: *dispatchTimeout,
		dispatchQueue:   *dispatchQueue,
		healthInterval:  *healthInterval,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "datamimed:", err)
		os.Exit(1)
	}
}

type options struct {
	addr          string
	workers       int
	queueDepth    int
	checkpointDir string
	cacheCapacity int
	quiet         bool
	telemetry     bool
	debug         bool

	workerURLs      []string
	dispatchTimeout time.Duration
	dispatchQueue   int
	healthInterval  time.Duration
}

// workerList accumulates repeated -worker flags.
type workerList []string

func (w *workerList) String() string { return fmt.Sprint([]string(*w)) }

func (w *workerList) Set(v string) error {
	if v == "" {
		return fmt.Errorf("empty worker URL")
	}
	*w = append(*w, v)
	return nil
}

func run(o options) error {
	cfg := service.Config{
		Workers:              o.workers,
		QueueDepth:           o.queueDepth,
		CheckpointDir:        o.checkpointDir,
		CacheCapacity:        o.cacheCapacity,
		Telemetry:            o.telemetry,
		WorkerURLs:           o.workerURLs,
		DispatchTimeout:      o.dispatchTimeout,
		DispatchMaxQueue:     o.dispatchQueue,
		WorkerHealthInterval: o.healthInterval,
	}
	if !o.quiet {
		cfg.Log = os.Stdout
	}
	svc, err := service.New(cfg)
	if err != nil {
		return err
	}

	handler := svc.Handler()
	if o.debug {
		handler = withDebugHandlers(handler)
	}
	httpSrv := &http.Server{Addr: o.addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Printf("datamimed listening on %s (workers=%d", o.addr, o.workers)
	if o.checkpointDir != "" {
		fmt.Printf(", job logs in %s", o.checkpointDir)
	}
	if n := len(o.workerURLs); n > 0 {
		fmt.Printf(", fleet of %d", n)
	}
	if o.telemetry {
		fmt.Printf(", telemetry on")
	}
	if o.debug {
		fmt.Printf(", /debug/ exposed")
	}
	fmt.Println(")")
	fmt.Printf("submit a job:  curl -X POST localhost%s/v1/jobs -d '{\"workload\":\"mem-fb\",\"iterations\":200,\"parallel\":4}'\n", portSuffix(o.addr))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		svc.Close()
		return err
	case s := <-sig:
		fmt.Printf("datamimed: %s — logging running jobs as queued and shutting down\n", s)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = httpSrv.Shutdown(ctx)
	// Close cancels running searches and logs them as queued, so the next
	// start resumes them.
	svc.Close()
	return nil
}

// withDebugHandlers wraps the service handler with the stdlib pprof
// profiles under /debug/pprof/.
func withDebugHandlers(h http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/", h)
	return mux
}

// portSuffix extracts ":8080" from a listen address for the quickstart
// line.
func portSuffix(addr string) string {
	for i := len(addr) - 1; i >= 0; i-- {
		if addr[i] == ':' {
			return addr[i:]
		}
	}
	return addr
}
