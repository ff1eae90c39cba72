// Command datamime-worker serves simulator evaluations and way-curve sweeps
// to a datamimed coordinator over the versioned JSON/HTTP protocol
// (internal/backend, whose ProtocolVersion the handshake checks). A fleet of
// workers lets one coordinator shard candidate evaluations across machines;
// the determinism contract — every backend returns bit-identical profiles
// for the same request — means adding, removing, or killing workers never
// changes a search's results, only its wall-clock time.
//
// Usage:
//
//	datamime-worker -addr :9090 -capacity 4
//	datamime-worker -addr :9090 -coordinator http://coord:8080 -advertise http://worker1:9090
//
// With -coordinator set, the worker announces itself on start, re-announces
// periodically (registration is idempotent on URL, so announcements double
// as heartbeats), and withdraws cleanly on SIGTERM. Without it, register the
// worker by hand with datamimed's -worker flag or POST /v1/workers.
// The worker keeps no cache: the coordinator looks every evaluation up in
// its one evaluation cache before it dispatches one, so every request that
// arrives here is simulated.
//
// Endpoints:
//
//	POST /v1/evaluate   run one evaluation (503 when saturated)
//	GET  /v1/healthz    protocol handshake + capacity
//	GET  /metrics       Prometheus text metrics (datamime_worker_*: load,
//	                    evaluations, dropped spans, ...)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"datamime/internal/backend"
	"datamime/internal/buildinfo"
)

func main() {
	var (
		addr        = flag.String("addr", ":9090", "listen address")
		name        = flag.String("name", "", "worker display name (default: the advertise URL or hostname)")
		capacity    = flag.Int("capacity", 1, "maximum concurrent evaluations")
		coordinator = flag.String("coordinator", "", "coordinator base URL to announce to, heartbeat and withdraw from")
		advertise   = flag.String("advertise", "", "base URL the coordinator should dial this worker at (required with -coordinator)")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println("datamime-worker", buildinfo.Read())
		return
	}
	if err := run(*addr, *name, *capacity, *coordinator, *advertise); err != nil {
		fmt.Fprintln(os.Stderr, "datamime-worker:", err)
		os.Exit(1)
	}
}

func run(addr, name string, capacity int, coordinator, advertise string) error {
	if coordinator != "" && advertise == "" {
		return fmt.Errorf("-advertise is required with -coordinator (the URL the coordinator dials back)")
	}
	if name == "" {
		if advertise != "" {
			name = advertise
		} else if host, err := os.Hostname(); err == nil {
			name = host
		}
	}
	w := backend.NewWorker(backend.WorkerConfig{
		Name:     name,
		Capacity: capacity,
		// Heartbeats and health probes carry the build identity, so the
		// coordinator's /v1/fleet surfaces version skew.
		Version: buildinfo.Read().String(),
	})

	httpSrv := &http.Server{Addr: addr, Handler: w.Handler()}
	errc := make(chan error, 1)
	go func() {
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()
	fmt.Printf("datamime-worker %q listening on %s (capacity=%d",
		w.Name(), addr, w.Capacity())
	if coordinator != "" {
		fmt.Printf(", announcing to %s as %s", coordinator, advertise)
	}
	fmt.Println(")")

	ctx, cancel := context.WithCancel(context.Background())
	announcerDone := make(chan struct{})
	if coordinator != "" {
		go func() {
			defer close(announcerDone)
			w.RunAnnouncer(ctx, coordinator, advertise, func(err error) {
				fmt.Fprintln(os.Stderr, "datamime-worker: announce:", err)
			})
		}()
	} else {
		close(announcerDone)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		cancel()
		<-announcerDone
		return err
	case s := <-sig:
		fmt.Printf("datamime-worker: %s — withdrawing and shutting down\n", s)
	}

	// Withdraw from the coordinator (via the announcer's shutdown path),
	// then drain in-flight evaluations.
	cancel()
	<-announcerDone
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	_ = httpSrv.Shutdown(sctx)
	return nil
}
