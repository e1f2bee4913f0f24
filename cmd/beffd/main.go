// Command beffd serves the benchmark as a long-running HTTP service:
// clients POST sweep requests (machine × procs × perturb × reps) to
// /api/v1/sweeps, poll or stream per-job progress, and fetch results
// that are byte-identical to the same cells run through the CLI
// commands. All requests share one worker pool, one in-flight dedupe
// table and one on-disk result cache.
//
// Usage:
//
//	beffd                                    # localhost:8080
//	beffd -addr :9000 -j 8 -cache /var/cache/beff
//	beffd -queue-limit 512 -max-client-jobs 8
//	beffd -addr :0 -metrics beffd.ndjson     # free port, NDJSON stream
//
// Endpoints (full reference in docs/API.md):
//
//	POST   /api/v1/sweeps                submit a sweep, returns the job
//	GET    /api/v1/jobs                  list jobs
//	GET    /api/v1/jobs/{id}             job status with per-cell rows
//	GET    /api/v1/jobs/{id}/result      aggregate results (409 until done)
//	GET    /api/v1/jobs/{id}/cells/{i}   one cell's raw result JSON
//	GET    /api/v1/jobs/{id}/stream      NDJSON progress stream
//	DELETE /api/v1/jobs/{id}             cancel queued cells
//	GET    /healthz                      readiness (503 while draining)
//	GET    /metrics, /vars               service metrics
//
// SIGTERM or SIGINT drains gracefully: admission stops, every admitted
// cell finishes (bounded by -drain-timeout), then the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/hpcbench/beff/internal/cli"
	"github.com/hpcbench/beff/internal/obs"
	"github.com/hpcbench/beff/internal/serve"
)

func main() {
	c := cli.New("beffd")
	c.ServeFlags(nil)
	c.ObsFlags(nil)
	c.SweepFlags(nil)
	flag.Parse()
	c.Validate()
	if flag.NArg() > 0 {
		c.UsageErr("unexpected arguments: %v", flag.Args())
	}

	reg := obs.New()
	s, err := serve.New(serve.Config{
		Workers:       c.J,
		CacheDir:      c.CacheDir,
		NoCache:       c.NoCache,
		QueueLimit:    c.QueueLimit,
		MaxClientJobs: c.MaxClientJobs,
		MaxJobs:       c.MaxJobs,
		Registry:      reg,
	})
	c.Fatal(err)

	// The -metrics / -progress / -debug-addr surface observes the same
	// registry the service instruments live in; -debug-addr is a second
	// listener, useful when the API port is not reachable from the
	// operator's network.
	var stream *obs.Streamer
	if c.MetricsPath != "" {
		stream, err = obs.OpenStream(c.MetricsPath, reg, c.MetricsInterval)
		c.Fatal(err)
	}
	var tick *obs.Ticker
	if c.Progress {
		tick = obs.NewTicker(os.Stderr, reg, 500*time.Millisecond, cli.ProgressLine)
	}
	if c.DebugAddr != "" {
		addr, _, err := obs.Serve(c.DebugAddr, reg)
		c.Fatal(err)
		fmt.Fprintf(os.Stderr, "beffd: serving metrics at http://%s/metrics\n", addr)
	}

	ln, err := net.Listen("tcp", c.Addr)
	c.Fatal(err)
	srv := &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 5 * time.Second}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	if cache := s.Cache(); cache != nil {
		fmt.Fprintf(os.Stderr, "beffd: cache at %s\n", cache.Dir())
		if err := cache.ReadOnly(); err != nil {
			fmt.Fprintf(os.Stderr, "beffd: cache read-only, results will not be saved: %v\n", err)
		}
	}
	fmt.Fprintf(os.Stderr, "beffd: listening on http://%s\n", ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		c.Fatal(err)
	case got := <-sig:
		fmt.Fprintf(os.Stderr, "beffd: %v: draining (timeout %v)\n", got, c.DrainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), c.DrainTimeout)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "beffd: drain incomplete: %v\n", err)
		srv.Close()
		os.Exit(1)
	}
	srv.Shutdown(ctx)
	if tick != nil {
		tick.Stop()
	}
	if stream != nil {
		c.Fatal(stream.Close())
	}
	fmt.Fprintln(os.Stderr, "beffd: drained, bye")
}
