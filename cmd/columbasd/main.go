// Command columbasd serves the Columba S synthesis flow over HTTP. The
// primary surface is the v2 job API — POST /v2/jobs accepts a job and
// answers 202, GET /v2/jobs/{id} reports it, /events streams SSE
// progress, DELETE cancels the in-flight MILP solve — in front of a
// bounded solver pool with admission control (bounded queue,
// deadline-aware shedding with Retry-After), a content-addressed result
// cache, a TTL-collected job store, and graceful shutdown that drains
// running solves. POST /v1/synthesize remains as a synchronous wrapper
// over the same job path. See docs/api.md for the endpoint contract.
//
// Usage:
//
//	columbasd -addr :8080
//	columbasd -addr :8080 -jobs 4 -workers 2 -cache 256
//	columbasd -addr :8080 -queue 16 -job-ttl 10m
//	columbasd -addr :8080 -trace-log traces.jsonl
//
// Operational endpoints: GET /healthz (liveness: always 200), GET
// /readyz (readiness: 503 with Retry-After while draining), GET
// /v1/stats (pool, admission, job-store, request and cache counters),
// GET /v1/formats (the export format registry). SIGINT/SIGTERM starts a
// graceful drain bounded by -drain; async jobs still running past the
// HTTP shutdown are awaited for the same budget.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"columbas/internal/server"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "columbasd:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0), "max concurrent synthesis jobs")
		queue    = flag.Int("queue", 0, "admission queue bound past the pool (0: 8x jobs, -1: no queue)")
		jobTTL   = flag.Duration("job-ttl", 0, "retention of finished job resources (0: 5m, -1s: keep forever)")
		workers  = flag.Int("workers", 1, "MILP branch-and-bound workers per job (-1: all cores)")
		cacheN   = flag.Int("cache", 128, "result cache capacity in designs (-1: disable)")
		timeout  = flag.Duration("timeout", 2*time.Minute, "default per-request synthesis deadline (-1s: none)")
		maxTime  = flag.Duration("max-time", 5*time.Minute, "cap on the per-request ?time= MILP budget")
		maxBody  = flag.Int64("max-body", 1<<20, "max netlist source size in bytes")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget for in-flight solves")
		traceLog = flag.String("trace-log", "", "append one columbas-trace/v1 JSON line per request to this file")
		noPre    = flag.Bool("no-presolve", false, "disable MILP presolve (bound tightening, redundant rows, coefficient strengthening) (ablation)")
		noDelta  = flag.Bool("no-delta", false, "disable the delta-aware warm-start pipeline: no similarity-index donors, every solve cold (ablation)")
	)
	flag.Parse()

	if *jobs < 1 {
		return fmt.Errorf("-jobs must be at least 1, got %d", *jobs)
	}
	if *workers == 0 || *workers < -1 {
		return fmt.Errorf("-workers must be -1 (all cores) or at least 1, got %d", *workers)
	}
	if *cacheN < -1 {
		return fmt.Errorf("-cache must be -1 (disable), 0 (default) or a capacity, got %d", *cacheN)
	}

	cfg := server.Config{
		Jobs:           *jobs,
		MaxQueue:       *queue,
		JobTTL:         *jobTTL,
		Workers:        *workers,
		CacheEntries:   *cacheN,
		DefaultTimeout: *timeout,
		MaxLayoutTime:  *maxTime,
		MaxBodyBytes:   *maxBody,
		NoPresolve:     *noPre,
		NoDelta:        *noDelta,
	}
	if *traceLog != "" {
		f, err := os.OpenFile(*traceLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		defer f.Close()
		cfg.TraceSink = f
	}
	srv := server.New(cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "columbasd: listening on %s (%d job(s) x %d worker(s), cache %d)\n",
			*addr, *jobs, *workers, *cacheN)
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		return err // ListenAndServe failed outright (e.g. bind error)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "columbasd: draining in-flight solves...")
	srv.Drain()
	shCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Async jobs are detached from their submitting connections, so the
	// HTTP shutdown above does not imply the pool is idle. Wait for the
	// remaining solves inside the same drain budget.
	if err := srv.WaitIdle(shCtx); err != nil {
		return fmt.Errorf("draining async jobs: %w", err)
	}
	fmt.Fprintln(os.Stderr, "columbasd: drained, bye")
	return nil
}
