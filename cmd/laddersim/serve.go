package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"ladder/internal/introspect"
	"ladder/internal/service"
)

// runServe turns the process into the long-running simulation service
// (docs/SERVICE.md): the job-queue API mounted on the introspection
// server on addr — one listener carrying /jobs alongside /debug/pprof/,
// the live /service and /metrics documents, and /stats — until the
// signal context cancels.
func runServe(ctx context.Context, stdout io.Writer, addr string, cfg service.Config) error {
	srv, err := introspect.New(addr)
	if err != nil {
		return fmt.Errorf("introspection server on %s: %w", addr, err)
	}
	svc, err := service.New(cfg)
	if err != nil {
		_ = srv.Close()
		return fmt.Errorf("service failed to start (state dir %q): %w", cfg.StateDir, err)
	}
	for _, pattern := range svc.Routes() {
		srv.Handle(pattern, svc.Handler())
	}
	// Function-backed documents: re-evaluated per scrape, so queue and
	// cache counters are always current (unlike the per-run snapshots a
	// single simulation publishes at its progress cadence).
	srv.PublishFunc("service", func() any { return svc.StatsSnapshot() })
	srv.PublishFunc("metrics", func() any { return svc.MetricsSnapshot() })

	fmt.Fprintf(stdout, "laddersim service   http://%s/jobs (introspection at /, pprof under /debug/pprof/)\n", srv.Addr())
	cfg.Logger.Info("service listening", "addr", srv.Addr())
	<-ctx.Done()
	cfg.Logger.Info("shutting down", "reason", "signal", "drain", "in-flight job finishes its grid cells")

	// Stop the executor first so no new job starts, then drain HTTP with
	// a bounded grace period.
	svc.Close()
	sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		_ = srv.Close()
	}
	return nil
}
