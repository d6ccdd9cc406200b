// Command msserve is the resident fleet-as-a-service daemon: it accepts
// deployment jobs as JSON over HTTP, runs many of them concurrently
// against one shared worker pool with admission control and per-job
// budgets, and streams results as NDJSON. Job results are byte-identical
// to standalone msfleet runs with the same (seed, config), so a repeat
// of a retained done job's config is served its stored result without
// simulating. The 1024 most recently finished jobs are retained.
//
// Usage:
//
//	msserve [-addr :8080] [-addr-file path] [-pool 0] [-max-running 0]
//	        [-max-queue 0] [-max-tags 0] [-max-span 0] [-max-packets 0]
//	        [-drain 30s] [-history 1s] [-history-capacity 600]
//	        [-obs :6060] [-v] [-q]
//
// SIGINT/SIGTERM drains gracefully: admission closes (503), queued and
// running jobs finish (up to -drain, then they are cancelled), streaming
// clients get their final lines, and the process exits.
//
// See docs/SERVICE.md for the job API and config schema.
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

	"multiscatter/internal/clilog"
	"multiscatter/internal/obs"
	"multiscatter/internal/obs/obsflag"
	"multiscatter/internal/serve"
)

var (
	addr       = flag.String("addr", ":8080", "HTTP listen address (use :0 for an ephemeral port)")
	addrFile   = flag.String("addr-file", "", "write the resolved listen address to this file (for scripts driving :0)")
	pool       = flag.Int("pool", 0, "shared fleet worker pool size (0 = GOMAXPROCS)")
	maxRunning = flag.Int("max-running", 0, "jobs simulated concurrently (0 = 2×GOMAXPROCS)")
	maxQueue   = flag.Int("max-queue", 0, "pending jobs admitted beyond the running ones (0 = 1024)")
	maxTags    = flag.Int("max-tags", 0, "per-job tag-count and receiver-count admission limit (0 = 10000)")
	maxSpan    = flag.Duration("max-span", 0, "per-job simulated-span admission limit (0 = 10m)")
	maxPackets = flag.Int("max-packets", 0, "default per-job packet budget (0 = 4000000)")
	drainTO    = flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM before in-flight jobs are cancelled")
	history    = flag.Duration("history", 0, "telemetry sampling interval for /metrics/history (0 = 1s)")
	historyN   = flag.Int("history-capacity", 0, "samples kept per history series (0 = 600)")
)

func main() {
	flag.Parse()
	lg := clilog.Setup("msserve")
	defer obsflag.Start("msserve")()

	mgr := serve.NewManager(serve.Config{
		PoolWorkers: *pool,
		Limits: serve.Limits{
			MaxRunning: *maxRunning,
			MaxQueue:   *maxQueue,
			MaxTags:    *maxTags,
			MaxSpan:    *maxSpan,
			MaxPackets: *maxPackets,
		},
		HistoryInterval: *history,
		HistoryCapacity: *historyN,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "msserve:", err)
		os.Exit(1)
	}
	resolved := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(resolved+"\n"), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "msserve:", err)
			os.Exit(1)
		}
	}
	lim := mgr.Limits()
	lg.Info("serving",
		"addr", resolved, "pool", mgr.Pool().Size(),
		"max_running", lim.MaxRunning, "max_queue", lim.MaxQueue,
		"max_tags", lim.MaxTags, "max_span", lim.MaxSpan, "max_packets", lim.MaxPackets)
	fmt.Fprintf(os.Stderr, "msserve: listening on http://%s\n", resolved)

	srv := &http.Server{Handler: serve.Handler(mgr, obs.Default())}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "msserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	lg.Info("draining", "budget", *drainTO, "jobs", mgr.Health().Jobs)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	mgr.Drain(drainCtx)
	cancel()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		srv.Close()
	}
	mgr.Close()
	lg.Info("drained, exiting")
}
