// wbserve serves one or more campaign result stores over HTTP — the
// read side of `wbcampaign run -store` and, since the v1 job API, a
// write surface too: POST /api/v1/campaigns submits a campaign spec as
// an asynchronous job executed in-process, with per-cell progress,
// cancellation, and the finished report stored where every read route
// serves it. Reports and diffs are immutable and content-addressed, so
// every response carries a strong ETag, repeat requests answer 304 Not
// Modified, and rendered diffs come from an in-memory LRU instead of
// being recomputed.
//
//	wbserve -dir .wbstore                      # serve one store on :8080
//	wbserve -dir .wbstore,.wbstore-exh -addr :9090
//	wbserve -dir /srv/wbstore -readonly        # disable ingest + job submission
//
// Routes: GET /api/v1/reports (list, filterable, paginated), GET
// /api/v1/reports/{hash}/{label} (JSON or CSV), GET /api/v1/diff (text
// or JSON, cached), POST /api/v1/reports (ingest; see `wbcampaign run
// -push`), POST/GET /api/v1/campaigns (+/{id}, /{id}/cancel — see
// `wbcampaign run -remote`), GET /api/v1/campaigns/{id}/events (SSE
// stream of per-cell results as they complete; Last-Event-ID resumes,
// late subscribers replay, slow consumers are evicted rather than
// stalling the sweep), GET /watch/{id} (embedded live-sweep page over
// that stream), GET /api/v1/trace/{id} (span tree of a job), GET
// /healthz, GET /metrics (every wb_* family, Prometheus text).
// Structured request, job and store-failure logs go to stderr
// (-log-level, -log-format; store failures at error level), and
// -debug-addr serves net/http/pprof on a separate listener. The process
// shuts down gracefully on SIGINT/SIGTERM, draining in-flight requests
// and canceling in-flight campaign jobs (their status reads "canceled",
// and no partial report touches the store), then logs one structured
// summary line with the lifetime job counts and the drain duration.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address (host:port; :0 picks a free port)")
		dirs       = flag.String("dir", ".wbstore", "comma-separated result store directories; the first receives ingested reports and job results")
		readonly   = flag.Bool("readonly", false, "disable report ingest and campaign job submission")
		jobWorkers = flag.Int("job-workers", 0, "campaign worker pool per submitted job; 0 = GOMAXPROCS")
		logLevel   = flag.String("log-level", "info", "structured log level: debug|info|warn|error")
		logFormat  = flag.String("log-format", "text", "structured log format: text|json")
		debugAddr  = flag.String("debug-addr", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty disables it")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "wbserve: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fail(err)
	}

	var stores []*resultstore.Store
	for _, dir := range strings.Split(*dirs, ",") {
		dir = strings.TrimSpace(dir)
		if dir == "" {
			continue
		}
		st, err := resultstore.Open(dir)
		if err != nil {
			fail(err)
		}
		stores = append(stores, st)
	}
	srv, err := server.New(server.Options{
		Stores:     stores,
		ReadOnly:   *readonly,
		JobWorkers: *jobWorkers,
		Logger:     logger,
	})
	if err != nil {
		fail(err)
	}

	// The profiler gets its own mux on its own listener: pprof must never
	// ride the public handler, where it would be one reverse-proxy
	// misconfiguration away from the internet.
	if *debugAddr != "" {
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fail(err)
		}
		logger.Info("pprof listening", "addr", dln.Addr().String())
		go func() {
			if err := http.Serve(dln, dmux); err != nil {
				logger.Error("pprof listener failed", "err", err)
			}
		}()
	}

	// Listen before announcing, so -addr :0 can print the real port and a
	// taken port fails before anything claims to be serving.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "wbserve: serving %s on http://%s\n", *dirs, ln.Addr())

	select {
	case err := <-errc:
		// Serve only returns on failure; ErrServerClosed cannot arrive here
		// before a shutdown is requested.
		fail(err)
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately
	fmt.Fprintln(os.Stderr, "wbserve: shutting down")
	drainStart := time.Now()
	sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	// Drain campaign jobs first — cancellation reaches their sweeps
	// immediately and each records a terminal "canceled" status — then let
	// the HTTP server finish in-flight requests (including status polls
	// observing those cancellations).
	if err := srv.Shutdown(sctx); err != nil {
		fmt.Fprintln(os.Stderr, "wbserve:", err)
	}
	if err := httpSrv.Shutdown(sctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fail(err)
	}
	submitted, done, failed, canceled := srv.Telemetry().Jobs.Counts()
	logger.Info("shutdown complete",
		"jobs_submitted", submitted, "jobs_done", done,
		"jobs_failed", failed, "jobs_canceled", canceled,
		"drain_ms", float64(time.Since(drainStart).Microseconds())/1000)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wbserve:", err)
	os.Exit(1)
}
