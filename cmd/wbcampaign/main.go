// wbcampaign runs batches of whiteboard simulations — campaigns — from a
// declarative spec: protocol set × graph family × size sweep × adversary
// set × model override × seed range, expanded into a job matrix and
// executed on a sharded worker pool with live progress. The report (JSON
// and optionally CSV) aggregates per-cell outcome counts and round /
// board-bit distributions, and is byte-identical for any worker count.
// Specs with "mode": "exhaustive" enumerate every adversarial schedule per
// cell (engine.RunAllMemo) instead of sampling adversaries.
//
// Subcommands wire the persistent result store and the wbserve job API —
// the CLI is one of three clients (with the Go SDK and HTTP) of the same
// public campaign API (repro/campaign, repro/registry, repro/store):
//
//	wbcampaign run  -spec examples/campaigns/smoke.json -store
//	wbcampaign run  -spec ... -push http://host:8080     # publish to wbserve
//	wbcampaign run  -spec ... -remote http://host:8080   # execute ON wbserve
//	wbcampaign run  -spec ... -workers http://a:8080,http://b:8080
//	                                  # shard across a wbserve worker fleet
//	wbcampaign list
//	wbcampaign diff                  # latest two runs of the newest spec
//	wbcampaign diff run-001 run-002  # explicit refs, -json for machines
//	wbcampaign gc -keep 5            # prune old runs, keeping 5 per spec
//	wbcampaign export -out store.jsonl   # archive the store as JSON lines
//	wbcampaign import store.jsonl        # merge an archive into the store
//
// `run` without a subcommand word keeps working for compatibility:
//
//	wbcampaign -spec examples/campaigns/smoke.json
//	wbcampaign -protocols bfs,mis -graphs gnp,tree -sizes 8,16 -seeds 5
//
// -remote submits the spec to a wbserve job endpoint (POST
// /api/v1/campaigns), follows the job's per-cell SSE stream, and exits
// when the report is stored server-side — byte-identical to a local run
// of the same spec. A stream that fails for good (a server without the
// events route, a connection lost past the client's retries) exits 1
// naming the job. An interrupt (^C) mid-run cancels the job server-side
// and exits 1. diff exits 0 when the reports agree (including the
// nothing-to-compare case of a store holding fewer than two runs of a
// spec), 1 when any cell differs, 2 on errors — fit for CI regression
// gates. gc refuses to remove caller-labeled runs unless -force is set.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/campaign"
	"repro/client"
	"repro/fabric"
	"repro/internal/jsonindent"
	"repro/internal/telemetry"
	"repro/registry"
	"repro/store"
)

const defaultStoreDir = ".wbstore"

func main() {
	args := os.Args[1:]
	if len(args) > 0 {
		switch args[0] {
		case "run":
			runCmd(args[1:])
			return
		case "list":
			listCmd(args[1:])
			return
		case "diff":
			diffCmd(args[1:])
			return
		case "gc":
			gcCmd(args[1:])
			return
		case "export":
			exportCmd(args[1:])
			return
		case "import":
			importCmd(args[1:])
			return
		case "help", "-h", "-help", "--help":
			usage(os.Stdout)
			return
		}
		if !strings.HasPrefix(args[0], "-") {
			fmt.Fprintf(os.Stderr, "wbcampaign: unknown subcommand %q\n\n", args[0])
			usage(os.Stderr)
			os.Exit(2)
		}
	}
	// Bare flags mean `run`, as before the store existed.
	runCmd(args)
}

func usage(w *os.File) {
	fmt.Fprint(w, `usage: wbcampaign [run|list|diff|gc|export|import] [flags]

  run     execute a campaign spec (default when flags are given directly)
  list    list runs stored with `+"`run -store`"+`
  diff    compare two stored runs cell by cell (exit 1 when they differ)
  gc      prune stored runs, keeping the newest N per spec
  export  write every stored run as a portable JSON-lines archive
  import  add the runs of an archive to the store (existing runs skipped)

run flags: -spec FILE | -protocols ... -graphs ... -sizes ... [-adversaries ...]
           [-exhaustive] [-max-steps N] [-store] [-dir DIR]
           [-push URL] [-remote URL] [-label L] [-workers N|URL1,URL2,...]
           [-shards K] [-out FILE] [-csv FILE] [-trace FILE] [-metrics-out FILE]
           [-log-level L] [-log-format F] [-quiet]
list flags: [-dir DIR]
diff flags: [-dir DIR] [-json] [REF_OLD REF_NEW]
gc flags:   -keep N [-dir DIR] [-force] [-quiet]
export flags: [-dir DIR] [-out FILE]    (default: archive to stdout)
import flags: [-dir DIR] [FILE]         (default: archive from stdin)
`)
}

func runCmd(args []string) {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	var (
		specPath   = fs.String("spec", "", "JSON spec file; axis flags below are ignored when set")
		protos     = fs.String("protocols", "bfs", "comma-separated protocols: "+registry.FlagHelp(registry.Protocols()))
		graphs     = fs.String("graphs", "gnp", "comma-separated graphs: "+registry.FlagHelp(registry.Graphs()))
		advs       = fs.String("adversaries", "min", "comma-separated adversaries: "+registry.FlagHelp(registry.Adversaries()))
		sizes      = fs.String("sizes", "8,16", "comma-separated node counts")
		models     = fs.String("models", "native", "comma-separated model overrides: native|SIMASYNC|SIMSYNC|ASYNC|SYNC")
		seeds      = fs.Int("seeds", 1, "trials per cell")
		baseSeed   = fs.Int64("base-seed", 0, "base seed mixed into every derived job seed")
		k          = fs.Int("k", 2, "degeneracy bound / MIS root / subgraph prefix length")
		p          = fs.Float64("p", 0.3, "edge probability for random graphs")
		exhaustive = fs.Bool("exhaustive", false, "enumerate every adversarial schedule per cell (ignores -adversaries; small n only)")
		maxSteps   = fs.Int("max-steps", 0, "per-job write budget in exhaustive mode; 0 = default")
		workers    = fs.String("workers", "0", "worker goroutines (0 = GOMAXPROCS), or comma-separated wbserve URLs to run the campaign on a distributed worker fleet")
		shards     = fs.Int("shards", 0, "with -workers URLs: contiguous cell-range shards to split the matrix into; 0 = one per worker")
		metricsOut = fs.String("metrics-out", "", "write the run's Prometheus metrics exposition to this file")
		out        = fs.String("out", "", "JSON report path; empty = stdout (unless -store)")
		csvPath    = fs.String("csv", "", "also write a CSV report here")
		toStore    = fs.Bool("store", false, "persist the report in the result store for later list/diff")
		dir        = fs.String("dir", defaultStoreDir, "result store directory (with -store)")
		push       = fs.String("push", "", "publish the report to a wbserve base URL (e.g. http://host:8080)")
		remote     = fs.String("remote", "", "execute the campaign ON a wbserve base URL: submit the spec as a job, follow its event stream to completion")
		label      = fs.String("label", "", "store label, e.g. from git describe; empty = auto run-NNN")
		quiet      = fs.Bool("quiet", false, "suppress the live progress line and summary")
		traceOut   = fs.String("trace", "", "write the run's span tree (job → shard → cell → engine) to this JSON file; with -remote it is fetched from the server's trace endpoint")
		logLevel   = fs.String("log-level", "warn", "structured log level: debug|info|warn|error (info logs a run summary, debug logs per cell)")
		logFormat  = fs.String("log-format", "text", "structured log format: text|json")
	)
	fs.Parse(args)
	if fs.NArg() != 0 {
		// Without this, `wbcampaign run my-spec.json` (forgotten -spec flag)
		// would silently run the built-in default campaign.
		fmt.Fprintf(os.Stderr, "wbcampaign run: unexpected argument %q (did you mean -spec %s?)\n", fs.Arg(0), fs.Arg(0))
		os.Exit(2)
	}
	workerURLs, workerN, err := parseWorkers(*workers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "wbcampaign run: %v\n", err)
		os.Exit(2)
	}
	if len(workerURLs) > 0 {
		if *traceOut != "" {
			// A fleet run has no single span tree: each shard is traced by the
			// worker that ran it. Refuse rather than write an empty file.
			fmt.Fprintln(os.Stderr, "wbcampaign run: -trace conflicts with a -workers URL fleet (shard traces live on the workers)")
			os.Exit(2)
		}
	} else if *shards != 0 {
		fmt.Fprintln(os.Stderr, "wbcampaign run: -shards requires -workers with wbserve URLs")
		os.Exit(2)
	}
	if *remote != "" {
		// A remote run executes and stores server-side; flags that demand a
		// local execution product would be silently dead, so refuse them.
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "store", "dir", "push", "workers", "shards", "metrics-out":
				fmt.Fprintf(os.Stderr, "wbcampaign run: -%s conflicts with -remote (the report is produced and stored server-side)\n", f.Name)
				os.Exit(2)
			}
		})
	}
	if !*toStore && *remote == "" {
		// -dir only matters with -store, and -label needs a destination
		// (-store, -push or -remote); accepting them silently would let a
		// forgotten -store look like a persisted run.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "dir" || (f.Name == "label" && *push == "") {
				fmt.Fprintf(os.Stderr, "wbcampaign run: -%s requires -store\n", f.Name)
				os.Exit(2)
			}
		})
	}

	var spec campaign.Spec
	if *specPath != "" {
		// The spec file is the whole configuration; a spec-building flag set
		// alongside it would be silently ignored, so make that an error
		// (-exhaustive in particular would otherwise look applied but not be).
		specOnly := map[string]bool{"protocols": true, "graphs": true, "adversaries": true,
			"sizes": true, "models": true, "seeds": true, "base-seed": true, "k": true,
			"p": true, "exhaustive": true, "max-steps": true}
		fs.Visit(func(f *flag.Flag) {
			if specOnly[f.Name] {
				fmt.Fprintf(os.Stderr, "wbcampaign run: -%s conflicts with -spec (put it in the spec file)\n", f.Name)
				os.Exit(2)
			}
		})
		var err error
		spec, err = campaign.LoadSpec(*specPath)
		if err != nil {
			fail(err)
		}
	} else {
		ns, err := parseSizes(*sizes)
		if err != nil {
			fail(err)
		}
		spec = campaign.Spec{
			Protocols:   splitList(*protos),
			Graphs:      splitList(*graphs),
			Adversaries: splitList(*advs),
			Models:      splitList(*models),
			Sizes:       ns,
			Seeds:       *seeds,
			BaseSeed:    *baseSeed,
			K:           *k,
			P:           *p,
			MaxSteps:    *maxSteps,
		}
		if *exhaustive {
			spec.Mode = campaign.ModeExhaustive
			spec.Adversaries = nil
		}
	}

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fail(err)
	}

	if *remote != "" {
		// ^C during a remote run must not abandon the job server-side: the
		// context cancels the stream and runRemote POSTs a cancel.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		if err := runRemote(ctx, *remote, spec, *label, *quiet, *out, *csvPath, *traceOut); err != nil {
			fail(err)
		}
		return
	}

	set := telemetry.NewSet()
	runStart := time.Now()
	var rep *campaign.Report
	if len(workerURLs) > 0 {
		// Fleet mode: the fabric coordinator shards the matrix across the
		// workers and assembles the report client-side, so the regular
		// -store/-push/-out tail below applies to it unchanged.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		rep, err = runFleet(ctx, workerURLs, *shards, spec, *quiet, set, logger)
		if err != nil {
			fail(err)
		}
	} else {
		opts := campaign.Options{Workers: workerN, Metrics: set.Campaign, OnCellDone: cellProgress(*quiet, logger)}
		// A local -trace runs the sweep under an in-process tracer and dumps
		// the same span-tree document the server's trace route serves.
		ctx := context.Background()
		var tracer *telemetry.Tracer
		const localTraceID = "local"
		if *traceOut != "" {
			tracer = telemetry.NewTracer(telemetry.DefaultSpanCapacity)
			ctx = telemetry.WithTrace(ctx, tracer, localTraceID)
		}
		ctx, root := telemetry.StartSpan(ctx, "job")
		rep, err = campaign.RunContext(ctx, spec, opts)
		root.End()
		if err != nil {
			fail(err)
		}
		if *traceOut != "" {
			spans, dropped := tracer.Trace(localTraceID)
			if err := writeTrace(*traceOut, localTraceID, dropped, spans); err != nil {
				fail(err)
			}
		}
	}
	logger.Info("campaign complete", "jobs", rep.Jobs, "cells", len(rep.Cells),
		"success", rep.Totals.Success, "deadlock", rep.Totals.Deadlock,
		"failed", rep.Totals.Failed, "elapsed", time.Since(runStart).Round(time.Millisecond).String())
	if !*quiet {
		fmt.Fprintln(os.Stderr, rep.Summary())
	}
	if *metricsOut != "" {
		if err := writeMetricsFile(set.Registry, *metricsOut); err != nil {
			fail(err)
		}
	}

	if *toStore {
		st, err := store.Open(*dir)
		if err != nil {
			fail(err)
		}
		entry, err := st.Save(rep, *label)
		if err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "stored %s (seq %d) in %s\n", entry.Ref(), entry.Seq, *dir)
		}
	}
	if *push != "" {
		entry, err := pushReport(*push, rep, *label)
		if err != nil {
			fail(err)
		}
		if !*quiet {
			fmt.Fprintf(os.Stderr, "pushed %s to %s\n", entry.Ref(), *push)
		}
	}
	// With a store destination and no -out the store is the destination;
	// skip the stdout dump so `run -store` twice then `diff` (or a `-push`
	// into a served store) composes quietly in scripts.
	if *out == "" && (*toStore || *push != "") {
		if *csvPath != "" {
			writeCSV(rep, *csvPath)
		}
		return
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fail(err)
	}
	if *csvPath != "" {
		writeCSV(rep, *csvPath)
	}
}

func writeCSV(rep *campaign.Report, path string) {
	f, err := os.Create(path)
	if err != nil {
		fail(err)
	}
	defer f.Close()
	if err := rep.WriteCSV(f); err != nil {
		fail(err)
	}
}

func listCmd(args []string) {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	dir := fs.String("dir", defaultStoreDir, "result store directory")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "wbcampaign list: takes no arguments")
		os.Exit(2)
	}
	st, err := store.Open(*dir)
	if err != nil {
		fail(err)
	}
	entries, err := st.List()
	if err != nil {
		fail(err)
	}
	if len(entries) == 0 {
		fmt.Printf("store %s is empty (populate it with `wbcampaign run -store`)\n", *dir)
		return
	}
	fmt.Printf("%-4s %-13s %-12s %-10s %6s %6s %s\n", "SEQ", "SPEC", "LABEL", "MODE", "JOBS", "CELLS", "NAME")
	for _, e := range entries {
		fmt.Printf("%-4d %-13s %-12s %-10s %6d %6d %s\n",
			e.Seq, e.SpecHash, e.Label, e.Mode, e.Jobs, e.Cells, e.Name)
	}
}

func diffCmd(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	dir := fs.String("dir", defaultStoreDir, "result store directory")
	asJSON := fs.Bool("json", false, "emit the diff as JSON instead of text")
	fs.Parse(args)
	if fs.NArg() != 0 && fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "wbcampaign diff: want zero refs (latest two of newest spec) or exactly two")
		os.Exit(2)
	}
	st, err := store.Open(*dir)
	if err != nil {
		faild(err)
	}
	code, err := runDiff(st, fs.Args(), *asJSON, os.Stdout)
	if err != nil {
		faild(err)
	}
	os.Exit(code)
}

// runDiff compares two stored runs and writes the rendering to w,
// returning the process exit code: 0 when the reports agree — or when the
// store simply does not yet hold two runs of a spec, which is a state to
// report, not an error to fail a pipeline on — and 1 on any cell delta.
// Operational failures (unreadable store, bad refs) return an error; the
// caller maps those to exit 2.
func runDiff(st *store.Store, refs []string, asJSON bool, w io.Writer) (int, error) {
	var (
		oldEntry, newEntry store.Entry
		oldRep, newRep     *campaign.Report
		err                error
	)
	if len(refs) == 0 {
		oldEntry, newEntry, err = st.LatestPair()
		if errors.Is(err, store.ErrNeedTwoRuns) {
			fmt.Fprintf(w, "nothing to diff yet: %v\n(store two runs with `wbcampaign run -store`, then diff)\n", err)
			return 0, nil
		}
		if err != nil {
			return 0, err
		}
		if oldRep, err = st.LoadEntry(oldEntry); err != nil {
			return 0, err
		}
		if newRep, err = st.LoadEntry(newEntry); err != nil {
			return 0, err
		}
	} else {
		if oldRep, oldEntry, err = st.Load(refs[0]); err != nil {
			return 0, err
		}
		if newRep, newEntry, err = st.Load(refs[1]); err != nil {
			return 0, err
		}
	}
	d := store.DiffReports(oldRep, newRep)
	d.OldRef, d.NewRef = oldEntry.Ref(), newEntry.Ref()
	format := "text"
	if asJSON {
		format = "json"
	}
	if err := d.Render(w, format); err != nil {
		return 0, err
	}
	if !d.Empty() {
		return 1, nil
	}
	return 0, nil
}

// gcCmd prunes stored runs: all but the newest -keep per spec group.
// Caller-labeled runs pin the pass unless -force is set, so a tagged
// baseline ("v1.2-3-gabc123") can never be collected by accident.
func gcCmd(args []string) {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	dir := fs.String("dir", defaultStoreDir, "result store directory")
	keep := fs.Int("keep", 0, "runs to keep per spec group (required, ≥ 1)")
	force := fs.Bool("force", false, "also remove caller-labeled runs")
	quiet := fs.Bool("quiet", false, "suppress the per-run removal listing")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "wbcampaign gc: takes no arguments")
		os.Exit(2)
	}
	if *keep < 1 {
		fmt.Fprintln(os.Stderr, "wbcampaign gc: -keep N is required (N ≥ 1)")
		os.Exit(2)
	}
	st, err := store.Open(*dir)
	if err != nil {
		fail(err)
	}
	res, err := st.GC(*keep, *force)
	if err != nil {
		fail(err)
	}
	if !*quiet {
		for _, e := range res.Removed {
			fmt.Printf("removed %s (seq %d)\n", e.Ref(), e.Seq)
		}
	}
	fmt.Printf("gc: removed %d runs, kept %d (keep %d per spec)\n", len(res.Removed), res.Kept, *keep)
}

// exportCmd streams the whole store as a JSON-lines archive — one wire
// envelope per run — to stdout or -out, for backup and cross-machine
// moves; `import` is its inverse.
func exportCmd(args []string) {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	dir := fs.String("dir", defaultStoreDir, "result store directory")
	out := fs.String("out", "", "archive path; empty = stdout")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "wbcampaign export: takes no arguments")
		os.Exit(2)
	}
	st, err := store.Open(*dir)
	if err != nil {
		fail(err)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	n, err := st.Export(w)
	if err != nil {
		fail(err)
	}
	if *out != "" {
		fmt.Fprintf(os.Stderr, "exported %d runs from %s to %s\n", n, *dir, *out)
	} else {
		fmt.Fprintf(os.Stderr, "exported %d runs from %s\n", n, *dir)
	}
}

// importCmd reads an export archive (a file argument or stdin) into the
// store; runs already present are skipped, so re-importing is safe.
func importCmd(args []string) {
	fs := flag.NewFlagSet("import", flag.ExitOnError)
	dir := fs.String("dir", defaultStoreDir, "result store directory")
	fs.Parse(args)
	if fs.NArg() > 1 {
		fmt.Fprintln(os.Stderr, "wbcampaign import: want one archive file (or stdin)")
		os.Exit(2)
	}
	r := io.Reader(os.Stdin)
	if fs.NArg() == 1 && fs.Arg(0) != "-" {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			fail(err)
		}
		defer f.Close()
		r = f
	}
	st, err := store.Open(*dir)
	if err != nil {
		fail(err)
	}
	res, err := st.Import(r)
	if err != nil {
		// Partial progress is real progress: say what landed before failing.
		fmt.Fprintf(os.Stderr, "wbcampaign import: %d runs added, %d skipped before error\n", res.Added, res.Skipped)
		fail(err)
	}
	fmt.Printf("imported %d runs into %s (%d already present)\n", res.Added, *dir, res.Skipped)
}

// runRemote executes a campaign on a wbserve instance through the v1 job
// API: submit the spec, follow the job's per-cell SSE stream to its
// terminal state frame, and optionally download the stored report —
// byte-identical to a local run — into -out/-csv. A stream that fails for
// good returns an error naming the job. Cancelling ctx (the CLI wires
// SIGINT to it) cancels the job server-side before returning, so an
// interrupted run does not leave the server's worker pool grinding on
// abandoned work.
func runRemote(ctx context.Context, baseURL string, spec campaign.Spec, label string, quiet bool, out, csvPath, tracePath string) error {
	c := client.New(baseURL, client.Options{})
	job, err := c.Submit(ctx, spec, label)
	if err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "submitted %s to %s (%d cells)\n", job.ID, c.BaseURL(), job.CellsTotal)
	}

	done := 0
	for ev, err := range c.Events(ctx, job.ID, 0) {
		if err != nil {
			if ctx.Err() != nil {
				return cancelRemoteJob(c, job.ID, ctx.Err())
			}
			return fmt.Errorf("remote: following job %s on %s: %w", job.ID, c.BaseURL(), err)
		}
		switch ev.Type {
		case "cell":
			done++
			if !quiet {
				fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, ev.Cell.Total)
			}
		case "state":
			job = *ev.Job
		}
	}
	if !quiet {
		fmt.Fprintln(os.Stderr)
	}
	if job.State != client.StateDone {
		return fmt.Errorf("remote: job %s ended %s: %s", job.ID, job.State, job.Error)
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "remote stored %s on %s\n", job.Ref, c.BaseURL())
	}
	if out != "" {
		if err := fetchRendered(ctx, c, job.Ref, "", out); err != nil {
			return err
		}
	}
	if csvPath != "" {
		if err := fetchRendered(ctx, c, job.Ref, "csv", csvPath); err != nil {
			return err
		}
	}
	if tracePath != "" {
		// The server traced the job while it ran; its trace route serves the
		// same document a local -trace writes.
		data, err := c.Trace(ctx, job.ID)
		if err != nil {
			return fmt.Errorf("remote: fetching trace: %w", err)
		}
		if err := os.WriteFile(tracePath, data, 0o644); err != nil {
			return fmt.Errorf("remote: %w", err)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "trace of %s written to %s\n", job.ID, tracePath)
		}
	}
	return nil
}

// cancelRemoteJob handles an interrupted remote run: without the cancel
// POST, ^C would leave the job burning the server's worker pool. It uses
// a fresh context — the interrupted one is already dead — and always
// returns a non-nil error so the process exits non-zero.
func cancelRemoteJob(c *client.Client, id string, cause error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Cancel(ctx, id); err != nil {
		return fmt.Errorf("remote: %v; canceling job %s failed: %w", cause, id, err)
	}
	return fmt.Errorf("remote: interrupted (%v); canceled job %s server-side", cause, id)
}

// writeTrace dumps a local run's span tree in the same shape the server's
// trace route serves, so downstream tooling reads both alike.
func writeTrace(path, traceID string, dropped int64, spans []telemetry.SpanRecord) error {
	data, err := jsonindent.Marshal(map[string]any{
		"trace": traceID, "dropped": dropped, "spans": spans,
	})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// fetchRendered downloads one rendered report representation to a file.
func fetchRendered(ctx context.Context, c *client.Client, ref, format, path string) error {
	data, err := c.Report(ctx, ref, format)
	if err != nil {
		return fmt.Errorf("remote: fetching report: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("remote: %w", err)
	}
	return nil
}

// parseWorkers reads the dual-mode -workers flag: a plain integer is a
// local goroutine count (the historical meaning), anything else is a
// comma-separated list of wbserve base URLs naming a distributed fleet.
func parseWorkers(s string) (urls []string, n int, err error) {
	if s == "" {
		return nil, 0, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n < 0 {
			return nil, 0, fmt.Errorf("bad -workers %d: want a count ≥ 0 or wbserve URLs", n)
		}
		return nil, n, nil
	}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if !strings.HasPrefix(part, "http://") && !strings.HasPrefix(part, "https://") {
			return nil, 0, fmt.Errorf("bad -workers entry %q: want a goroutine count or comma-separated http(s) URLs", part)
		}
		urls = append(urls, part)
	}
	if len(urls) == 0 {
		return nil, 0, fmt.Errorf("bad -workers %q: no worker URLs", s)
	}
	return urls, 0, nil
}

// runFleet executes the campaign across a pool of wbserve workers via
// the fabric coordinator. Seeds derive from job coordinates, so the
// assembled report is byte-identical to a local run of the same spec.
func runFleet(ctx context.Context, urls []string, shards int, spec campaign.Spec, quiet bool, set *telemetry.Set, logger *slog.Logger) (*campaign.Report, error) {
	opts := fabric.Options{
		Workers: urls,
		Shards:  shards,
		Metrics: set.Fabric,
		Logf: func(format string, args ...any) {
			logger.Info(fmt.Sprintf(format, args...))
		},
	}
	if !quiet {
		fmt.Fprintf(os.Stderr, "fleet run across %d workers\n", len(urls))
	}
	opts.OnCellDone = cellProgress(quiet, logger)
	rep, err := fabric.Run(ctx, spec, opts)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return rep, nil
}

// cellProgress is the OnCellDone hook of local and fleet runs: it counts
// cells in completion order for the live "N/T cells" line and logs each
// at debug level. Hooks fire concurrently, so it serializes both.
func cellProgress(quiet bool, logger *slog.Logger) func(campaign.CellResult) {
	var mu sync.Mutex
	done := 0
	return func(cr campaign.CellResult) {
		mu.Lock()
		defer mu.Unlock()
		done++
		logger.Debug("cell done", "index", cr.Index, "total", cr.Total,
			"protocol", cr.Cell.Protocol, "graph", cr.Cell.Graph, "n", cr.Cell.N)
		if quiet {
			return
		}
		fmt.Fprintf(os.Stderr, "\r%d/%d cells", done, cr.Total)
		if done == cr.Total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// writeMetricsFile dumps the run's Prometheus exposition, so scripts and
// CI can assert on counters (fleet resubmissions, dedups) after exit.
func writeMetricsFile(r *telemetry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return r.WriteText(f)
}

// pushReport publishes a finished report to a wbserve ingest endpoint,
// returning the entry the server stored it under.
func pushReport(baseURL string, rep *campaign.Report, label string) (store.Entry, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	entry, err := client.New(baseURL, client.Options{}).Ingest(ctx, rep, label)
	if err != nil {
		return store.Entry{}, fmt.Errorf("push: %w", err)
	}
	return entry, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "wbcampaign:", err)
	os.Exit(1)
}

// faild is fail for the diff subcommand, whose exit code 1 is reserved for
// "reports differ"; operational errors exit 2.
func faild(err error) {
	fmt.Fprintln(os.Stderr, "wbcampaign:", err)
	os.Exit(2)
}

// splitList splits a comma-separated flag, but keeps colon-arguments with
// embedded commas intact: "min,scripted:3,1,2" would be ambiguous, so list
// entries that open a colon-argument consume the following numeric items
// ("scripted:3,1,2" stays one adversary).
func splitList(s string) []string {
	parts := strings.Split(s, ",")
	var out []string
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		// A purely numeric item continues the previous entry's colon-argument.
		if len(out) > 0 && strings.Contains(out[len(out)-1], ":") {
			if _, err := strconv.Atoi(part); err == nil {
				out[len(out)-1] += "," + part
				continue
			}
		}
		out = append(out, part)
	}
	return out
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad size %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}
