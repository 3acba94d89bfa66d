package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/campaign"
	"repro/internal/server"
	"repro/store"
)

func smokeReport(t *testing.T, sizes ...int) *campaign.Report {
	t.Helper()
	if len(sizes) == 0 {
		sizes = []int{4, 5}
	}
	rep, err := campaign.Run(campaign.Spec{
		Name:        "cli-test",
		Protocols:   []string{"build-forest"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min"},
		Sizes:       sizes,
	}, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestRunDiffNeedTwoRuns pins the CI-facing contract: a store holding
// fewer than two runs of a spec is a "nothing to compare yet" state —
// exit 0 with a clear message — not an opaque error.
func TestRunDiffNeedTwoRuns(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Empty store.
	var out bytes.Buffer
	code, err := runDiff(st, nil, false, &out)
	if err != nil || code != 0 {
		t.Fatalf("empty store: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "nothing to diff yet") || !strings.Contains(out.String(), "run -store") {
		t.Errorf("empty-store message not actionable:\n%s", out.String())
	}
	// One stored run.
	if _, err := st.Save(smokeReport(t), "solo"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = runDiff(st, nil, false, &out)
	if err != nil || code != 0 {
		t.Fatalf("single run: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), "nothing to diff yet") {
		t.Errorf("single-run message:\n%s", out.String())
	}
	// Explicit refs that do not resolve remain operational errors.
	if _, err := runDiff(st, []string{"solo", "missing"}, false, &out); err == nil {
		t.Error("unknown explicit ref did not error")
	}
}

// TestRunDiffAgreeAndDiffer pins the exit codes once two runs exist.
func TestRunDiffAgreeAndDiffer(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(smokeReport(t), "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(smokeReport(t), "b"); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	code, err := runDiff(st, nil, false, &out)
	if err != nil || code != 0 {
		t.Fatalf("identical runs: code %d, err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "no differences") {
		t.Errorf("agreeing diff output:\n%s", out.String())
	}
	// A run of a different spec diffs with only-in deltas → exit 1.
	if _, err := st.Save(smokeReport(t, 4), "c"); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	code, err = runDiff(st, []string{"a", "c"}, true, &out)
	if err != nil || code != 1 {
		t.Fatalf("differing runs: code %d, err %v", code, err)
	}
	if !strings.Contains(out.String(), `"only_in"`) {
		t.Errorf("JSON diff output:\n%s", out.String())
	}
}

// TestPushReport publishes a report to an in-process wbserve and checks
// it landed, plus the error surface on rejection.
func TestPushReport(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Stores: []*store.Store{st}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep := smokeReport(t)
	entry, err := pushReport(ts.URL, rep, "pushed-v1")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Label != "pushed-v1" || entry.SpecHash != store.SpecHash(rep.Spec) {
		t.Errorf("pushed entry %+v", entry)
	}
	if _, err := st.GetEntry(entry.SpecHash, "pushed-v1"); err != nil {
		t.Errorf("pushed report not in served store: %v", err)
	}
	// Trailing slash in the base URL is tolerated; auto labels work.
	if entry, err = pushReport(ts.URL+"/", rep, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(entry.Label, "run-") {
		t.Errorf("auto label = %q", entry.Label)
	}
	// A duplicate label is refused by the server; the client surfaces it.
	if _, err := pushReport(ts.URL, rep, "pushed-v1"); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("duplicate push: %v", err)
	}
}

// writeSpecFile materializes a spec as a JSON file for -spec runs.
func writeSpecFile(t *testing.T, spec campaign.Spec) string {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSDKCLIHTTPEquivalence pins the PR's acceptance criterion: the same
// spec executed through the public Go SDK, through `wbcampaign run
// -store`, and through HTTP job submission (`run -remote`) produces
// byte-identical stored reports.
func TestSDKCLIHTTPEquivalence(t *testing.T) {
	spec := campaign.Spec{
		Name:        "equivalence",
		Protocols:   []string{"build-forest", "mis"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min", "max"},
		Sizes:       []int{4, 5},
		Seeds:       2,
	}
	dir := t.TempDir()
	specFile := writeSpecFile(t, spec)

	// Route 1: the public SDK, straight into the store.
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(spec, campaign.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(rep, "sdk"); err != nil {
		t.Fatal(err)
	}

	// Route 2: the CLI, run -store.
	runCmd([]string{"-spec", specFile, "-store", "-dir", dir, "-label", "cli", "-quiet"})

	// Route 3: HTTP job submission via run -remote against an in-process
	// wbserve over the same store.
	srv, err := server.New(server.Options{Stores: []*store.Store{st}, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	runCmd([]string{"-spec", specFile, "-remote", ts.URL, "-label", "http", "-quiet"})

	// All three landed under one spec hash; their reports render to the
	// same bytes, JSON and CSV alike.
	hash := store.SpecHash(spec)
	render := func(label, format string) string {
		t.Helper()
		entry, err := st.GetEntry(hash, label)
		if err != nil {
			t.Fatalf("%s run not stored: %v", label, err)
		}
		loaded, err := st.LoadEntry(entry)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := loaded.Render(&buf, format); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, format := range []string{"json", "csv"} {
		sdk, cli, http := render("sdk", format), render("cli", format), render("http", format)
		if sdk != cli {
			t.Errorf("%s: SDK and CLI reports differ", format)
		}
		if sdk != http {
			t.Errorf("%s: SDK and HTTP-job reports differ", format)
		}
	}
}

// TestExhaustiveSpecHashesUnchanged pins the wire identity of exhaustive
// specs now that the memoized walk is the only one: Normalize still fills
// in memoize true, so the example specs, a bare SDK spec and a flag-built
// exhaustive spec (which also carries the -k and -p defaults) keep the
// spec hashes their stored runs live under. sweep.json names both bfs and
// its alias bfs-cached, which must keep hashing as before too.
func TestExhaustiveSpecHashesUnchanged(t *testing.T) {
	for file, want := range map[string]string{
		"exhaustive-c10.json":  "fa1b4d52707f",
		"exhaustive-c11.json":  "e44cc622df68",
		"exhaustive-deep.json": "facc841c577d",
		"exhaustive.json":      "5504d8966058",
		"sweep.json":           "839abf369179",
	} {
		spec, err := campaign.LoadSpec(filepath.Join("..", "..", "examples", "campaigns", file))
		if err != nil {
			t.Fatal(err)
		}
		if got := store.SpecHash(spec); got != want {
			t.Errorf("%s: spec hash %s, want %s", file, got, want)
		}
	}
	bare := campaign.Spec{Protocols: []string{"mis"}, Graphs: []string{"cycle"}, Sizes: []int{6},
		Mode: campaign.ModeExhaustive}
	if got := store.SpecHash(bare); got != "a6daaa77f7ad" {
		t.Errorf("bare exhaustive spec hash %s, want a6daaa77f7ad", got)
	}
	dir := t.TempDir()
	runCmd([]string{"-protocols", "mis", "-graphs", "cycle", "-sizes", "6", "-exhaustive",
		"-store", "-dir", dir, "-quiet"})
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].SpecHash != "7a34b7848df8" {
		t.Errorf("flag-built exhaustive run stored as %v, want spec hash 7a34b7848df8", entries)
	}
}

// TestFleetCLIEquivalence extends the equivalence pin to fleet mode: the
// same spec sharded across two in-process wbserve workers (via `run
// -workers URL,URL`) stores a report byte-identical to the SDK run, and
// -metrics-out captures the fabric telemetry for scripts to assert on.
func TestFleetCLIEquivalence(t *testing.T) {
	spec := campaign.Spec{
		Name:        "fleet-equivalence",
		Protocols:   []string{"build-forest", "mis"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min", "max"},
		Sizes:       []int{4, 5},
		Seeds:       2,
	}
	dir := t.TempDir()
	specFile := writeSpecFile(t, spec)

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := campaign.Run(spec, campaign.Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(rep, "sdk"); err != nil {
		t.Fatal(err)
	}

	worker := func() string {
		wst, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		srv, err := server.New(server.Options{Stores: []*store.Store{wst}, JobWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Drain the worker's jobs (a stolen shard's duplicate may still be
		// running) before the TempDir cleanup removes its store.
		t.Cleanup(func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				t.Errorf("worker shutdown: %v", err)
			}
		})
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	metricsFile := filepath.Join(t.TempDir(), "metrics.prom")
	runCmd([]string{"-spec", specFile, "-store", "-dir", dir, "-label", "fleet", "-quiet",
		"-workers", worker() + "," + worker(), "-shards", "3", "-metrics-out", metricsFile})

	hash := store.SpecHash(spec)
	render := func(label, format string) string {
		t.Helper()
		entry, err := st.GetEntry(hash, label)
		if err != nil {
			t.Fatalf("%s run not stored: %v", label, err)
		}
		loaded, err := st.LoadEntry(entry)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := loaded.Render(&buf, format); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	for _, format := range []string{"json", "csv"} {
		if render("sdk", format) != render("fleet", format) {
			t.Errorf("%s: SDK and fleet reports differ", format)
		}
	}

	metrics, err := os.ReadFile(metricsFile)
	if err != nil {
		t.Fatalf("-metrics-out wrote nothing: %v", err)
	}
	for _, family := range []string{"wb_fabric_shards_in_flight", "wb_fabric_resubmissions_total", "wb_fabric_workers",
		"wb_fabric_cells_deduped_total"} {
		if !strings.Contains(string(metrics), family) {
			t.Errorf("metrics exposition lacks %s", family)
		}
	}
}

// TestParseWorkers pins the dual-mode flag: integers stay goroutine
// counts, URL lists select the fleet, and junk is rejected.
func TestParseWorkers(t *testing.T) {
	if urls, n, err := parseWorkers("4"); err != nil || n != 4 || urls != nil {
		t.Errorf("parseWorkers(4) = %v, %d, %v", urls, n, err)
	}
	if urls, n, err := parseWorkers("0"); err != nil || n != 0 || urls != nil {
		t.Errorf("parseWorkers(0) = %v, %d, %v", urls, n, err)
	}
	urls, n, err := parseWorkers("http://a:8080, http://b:8080")
	if err != nil || n != 0 || len(urls) != 2 || urls[0] != "http://a:8080" || urls[1] != "http://b:8080" {
		t.Errorf("parseWorkers(urls) = %v, %d, %v", urls, n, err)
	}
	for _, bad := range []string{"-2", "a:8080", "http://a:8080,nope", ","} {
		if _, _, err := parseWorkers(bad); err == nil {
			t.Errorf("parseWorkers(%q) accepted", bad)
		}
	}
}

// TestRunRemoteErrors pins the -remote error surface without exiting the
// process: rejected submissions and failed jobs surface as errors.
func TestRunRemoteErrors(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ro, err := server.New(server.Options{Stores: []*store.Store{st}, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(ro.Handler())
	defer ts.Close()
	spec := campaign.Spec{Protocols: []string{"build-forest"}, Graphs: []string{"path"},
		Adversaries: []string{"min"}, Sizes: []int{4}}
	if err := runRemote(context.Background(), ts.URL, spec, "", true, "", "", ""); err == nil || !strings.Contains(err.Error(), "403") {
		t.Errorf("read-only remote run: %v, want 403 error", err)
	}
	if err := runRemote(context.Background(), "http://127.0.0.1:1", spec, "", true, "", "", ""); err == nil {
		t.Error("unreachable remote did not error")
	}
}

// TestRemoteDownloadsReport pins that -remote with -out/-csv fetches the
// server-rendered report, byte-identical to a local run's rendering.
func TestRemoteDownloadsReport(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Stores: []*store.Store{st}, JobWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	spec := campaign.Spec{Name: "dl", Protocols: []string{"build-forest"},
		Graphs: []string{"path"}, Adversaries: []string{"min"}, Sizes: []int{4, 5}}
	outDir := t.TempDir()
	outJSON := filepath.Join(outDir, "rep.json")
	outCSV := filepath.Join(outDir, "rep.csv")
	if err := runRemote(context.Background(), ts.URL, spec, "dl", true, outJSON, outCSV, ""); err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(spec, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON, wantCSV bytes.Buffer
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	if err := want.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	gotJSON, err := os.ReadFile(outJSON)
	if err != nil {
		t.Fatal(err)
	}
	gotCSV, err := os.ReadFile(outCSV)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, wantJSON.Bytes()) {
		t.Error("downloaded JSON differs from a local run's rendering")
	}
	if !bytes.Equal(gotCSV, wantCSV.Bytes()) {
		t.Error("downloaded CSV differs from a local run's rendering")
	}
}

// TestGCCmd walks the gc subcommand happy path end to end over a real
// store directory.
func TestGCCmd(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := smokeReport(t)
	for i := 0; i < 3; i++ {
		if _, err := st.Save(rep, ""); err != nil {
			t.Fatal(err)
		}
	}
	gcCmd([]string{"-dir", dir, "-keep", "1", "-quiet"})
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Label != "run-003" {
		t.Fatalf("after gc -keep 1: %+v, want only run-003", entries)
	}
}

// TestExportImportCmd drives the CLI pair end to end: export a populated
// store to an archive file, import it into a fresh directory, and check
// the destination serves the same reports byte-for-byte.
func TestExportImportCmd(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src, err := store.Open(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	rep := smokeReport(t)
	if _, err := src.Save(rep, "tagged"); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Save(rep, ""); err != nil {
		t.Fatal(err)
	}
	archive := filepath.Join(t.TempDir(), "archive.jsonl")
	exportCmd([]string{"-dir", srcDir, "-out", archive})
	data, err := os.ReadFile(archive)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 2 {
		t.Fatalf("archive holds %d lines, want 2", lines)
	}
	importCmd([]string{"-dir", dstDir, archive})
	dst, err := store.Open(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := dst.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("destination lists %d entries, want 2", len(entries))
	}
	for _, e := range entries {
		got, err := dst.LoadEntry(e)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := rep.WriteJSON(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: report changed crossing the CLI archive", e.Ref())
		}
	}
	// Idempotent: importing the same archive again adds nothing.
	importCmd([]string{"-dir", dstDir, archive})
	entries, err = dst.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("re-import grew the store to %d entries", len(entries))
	}
}

// TestRemoteStreamsThenFallsBack pins the one progress transport: a
// current server is followed over SSE to a stored result, and a server
// without the events route (pre-realtime wbserve) fails the run with an
// error naming the job instead of falling back to status polling.
func TestRemoteStreamsThenFallsBack(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Stores: []*store.Store{st}, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The job the failed run leaves behind drains before the TempDir
	// cleanup removes the store it writes into.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	var eventsHits atomic.Int64
	older := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// An older server has no events route at all.
		if strings.HasSuffix(r.URL.Path, "/events") {
			eventsHits.Add(1)
			http.NotFound(w, r)
			return
		}
		srv.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(older)
	defer ts.Close()
	spec := campaign.Spec{Name: "fallback", Protocols: []string{"build-forest"},
		Graphs: []string{"path"}, Adversaries: []string{"min"}, Sizes: []int{4, 5}}
	err = runRemote(context.Background(), ts.URL, spec, "polled", true, "", "", "")
	if err == nil {
		t.Fatal("remote run against a server without SSE succeeded")
	}
	if !strings.Contains(err.Error(), "job-001") || !strings.Contains(err.Error(), "404") {
		t.Errorf("error does not name the job and the events route's answer: %v", err)
	}
	if eventsHits.Load() != 1 {
		t.Errorf("the client tried the events route %d times, want once", eventsHits.Load())
	}

	// Against the real handler, the stream path completes end to end.
	full := httptest.NewServer(srv.Handler())
	defer full.Close()
	if err := runRemote(context.Background(), full.URL, spec, "streamed", true, "", "", ""); err != nil {
		t.Fatalf("remote run over SSE: %v", err)
	}
	if _, err := st.GetEntry(store.SpecHash(spec), "streamed"); err != nil {
		t.Errorf("streamed run not stored: %v", err)
	}
}

// TestRemoteInterruptCancelsJob is the regression for ^C abandoning the
// job server-side: when the run context is canceled mid-stream, the
// client POSTs /cancel and returns a non-nil (non-zero exit) error. The
// server here is a stub whose job never finishes — exactly the situation
// an interrupted run would otherwise leave burning.
func TestRemoteInterruptCancelsJob(t *testing.T) {
	var canceled atomic.Bool
	streaming := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":"job-7","state":"running","cells_total":2,"jobs_total":2}`)
	})
	mux.HandleFunc("GET /api/v1/campaigns/job-7/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, ": held open\n\n")
		w.(http.Flusher).Flush()
		close(streaming)
		<-r.Context().Done() // the job "runs" until the client goes away
	})
	mux.HandleFunc("POST /api/v1/campaigns/job-7/cancel", func(w http.ResponseWriter, r *http.Request) {
		canceled.Store(true)
		// The real server answers 202 Accepted (cancellation is async);
		// the client must treat any 2xx as the cancel having landed.
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":"job-7","state":"canceled"}`)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-streaming // the moment the stream is live, deliver the "signal"
		cancel()
	}()
	spec := campaign.Spec{Protocols: []string{"build-forest"}, Graphs: []string{"path"},
		Adversaries: []string{"min"}, Sizes: []int{4}}
	err := runRemote(ctx, ts.URL, spec, "", true, "", "", "")
	if err == nil {
		t.Fatal("interrupted remote run returned nil; the CLI would exit 0")
	}
	if !strings.Contains(err.Error(), "canceled job job-7 server-side") {
		t.Errorf("error does not record the server-side cancel: %v", err)
	}
	if !canceled.Load() {
		t.Error("client never POSTed /cancel; the job would burn on server-side")
	}
}
