package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/testutil"
)

func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:        "fabric-test",
		Protocols:   []string{"build-forest", "connectivity"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min"},
		Sizes:       []int{4, 5, 6},
		Seeds:       2,
	}
}

// newWorker starts a real wbserve over its own store and returns its URL.
func newWorker(t *testing.T) string {
	t.Helper()
	ts := httptest.NewServer(newWorkerServer(t).Handler())
	t.Cleanup(ts.Close)
	return ts.URL
}

// newWorkerServer builds a wbserve over its own store. Cleanups run last-in
// first-out, so the bounded Shutdown registered here drains every job —
// including duplicate shard attempts the coordinator canceled, which may
// still be winding down — before the TempDir cleanup removes the store it
// writes into.
func newWorkerServer(t *testing.T) *server.Server {
	t.Helper()
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Stores: []*resultstore.Store{st}, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("worker shutdown: %v", err)
		}
	})
	return srv
}

func localJSON(t *testing.T) []byte {
	t.Helper()
	rep, err := campaign.Run(testSpec(), campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// setPace shortens the coordinator's probe interval and all-down timeout
// for the rest of the test.
func setPace(t *testing.T, probe, workerTimeout time.Duration) {
	saved := pace
	t.Cleanup(func() { pace = saved })
	pace.probe, pace.workerTimeout = probe, workerTimeout
}

// unreachableURL returns the address of a server that has already shut
// down, so every request to it is refused.
func unreachableURL() string {
	ts := httptest.NewServer(http.NotFoundHandler())
	ts.Close()
	return ts.URL
}

// TestFleetMatchesLocalRun is the distributed half of the equivalence
// pin: the report a worker fleet assembles is byte-identical to a local
// run of the same spec, at every worker count and shard assignment. A
// worker unreachable from the start counts as up until its first submit
// fails, so it costs a resubmission and nothing else. The report's
// summary fields carry the run's wall time and its endpoint count.
func TestFleetMatchesLocalRun(t *testing.T) {
	want := localJSON(t)
	cases := []struct {
		name        string
		unreachable int // endpoints that refuse every request, listed first
		workers     int
		shards      int
	}{
		{"one-worker", 0, 1, 0},
		{"two-workers", 0, 2, 0},
		{"three-workers", 0, 3, 0},
		{"more-shards-than-workers", 0, 2, 5},
		{"one-shard-per-cell", 0, 3, 6},
		{"shards-capped-at-cells", 0, 2, 99},
		{"one-unreachable", 1, 1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var urls []string
			for range tc.workers {
				urls = append(urls, newWorker(t))
			}
			for range tc.unreachable {
				urls = append([]string{unreachableURL()}, urls...)
			}
			set := telemetry.NewSet()
			opts := Options{Workers: urls, Shards: tc.shards, Metrics: set.Fabric}
			var mu sync.Mutex
			emitted := map[int]int{}
			opts.OnCellDone = func(cr campaign.CellResult) {
				mu.Lock()
				defer mu.Unlock()
				if cr.Total != 6 {
					t.Errorf("OnCellDone cell %d has Total %d, want 6", cr.Index, cr.Total)
				}
				emitted[cr.Index]++
			}
			rep, err := Run(t.Context(), testSpec(), opts)
			if err != nil {
				t.Fatalf("fabric run: %v", err)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("fleet report differs from local run (%d workers, %d shards)",
					tc.workers, tc.shards)
			}
			for i := 0; i < 6; i++ {
				if emitted[i] != 1 {
					t.Errorf("OnCellDone fired %d times for cell %d, want once", emitted[i], i)
				}
			}
			if len(emitted) != 6 {
				t.Errorf("OnCellDone fired for cells %v, want exactly 0..5", emitted)
			}
			if rep.Workers != len(urls) || rep.Elapsed <= 0 {
				t.Errorf("report summary has %d workers over %s, want %d workers and a positive wall time",
					rep.Workers, rep.Elapsed, len(urls))
			}
			if tc.unreachable > 0 && set.Fabric.Resubmissions() == 0 {
				t.Error("resubmission counter stayed 0 with an unreachable worker")
			}
		})
	}
}

// TestFleetSurvivesWorkerFailure breaks one of two workers right after it
// accepts its first shard: either the whole worker dies, or only its
// events route starts answering 503 while submit and /healthz keep
// working. The coordinator must mark it down, resubmit the orphaned shard
// to the survivor, and still assemble a report byte-identical to a local
// run — with the retry visible on the resubmission counter. The
// survivor's first submission is held until the flaky worker has broken,
// so the flaky worker always owns a shard. The failed attempt itself
// marks the worker down, and a down worker sits out a probe interval
// before it probes: a worker whose /healthz still answers must not
// reclaim the re-queued shard and burn every allowed attempt at once.
func TestFleetSurvivesWorkerFailure(t *testing.T) {
	want := localJSON(t)
	cases := []struct {
		name       string
		probe      time.Duration
		eventsOnly bool // only the events route fails after the first submit
	}{
		{"probe-25ms", 25 * time.Millisecond, false},
		{"probe-10s", 10 * time.Second, false},
		{"events-503", 10 * time.Second, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			died := make(chan struct{})
			healthySrv := newWorkerServer(t).Handler()
			healthy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.Method == http.MethodPost && r.URL.Path == "/api/v1/campaigns" {
					select {
					case <-died:
					case <-r.Context().Done():
						return
					}
				}
				healthySrv.ServeHTTP(w, r)
			}))
			t.Cleanup(healthy.Close)

			flakySrv := newWorkerServer(t).Handler()
			var killed atomic.Bool
			var dieOnce sync.Once
			flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if killed.Load() && (!tc.eventsOnly || strings.HasSuffix(r.URL.Path, "/events")) {
					http.Error(w, `{"error":{"code":"internal","message":"worker killed"}}`,
						http.StatusServiceUnavailable)
					return
				}
				flakySrv.ServeHTTP(w, r)
				if r.Method == http.MethodPost && r.URL.Path == "/api/v1/campaigns" {
					// Break immediately after accepting the first shard.
					dieOnce.Do(func() {
						killed.Store(true)
						close(died)
					})
				}
			}))
			t.Cleanup(flaky.Close)

			set := telemetry.NewSet()
			setPace(t, tc.probe, pace.workerTimeout)
			opts := Options{Workers: []string{flaky.URL, healthy.URL}, Metrics: set.Fabric}

			ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
			defer cancel()
			rep, err := Run(ctx, testSpec(), opts)
			if err != nil {
				t.Fatalf("fabric run with a failing worker: %v", err)
			}
			var got bytes.Buffer
			if err := rep.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Error("report assembled across a worker failure differs from local run")
			}
			if n := set.Fabric.Resubmissions(); n == 0 {
				t.Error("resubmission counter stayed 0 across a worker failure")
			}
		})
	}
}

// TestFleetRejectsForeignCellIndex pins the merger's bounds check: a
// worker whose stream carries a cell outside its shard, or a cursor for a
// range of another length, fails the attempt with an error naming the
// worker and the index. It never indexes past the matrix or overwrites
// another shard's cell.
func TestFleetRejectsForeignCellIndex(t *testing.T) {
	setPace(t, 10*time.Millisecond, pace.workerTimeout)
	for _, frame := range []string{
		`{"index":99,"total":6,"jobs":2,"cell":{}}`,
		`{"index":2,"total":3,"jobs":2,"cell":{}}`,
	} {
		var cr campaign.CellResult
		if err := json.Unmarshal([]byte(frame), &cr); err != nil {
			t.Fatal(err)
		}
		mux := http.NewServeMux()
		mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
		mux.HandleFunc("POST /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id":"job-1","state":"running","cells_total":6,"jobs_total":12}`)
		})
		mux.HandleFunc("GET /api/v1/campaigns/job-1/events", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/event-stream")
			io.WriteString(w, "id: 1\nevent: cell\ndata: "+frame+"\n\n")
		})
		mux.HandleFunc("POST /api/v1/campaigns/job-1/cancel", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(http.StatusAccepted)
			io.WriteString(w, `{"id":"job-1","state":"canceled"}`)
		})
		stub := httptest.NewServer(mux)
		t.Cleanup(stub.Close)

		var merged atomic.Int64
		opts := Options{Workers: []string{stub.URL}}
		opts.OnCellDone = func(campaign.CellResult) { merged.Add(1) }
		ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
		_, err := Run(ctx, testSpec(), opts)
		cancel()
		if err == nil {
			t.Fatalf("frame %s: fleet run succeeded", frame)
		}
		if want := fmt.Sprintf("cell index %d of %d", cr.Index, cr.Total); !strings.Contains(err.Error(), want) ||
			!strings.Contains(err.Error(), stub.URL) {
			t.Errorf("frame %s: error %q does not name the worker and %q", frame, err, want)
		}
		if n := merged.Load(); n != 0 {
			t.Errorf("frame %s: %d cells merged from a rejected frame", frame, n)
		}
	}
}

// TestRunRejectsBadInput pins the coordinator's argument contract.
func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(t.Context(), testSpec(), Options{}); err == nil {
		t.Error("run with no workers succeeded")
	}
	spec := testSpec()
	spec.Cells = &campaign.CellRange{Start: 0, End: 1}
	if _, err := Run(t.Context(), spec, Options{Workers: []string{"http://localhost:1"}}); err == nil {
		t.Error("run with a pre-sharded spec succeeded")
	}
	bad := campaign.Spec{}
	if _, err := Run(t.Context(), bad, Options{Workers: []string{"http://localhost:1"}}); err == nil {
		t.Error("run with an invalid spec succeeded")
	}
}

// TestFleetMatchesLocalScriptedRun extends the distributed equivalence pin
// to the scenario DSL: a spec exercising script adversaries, the scripted
// sugar, the spec-level script field and a gated protocol assembles the
// same bytes from a worker fleet as from a local run — the workers
// re-compile the scripts independently and must land identical cells.
func TestFleetMatchesLocalScriptedRun(t *testing.T) {
	spec := campaign.Spec{
		Name:        "fabric-scripted",
		Protocols:   []string{"bfs", "gate:mis:id >= 1"},
		Graphs:      []string{"path", "gnp"},
		Adversaries: []string{"script:pick(round)", "scripted:3,1,2", "script"},
		Script:      "lastwriter == -1 ? max(candidates) : min(candidates)",
		Sizes:       []int{4, 5},
		Seeds:       2,
		P:           0.5,
	}
	rep, err := campaign.Run(spec, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := rep.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	urls := []string{newWorker(t), newWorker(t)}
	fleet, err := Run(t.Context(), spec, Options{Workers: urls, Shards: 4})
	if err != nil {
		t.Fatalf("fabric run of scripted spec: %v", err)
	}
	var got bytes.Buffer
	if err := fleet.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("fleet report for scripted spec differs from local run")
	}
}

// TestFleetFastFailsOnBadScript pins the coordinator's fail-fast path: a
// spec whose script cannot compile is rejected by every worker with the
// bad_script envelope, and the coordinator surfaces the script error
// immediately instead of burning the retry budget on resubmissions.
func TestFleetFastFailsOnBadScript(t *testing.T) {
	spec := testSpec()
	spec.Adversaries = []string{"script:candiates[0]"}
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	_, err := Run(ctx, spec, Options{Workers: []string{newWorker(t)}})
	if err == nil {
		t.Fatal("bad script accepted by fleet")
	}
	if !strings.Contains(err.Error(), "candidates") {
		t.Errorf("error does not carry the script diagnostic: %v", err)
	}
}

// TestRunWaitsForCancelAnswer pins the job lifecycle on cancellation:
// when the caller cancels a fleet run, the attempt that owns the running
// job cancels it and waits for the worker's answer, so Run returns only
// after the cancel was answered and leaves no coordinator goroutine
// behind.
func TestRunWaitsForCancelAnswer(t *testing.T) {
	ctx, cancelRun := context.WithCancel(t.Context())
	defer cancelRun()
	var answered atomic.Bool
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {})
	mux.HandleFunc("POST /api/v1/campaigns", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":"job-1","state":"running","cells_total":6,"jobs_total":12}`)
	})
	mux.HandleFunc("GET /api/v1/campaigns/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		// The submit has returned: cancel the run while its stream is open.
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		w.(http.Flusher).Flush()
		cancelRun()
		<-r.Context().Done()
	})
	mux.HandleFunc("POST /api/v1/campaigns/job-1/cancel", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(300 * time.Millisecond)
		answered.Store(true)
		w.WriteHeader(http.StatusAccepted)
		io.WriteString(w, `{"id":"job-1","state":"canceled"}`)
	})
	stub := httptest.NewServer(mux)
	t.Cleanup(stub.Close)

	_, err := Run(ctx, testSpec(), Options{Workers: []string{stub.URL}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled fleet run: err = %v, want context.Canceled", err)
	}
	if !answered.Load() {
		t.Error("Run returned before the worker answered its job's cancel")
	}
	testutil.CheckNoGoroutines(t, "repro/internal/fabric.")
}

// TestFinishedShardsAreNotCanceled pins that a job whose own stream
// carried its whole range is left to end by itself: a run to completion
// across three workers and six shards sends no cancel request, and leaves
// no coordinator goroutine behind.
func TestFinishedShardsAreNotCanceled(t *testing.T) {
	var cancels atomic.Int64
	var urls []string
	for range 3 {
		srv := newWorkerServer(t).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/cancel") {
				cancels.Add(1)
			}
			srv.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	if _, err := Run(t.Context(), testSpec(), Options{Workers: urls, Shards: 6}); err != nil {
		t.Fatalf("fabric run: %v", err)
	}
	if n := cancels.Load(); n != 0 {
		t.Errorf("%d cancel requests for shards that finished, want 0", n)
	}
	testutil.CheckNoGoroutines(t, "repro/internal/fabric.")
}

// TestFleetFailsWhenEveryWorkerIsDown pins the all-down watchdog: with
// every endpoint unreachable, Run fails once all of them have been down
// for the worker timeout, instead of waiting for the caller's deadline.
func TestFleetFailsWhenEveryWorkerIsDown(t *testing.T) {
	setPace(t, 10*time.Millisecond, 200*time.Millisecond)
	ctx, cancel := context.WithTimeout(t.Context(), 10*time.Second)
	defer cancel()
	_, err := Run(ctx, testSpec(), Options{Workers: []string{unreachableURL(), unreachableURL()}})
	if err == nil || !strings.Contains(err.Error(), "every worker unhealthy") {
		t.Fatalf("fleet run with no reachable worker: err = %v, want the all-down watchdog", err)
	}
}
