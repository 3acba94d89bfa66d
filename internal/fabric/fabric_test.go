package fabric

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
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
// including duplicate shard attempts the coordinator cancelled without
// waiting — before the TempDir cleanup removes the store it writes into.
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

func fastOptions(workers []string) Options {
	return Options{
		Workers:       workers,
		PollInterval:  20 * time.Millisecond,
		ProbeInterval: 25 * time.Millisecond,
		StealAfter:    time.Second,
		WorkerTimeout: 5 * time.Second,
		Logf:          nil,
	}
}

// TestFleetMatchesLocalRun is the distributed half of the equivalence
// pin: the report a worker fleet assembles is byte-identical to a local
// run of the same spec, at every worker count and shard assignment.
func TestFleetMatchesLocalRun(t *testing.T) {
	want := localJSON(t)
	cases := []struct {
		name    string
		workers int
		shards  int
	}{
		{"one-worker", 1, 0},
		{"two-workers", 2, 0},
		{"three-workers", 3, 0},
		{"more-shards-than-workers", 2, 5},
		{"one-shard-per-cell", 3, 6},
		{"shards-capped-at-cells", 2, 99},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			urls := make([]string, tc.workers)
			for i := range urls {
				urls[i] = newWorker(t)
			}
			opts := fastOptions(urls)
			opts.Shards = tc.shards
			var emitted []int
			opts.OnCell = func(cr campaign.CellResult) {
				emitted = append(emitted, cr.Index)
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
			for i, idx := range emitted {
				if idx != i {
					t.Fatalf("OnCell emitted index %d at position %d; want matrix order", idx, i)
				}
			}
			if len(emitted) != 6 {
				t.Fatalf("OnCell fired %d times, want 6", len(emitted))
			}
		})
	}
}

// TestFleetSurvivesWorkerFailure kills one of two workers right after it
// accepts its first shard. The coordinator must mark it down, resubmit
// the orphaned shard to the survivor, and still assemble a report
// byte-identical to a local run — with the retry visible on the
// resubmission counter. The survivor's first submission is held until the
// flaky worker has died, so the flaky worker always owns a shard. With a
// slow probe the failed attempt itself must mark the worker down: a
// worker that still read healthy would reclaim the re-queued shard and
// burn every allowed attempt before its next probe.
func TestFleetSurvivesWorkerFailure(t *testing.T) {
	want := localJSON(t)
	for _, probe := range []time.Duration{25 * time.Millisecond, 10 * time.Second} {
		t.Run("probe-"+probe.String(), func(t *testing.T) {
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
			flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if killed.Load() {
					http.Error(w, `{"error":{"code":"internal","message":"worker killed"}}`,
						http.StatusServiceUnavailable)
					return
				}
				flakySrv.ServeHTTP(w, r)
				if r.Method == http.MethodPost && r.URL.Path == "/api/v1/campaigns" {
					killed.Store(true) // die immediately after accepting the first shard
					close(died)
				}
			}))
			t.Cleanup(flaky.Close)

			set := telemetry.NewSet()
			opts := fastOptions([]string{flaky.URL, healthy.URL})
			opts.ProbeInterval = probe
			opts.Metrics = set.Fabric

			ctx, cancel := context.WithTimeout(t.Context(), 30*time.Second)
			defer cancel()
			rep, err := Run(ctx, testSpec(), opts)
			if err != nil {
				t.Fatalf("fabric run with a dying worker: %v", err)
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

// TestRunRejectsBadInput pins the coordinator's argument contract.
func TestRunRejectsBadInput(t *testing.T) {
	if _, err := Run(t.Context(), testSpec(), Options{}); err == nil {
		t.Error("run with no workers succeeded")
	}
	spec := testSpec()
	spec.Cells = &campaign.CellRange{Start: 0, End: 1}
	if _, err := Run(t.Context(), spec, fastOptions([]string{"http://localhost:1"})); err == nil {
		t.Error("run with a pre-sharded spec succeeded")
	}
	bad := campaign.Spec{}
	if _, err := Run(t.Context(), bad, fastOptions([]string{"http://localhost:1"})); err == nil {
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
	opts := fastOptions(urls)
	opts.Shards = 4
	fleet, err := Run(t.Context(), spec, opts)
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
	_, err := Run(ctx, spec, fastOptions([]string{newWorker(t)}))
	if err == nil {
		t.Fatal("bad script accepted by fleet")
	}
	if !strings.Contains(err.Error(), "candidates") {
		t.Errorf("error does not carry the script diagnostic: %v", err)
	}
}
