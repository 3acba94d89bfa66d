package campaign

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/testutil"
)

// streamSpec is a small sampled sweep with six cells, one job each, so
// per-cell streaming behavior is observable without long runtimes.
func streamSpec() Spec {
	return Spec{
		Name:        "stream-test",
		Protocols:   []string{"build-forest", "mis"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min"},
		Sizes:       []int{4, 5, 6},
	}
}

// TestRunContextEquivalence pins that Runner.Run with a background context
// produces the same report as the package-level convenience.
func TestRunContextEquivalence(t *testing.T) {
	spec := streamSpec()
	want, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(Options{Workers: 4}).Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Cells, want.Cells) || got.Jobs != want.Jobs || got.Totals != want.Totals {
		t.Error("Runner.Run and Run disagree on the same spec")
	}
}

// TestStreamCancelStopsWithinOneJob pins the acceptance contract: a ctx
// canceled mid-sweep stops the sweep without running further jobs — with
// one worker and one job per cell, not a single job starts after the
// cancellation lands in OnCellDone — and no pool goroutine outlives Run.
func TestStreamCancelStopsWithinOneJob(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var executed atomic.Int64
	opts := Options{
		Workers: 1,
		OnCellDone: func(CellResult) {
			if executed.Add(1) == 2 {
				cancel() // lands while cell 2's completion is being reported
			}
		},
	}
	_, err := NewRunner(opts).Run(ctx, streamSpec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := executed.Load(); got != 2 {
		t.Errorf("%d jobs executed after canceling at job 2, want exactly 2", got)
	}
	testutil.CheckNoGoroutines(t, "repro/internal/campaign.")
}

// TestStreamErrors pins the error surface: a validation failure fires no
// hook and returns the error, and a pre-canceled context runs no job.
func TestStreamErrors(t *testing.T) {
	fired := 0
	r := NewRunner(Options{OnCellDone: func(CellResult) { fired++ }})
	if rep, err := r.Run(context.Background(), Spec{}); err == nil || rep != nil {
		t.Fatalf("invalid spec: rep=%v err=%v, want only an error", rep, err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.Run(ctx, streamSpec())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: err = %v", err)
	}
	if fired != 0 {
		t.Errorf("OnCellDone fired %d times for sweeps that never ran", fired)
	}
}

// TestOnCellDoneHook pins the hook's contract: OnCellDone fires exactly
// once per cell — in completion order, possibly concurrently — and
// delivers the very cell the report holds at the same index, so a
// realtime consumer and the report can never disagree.
func TestOnCellDoneHook(t *testing.T) {
	var mu sync.Mutex
	byIndex := map[int]CellResult{}
	opts := Options{Workers: 4, OnCellDone: func(cr CellResult) {
		mu.Lock()
		defer mu.Unlock()
		if _, dup := byIndex[cr.Index]; dup {
			t.Errorf("OnCellDone fired twice for cell %d", cr.Index)
		}
		byIndex[cr.Index] = cr
	}}
	rep, err := NewRunner(opts).Run(context.Background(), streamSpec())
	if err != nil {
		t.Fatal(err)
	}
	if len(byIndex) != len(rep.Cells) {
		t.Fatalf("OnCellDone fired for %d cells, want %d", len(byIndex), len(rep.Cells))
	}
	for i := range rep.Cells {
		cr, ok := byIndex[i]
		if !ok {
			t.Fatalf("OnCellDone never fired for cell %d", i)
		}
		if cr.Total != len(rep.Cells) || !reflect.DeepEqual(cr.Cell, rep.Cells[i]) {
			t.Errorf("OnCellDone cell %d differs from the report's cell", i)
		}
	}
}
