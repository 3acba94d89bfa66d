package campaign

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/registry"
)

func exhaustiveSpec() Spec {
	return Spec{
		Name:      "exhaustive-test",
		Protocols: []string{"bfs", "connectivity"},
		Graphs:    []string{"path", "cycle"},
		Sizes:     []int{3, 4, 5}, // cycles need n ≥ 3; path n=2 is swept separately
		Mode:      ModeExhaustive,
	}
}

// TestExhaustiveMatchesSpectrum is the cross-check behind the exhaustive
// mode: for every n ≤ 5 path/cycle cell of the BFS and connectivity
// protocols, the campaign's per-cell stats must agree exactly with a
// direct engine.RunAll / engine.OutputSpectrum enumeration — same schedule
// count, same distinct outputs, same min/max rounds over schedules.
func TestExhaustiveMatchesSpectrum(t *testing.T) {
	rep, err := Run(exhaustiveSpec(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Cycles need n ≥ 3; cover the remaining n ≤ 5 path case separately.
	pathSpec := exhaustiveSpec()
	pathSpec.Graphs = []string{"path"}
	pathSpec.Sizes = []int{2}
	rep2, err := Run(pathSpec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep.Cells = append(rep.Cells, rep2.Cells...)
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Adversary != "exhaustive" {
			t.Fatalf("cell %d adversary = %q, want \"exhaustive\"", i, c.Adversary)
		}
		if c.Exhaustive == nil {
			t.Fatalf("cell %d (%s/%s n=%d) has no exhaustive stats", i, c.Protocol, c.Graph, c.N)
		}
		params := registry.Params{N: c.N}
		proto, err := registry.NewProtocol(c.Protocol, params)
		if err != nil {
			t.Fatal(err)
		}
		g, err := registry.NewGraph(c.Graph, params, nil)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := engine.OutputSpectrum(proto, g, engine.Options{}, DefaultMaxSteps)
		if err != nil {
			t.Fatalf("%s/%s n=%d: spectrum: %v", c.Protocol, c.Graph, c.N, err)
		}
		minRounds, maxRounds := int(^uint(0)>>1), 0
		_, err = engine.RunAll(proto, g, engine.Options{}, DefaultMaxSteps,
			func(res *core.Result, _ []int) error {
				if res.Rounds < minRounds {
					minRounds = res.Rounds
				}
				if res.Rounds > maxRounds {
					maxRounds = res.Rounds
				}
				return nil
			})
		if err != nil {
			t.Fatalf("%s/%s n=%d: runall: %v", c.Protocol, c.Graph, c.N, err)
		}
		coord := fmt.Sprintf("%s/%s n=%d", c.Protocol, c.Graph, c.N)
		if c.Exhaustive.Schedules != spec.Schedules {
			t.Errorf("%s: %d schedules, spectrum says %d", coord, c.Exhaustive.Schedules, spec.Schedules)
		}
		if c.Exhaustive.DistinctOutputs != len(spec.Outputs) {
			t.Errorf("%s: %d distinct outputs, spectrum says %d", coord, c.Exhaustive.DistinctOutputs, len(spec.Outputs))
		}
		if c.Exhaustive.Deadlock != spec.Deadlocks || c.Exhaustive.Failed != spec.Failures {
			t.Errorf("%s: deadlock/failed %d/%d, spectrum says %d/%d", coord,
				c.Exhaustive.Deadlock, c.Exhaustive.Failed, spec.Deadlocks, spec.Failures)
		}
		if c.Rounds.Min != minRounds || c.Rounds.Max != maxRounds {
			t.Errorf("%s: rounds [%d,%d], direct RunAll says [%d,%d]", coord,
				c.Rounds.Min, c.Rounds.Max, minRounds, maxRounds)
		}
		// Both protocols succeed on connected graphs under every schedule, so
		// the ∀-adversary verdict must be a clean Success.
		if c.Success != c.Runs || c.Exhaustive.Success != c.Exhaustive.Schedules {
			t.Errorf("%s: not all schedules succeeded: %+v / %+v", coord, c, c.Exhaustive)
		}
	}
}

// TestExhaustiveMemoizeFalseRejected pins what remains of the memoize
// field: it stays on the wire (Normalize fills in true, so spec hashes do
// not move), but a spec asking for the retired tree walk is refused with an
// error naming the field, before any job runs.
func TestExhaustiveMemoizeFalseRejected(t *testing.T) {
	spec := exhaustiveSpec()
	if m := spec.Normalize().Memoize; m == nil || !*m {
		t.Fatalf("Normalize left memoize %v, want true", m)
	}
	naive := false
	spec.Memoize = &naive
	rep, err := Run(spec, Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "memoize") {
		t.Fatalf("memoize:false run: report %v, err %v; want an error naming memoize", rep, err)
	}
	memoize := true
	spec.Memoize = &memoize
	if err := spec.Normalize().Validate(); err != nil {
		t.Errorf("memoize:true rejected: %v", err)
	}
}

// TestExhaustiveDeterminismAcrossWorkerCounts extends the campaign
// determinism contract to exhaustive mode: workers=1,2,8 must produce
// byte-identical JSON and CSV reports.
func TestExhaustiveDeterminismAcrossWorkerCounts(t *testing.T) {
	var reference, referenceCSV []byte
	for _, workers := range []int{1, 2, 8} {
		rep, err := Run(exhaustiveSpec(), Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf, csvBuf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteCSV(&csvBuf); err != nil {
			t.Fatal(err)
		}
		if reference == nil {
			reference, referenceCSV = buf.Bytes(), csvBuf.Bytes()
			continue
		}
		if !bytes.Equal(reference, buf.Bytes()) {
			t.Errorf("workers=%d exhaustive JSON report differs from workers=1", workers)
		}
		if !bytes.Equal(referenceCSV, csvBuf.Bytes()) {
			t.Errorf("workers=%d exhaustive CSV report differs from workers=1", workers)
		}
	}
}

// TestExhaustiveFailedTrialDoesNotPolluteDists pins the aggregation rule
// for exhaustive trials that die before enumerating any schedule (here: a
// cycle generator panic at n=2, which Validate's size probe at Sizes[0]=5
// cannot catch). The cell must be Failed with an error, keep its
// exhaustive block, and must NOT inject a synthetic 0-round sample into
// the over-schedules distributions.
func TestExhaustiveFailedTrialDoesNotPolluteDists(t *testing.T) {
	spec := Spec{
		Protocols: []string{"bfs"},
		Graphs:    []string{"cycle"},
		Sizes:     []int{5, 2},
		Mode:      ModeExhaustive,
	}
	rep, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Cells))
	}
	good, bad := &rep.Cells[0], &rep.Cells[1]
	if good.Success != 1 || good.Rounds.Min == 0 {
		t.Errorf("n=5 cell: %+v", good)
	}
	if bad.Failed != 1 || bad.FirstError == "" {
		t.Errorf("n=2 cycle cell should fail construction: %+v", bad)
	}
	if bad.Exhaustive == nil || bad.Exhaustive.Schedules != 0 {
		t.Errorf("n=2 cell exhaustive block: %+v", bad.Exhaustive)
	}
	if bad.Rounds != (Dist{}) || bad.BoardBits != (Dist{}) {
		t.Errorf("n=2 cell dists should be empty, got rounds %+v bits %+v", bad.Rounds, bad.BoardBits)
	}
}

// TestExhaustiveBudgetSurfacesAsFailure pins the budget contract: a step
// budget too small to finish the enumeration marks the trial Failed with
// an error naming the budget, never hangs or panics.
func TestExhaustiveBudgetSurfacesAsFailure(t *testing.T) {
	spec := Spec{
		Protocols: []string{"bfs"},
		Graphs:    []string{"complete"},
		Sizes:     []int{5},
		Mode:      ModeExhaustive,
		MaxSteps:  10,
	}
	rep, err := Run(spec, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &rep.Cells[0]
	if c.Failed != 1 || c.Exhaustive == nil || !c.Exhaustive.BudgetExhausted {
		t.Fatalf("budget-capped cell: %+v / %+v", c, c.Exhaustive)
	}
	if c.FirstError == "" {
		t.Error("budget exhaustion left no error message")
	}
}
