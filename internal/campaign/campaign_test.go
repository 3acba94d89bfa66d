package campaign

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

func testSpec() Spec {
	return Spec{
		Name:        "test",
		Protocols:   []string{"bfs", "mis", "connectivity"},
		Graphs:      []string{"gnp", "tree", "cycle"},
		Adversaries: []string{"min", "max", "stubborn:1"},
		Sizes:       []int{6, 9, 12, 15},
		Seeds:       3,
		P:           0.35,
	}
}

// TestDeterminismAcrossWorkerCounts is the campaign contract: the same spec
// run with 1 worker and with N workers produces byte-identical JSON (and
// CSV) reports.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	spec := testSpec()
	var reference []byte
	var referenceCSV []byte
	for _, workers := range []int{1, 2, 7, 16} {
		rep, err := Run(spec, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf, csvBuf bytes.Buffer
		if err := rep.WriteJSON(&buf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := rep.WriteCSV(&csvBuf); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if reference == nil {
			reference = buf.Bytes()
			referenceCSV = csvBuf.Bytes()
			continue
		}
		if !bytes.Equal(reference, buf.Bytes()) {
			t.Errorf("workers=%d JSON report differs from workers=1", workers)
		}
		if !bytes.Equal(referenceCSV, csvBuf.Bytes()) {
			t.Errorf("workers=%d CSV report differs from workers=1", workers)
		}
	}
}

func TestRunAggregates(t *testing.T) {
	spec := testSpec()
	rep, err := Run(spec, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	wantCells := 3 * 3 * 4 * 3 // protocols × graphs × sizes × adversaries
	if len(rep.Cells) != wantCells {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), wantCells)
	}
	if rep.Jobs != wantCells*3 {
		t.Fatalf("got %d jobs, want %d", rep.Jobs, wantCells*3)
	}
	if rep.Totals.Runs != rep.Jobs {
		t.Fatalf("totals runs %d != jobs %d", rep.Totals.Runs, rep.Jobs)
	}
	// bfs, mis and connectivity all succeed on arbitrary graphs under any
	// adversary in their native models.
	if rep.Totals.Success != rep.Totals.Runs {
		t.Errorf("expected all-success sweep, got %+v", rep.Totals)
	}
	for i := range rep.Cells {
		c := &rep.Cells[i]
		if c.Runs != 3 {
			t.Errorf("cell %d has %d runs, want 3", i, c.Runs)
		}
		// Every run writes exactly n messages, one per round plus the final
		// empty-candidates round.
		if c.Rounds.Min < c.N {
			t.Errorf("cell %d (%s/%s n=%d): rounds min %d < n", i, c.Protocol, c.Graph, c.N, c.Rounds.Min)
		}
		if c.BoardBits.Min <= 0 || c.MaxMessageBits <= 0 {
			t.Errorf("cell %d has empty board stats: %+v", i, c)
		}
	}
}

// TestModelOverrideSweep reproduces a Table 2-style comparison: the Theorem
// 10 BFS protocol succeeds natively but breaks under weaker models — it
// deadlocks with ASYNC freezing on C5 plus an isolated node (Open Problem
// 3's witness) and fails the simultaneous-activation check under SIMSYNC.
func TestModelOverrideSweep(t *testing.T) {
	spec := Spec{
		Protocols:   []string{"bfs"},
		Graphs:      []string{"cycle-iso"},
		Adversaries: []string{"min"},
		Sizes:       []int{6},
		Models:      []string{"native", "ASYNC", "SIMSYNC"},
	}
	rep, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	byModel := map[string]*Cell{}
	for i := range rep.Cells {
		byModel[rep.Cells[i].Model] = &rep.Cells[i]
	}
	if c := byModel["native"]; c == nil || c.Success != 1 {
		t.Errorf("native cell: %+v", byModel["native"])
	}
	if c := byModel["ASYNC"]; c == nil || c.Deadlock != 1 {
		t.Errorf("ASYNC cell should deadlock (C5 freezing): %+v", byModel["ASYNC"])
	}
	if c := byModel["SIMSYNC"]; c == nil || c.Failed != 1 {
		t.Errorf("SIMSYNC cell should fail activation: %+v", byModel["SIMSYNC"])
	}
}

func TestExpandSeedsAreCoordinateDerived(t *testing.T) {
	spec := testSpec().Normalize()
	jobs := spec.Expand()
	seen := map[int64]int{}
	for _, j := range jobs {
		seen[j.Seed]++
	}
	if len(seen) != len(jobs) {
		t.Errorf("expected %d distinct seeds, got %d (collisions)", len(jobs), len(seen))
	}
	// A different base seed shifts every job seed.
	spec2 := spec
	spec2.BaseSeed = 99
	for i, j := range spec2.Expand() {
		if j.Seed == jobs[i].Seed {
			t.Errorf("job %d: base seed did not change derived seed", i)
			break
		}
	}
}

func TestValidateRejectsTypos(t *testing.T) {
	spec := testSpec()
	spec.Protocols = []string{"bffs"}
	if _, err := Run(spec, Options{}); err == nil || !strings.Contains(err.Error(), "did you mean") {
		t.Errorf("typo protocol: got %v", err)
	}
	spec = testSpec()
	spec.Sizes = nil
	if _, err := Run(spec, Options{}); err == nil {
		t.Error("empty sizes accepted")
	}
	spec = testSpec()
	spec.Models = []string{"TURBO"}
	if _, err := Run(spec, Options{}); err == nil {
		t.Error("unknown model accepted")
	}
}

// TestValidateScriptRules pins spec-load validation of scenario scripts:
// compile errors surface at validation time with their position, a
// spec-level script must be referenced by a bare "script" adversary (a
// stray field must not silently change the hash), and exhaustive mode
// admits no adversary script at all.
func TestValidateScriptRules(t *testing.T) {
	spec := testSpec()
	spec.Adversaries = []string{"script:candiates[0]"}
	if _, err := Run(spec, Options{}); err == nil || !strings.Contains(err.Error(), "script:1:1") {
		t.Errorf("script typo: got %v, want positioned error", err)
	}
	spec = testSpec()
	spec.Adversaries = []string{"script"}
	if _, err := Run(spec, Options{}); err == nil || !strings.Contains(err.Error(), "script") {
		t.Errorf(`bare "script" without a spec script: got %v`, err)
	}
	spec = testSpec()
	spec.Script = "min(candidates)" // nothing references it
	if _, err := Run(spec, Options{}); err == nil || !strings.Contains(err.Error(), "no adversary") {
		t.Errorf("unreferenced spec script: got %v", err)
	}
	spec = testSpec()
	spec.Protocols = []string{"gate:bfs:degre > 1"}
	if _, err := Run(spec, Options{}); err == nil || !strings.Contains(err.Error(), "script:1:1") {
		t.Errorf("gate predicate typo: got %v, want positioned error", err)
	}
	spec = Spec{
		Protocols: []string{"mis"}, Graphs: []string{"path"},
		Adversaries: []string{"script:min(candidates)"}, Sizes: []int{4},
		Mode: "exhaustive",
	}
	if _, err := Run(spec, Options{}); err == nil || !strings.Contains(err.Error(), "exhaustive") {
		t.Errorf("exhaustive scripted spec: got %v", err)
	}
}

func TestLoadSpecRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "spec.json")
	if err := os.WriteFile(path, []byte(`{"protocols":["bfs"],"grphs":["gnp"]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpec(path); err == nil {
		t.Error("unknown field accepted")
	}
	if err := os.WriteFile(path, []byte(`{"protocols":["bfs"],"graphs":["gnp"],"adversaries":["min"],"sizes":[5]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := LoadSpec(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, Options{Workers: 1}); err != nil {
		t.Errorf("minimal spec failed: %v", err)
	}
}

func TestProgressCoversEveryJob(t *testing.T) {
	spec := Spec{
		Protocols:   []string{"build-forest"},
		Graphs:      []string{"tree"},
		Adversaries: []string{"min"},
		Sizes:       []int{4, 6},
		Seeds:       2,
	}
	var calls, jobs atomic.Int64
	rep, err := Run(spec, Options{Workers: 3, OnCellDone: func(cr CellResult) {
		calls.Add(1)
		jobs.Add(int64(cr.Jobs))
		if cr.Total != 2 {
			t.Errorf("total = %d, want 2", cr.Total)
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 2 || jobs.Load() != int64(rep.Jobs) || rep.Jobs != 4 {
		t.Errorf("OnCellDone calls=%d summing %d jobs, want 2 cells covering all %d of 4 jobs",
			calls.Load(), jobs.Load(), rep.Jobs)
	}
	if rep.Workers != 3 {
		t.Errorf("report workers = %d, want 3", rep.Workers)
	}
}
