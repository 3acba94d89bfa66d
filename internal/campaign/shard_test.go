package campaign

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// shardSpec is a sweep with enough axes that cell ranges can cross axis
// boundaries: 2 protocols × 2 graphs × 2 sizes × 2 adversaries = 16
// cells, where consecutive indices wrap through the adversary, size and
// graph axes.
func shardSpec() Spec {
	return Spec{
		Name:        "shard-semantics",
		Protocols:   []string{"build-forest", "mis"},
		Graphs:      []string{"path", "cycle"},
		Adversaries: []string{"min", "max"},
		Sizes:       []int{4, 5},
		Seeds:       2,
	}
}

// cellJSON renders one cell the way reports do, for byte comparison.
func cellJSON(t *testing.T, c Cell) string {
	t.Helper()
	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestCellRangeSlicesMatchFullRun pins the shard contract: a run
// restricted to any cell range produces cells byte-identical to the
// corresponding slice of a full run — for the empty range, a single
// cell, and a range crossing a matrix axis boundary.
func TestCellRangeSlicesMatchFullRun(t *testing.T) {
	spec := shardSpec()
	full, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	total := spec.Normalize().NumCells()
	if total != 16 {
		t.Fatalf("spec expands to %d cells, want 16", total)
	}

	cases := []struct {
		name       string
		start, end int
	}{
		{"empty", 0, 0},
		{"empty mid-matrix", 7, 7},
		{"single cell", 3, 4},
		{"crossing the size axis", 1, 3},
		{"crossing the graph axis", 6, 11},
		{"suffix", 13, 16},
		{"whole matrix", 0, 16},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			shard := spec
			shard.Cells = &CellRange{Start: tc.start, End: tc.end}
			rep, err := Run(shard, Options{Workers: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Cells) != tc.end-tc.start {
				t.Fatalf("range [%d,%d) produced %d cells, want %d",
					tc.start, tc.end, len(rep.Cells), tc.end-tc.start)
			}
			if rep.Jobs != (tc.end-tc.start)*2 {
				t.Errorf("range report counts %d jobs, want %d", rep.Jobs, (tc.end-tc.start)*2)
			}
			for i, c := range rep.Cells {
				got, want := cellJSON(t, c), cellJSON(t, full.Cells[tc.start+i])
				if got != want {
					t.Errorf("cell %d of range [%d,%d) differs from full-run cell %d:\n got %s\nwant %s",
						i, tc.start, tc.end, tc.start+i, got, want)
				}
			}
		})
	}
}

// TestCellRangeStreamsRebasedIndices pins the per-cell cursor contract
// for range runs: OnCellDone indices are rebased to the range and Total is
// the range length, so a consumer of one shard sees a self-contained
// sweep. The fabric relies on this to place a shard's cells.
func TestCellRangeStreamsRebasedIndices(t *testing.T) {
	spec := shardSpec()
	spec.Cells = &CellRange{Start: 5, End: 9}
	var mu sync.Mutex
	seen := map[int]Cell{}
	opts := Options{Workers: 2, OnCellDone: func(cr CellResult) {
		mu.Lock()
		defer mu.Unlock()
		if cr.Index < 0 || cr.Index >= 4 || cr.Total != 4 {
			t.Errorf("cell cursor %d/%d, want an index in [0,4) of 4", cr.Index, cr.Total)
		}
		seen[cr.Index] = cr.Cell
	}}
	rep, err := NewRunner(opts).Run(t.Context(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 4 {
		t.Fatalf("OnCellDone delivered %d distinct cells, want 4", len(seen))
	}
	for i, c := range rep.Cells {
		if cellJSON(t, seen[i]) != cellJSON(t, c) {
			t.Errorf("cell %d delivered by OnCellDone differs from the range report's", i)
		}
	}
}

// TestAssembleReportFromShards pins the fabric's merge step: cells
// collected from contiguous range runs, concatenated in matrix order,
// assemble into a report byte-identical to a single local run.
func TestAssembleReportFromShards(t *testing.T) {
	spec := shardSpec()
	full, err := Run(spec, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var merged []Cell
	for _, r := range [][2]int{{0, 5}, {5, 6}, {6, 13}, {13, 16}} {
		shard := spec
		shard.Cells = &CellRange{Start: r[0], End: r[1]}
		rep, err := Run(shard, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		merged = append(merged, rep.Cells...)
	}
	assembled, err := AssembleReport(spec, merged)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := full.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := assembled.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("assembled shard report differs from the local run")
	}

	// The merge step rejects malformed inputs rather than mis-assembling.
	if _, err := AssembleReport(spec, merged[:3]); err == nil {
		t.Error("AssembleReport accepted an incomplete cell list")
	}
	shard := spec
	shard.Cells = &CellRange{Start: 0, End: 16}
	if _, err := AssembleReport(shard, merged); err == nil {
		t.Error("AssembleReport accepted a spec carrying a cells range")
	}
}

// TestCellRangeValidate pins the range's validation errors.
func TestCellRangeValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		r    CellRange
	}{
		{"negative start", CellRange{Start: -1, End: 2}},
		{"end before start", CellRange{Start: 3, End: 2}},
		{"end beyond matrix", CellRange{Start: 0, End: 17}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := shardSpec()
			spec.Cells = &tc.r
			if err := spec.Normalize().Validate(); err == nil {
				t.Errorf("range %+v validated", tc.r)
			}
		})
	}
}
