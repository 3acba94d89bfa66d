package main

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/resultstore"
)

// fakeEntries stands in for a filled store: groups × runs entries.
func fakeEntries(groups, runs int) []resultstore.Entry {
	var out []resultstore.Entry
	seq := 0
	for r := 0; r < runs; r++ {
		for g := 0; g < groups; g++ {
			seq++
			out = append(out, resultstore.Entry{
				SpecHash: fmt.Sprintf("%012x", g+1), Label: fmt.Sprintf("run-%03d", seq), Seq: seq,
			})
		}
	}
	return out
}

func TestServeMixIsSeeded(t *testing.T) {
	entries := fakeEntries(50, 4)
	protos := []string{"bfs", "mis"}
	a := genMix(7, 2000, entries, protos, 50)
	b := genMix(7, 2000, entries, protos, 50)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("equal seeds gave different request mixes")
	}
	if reflect.DeepEqual(a, genMix(8, 2000, entries, protos, 50)) {
		t.Fatal("different seeds gave the same request mix")
	}
	x, err := serveSpecs(7, 30)
	if err != nil {
		t.Fatal(err)
	}
	y, err := serveSpecs(7, 30)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(x, y) {
		t.Fatal("equal seeds gave different store contents")
	}
}

func TestServeMixShares(t *testing.T) {
	entries := fakeEntries(50, 4)
	const n = 20000
	mix := genMix(3, n, entries, []string{"bfs"}, 50)
	counts := map[string]int{}
	for _, rq := range mix {
		counts[rq.kind]++
		if rq.kind == "diff" && (rq.old.SpecHash != rq.new.SpecHash || rq.old == rq.new) {
			t.Fatalf("diff pairs two runs of one spec group, got %v and %v", rq.old, rq.new)
		}
	}
	for _, m := range serveMix {
		got := float64(counts[m.kind]) / n * 100
		if got < float64(m.share)-1.5 || got > float64(m.share)+1.5 {
			t.Errorf("%s is %.1f%% of the mix, want about %d%%", m.kind, got, m.share)
		}
	}
}

func TestServeSpecsHashApart(t *testing.T) {
	specs, err := serveSpecs(1, serveGroups)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, spec := range specs {
		spec = spec.Normalize()
		if err := spec.Validate(); err != nil {
			t.Fatal(err)
		}
		h := resultstore.SpecHash(spec)
		if seen[h] {
			t.Fatalf("two spec groups share hash %s", h)
		}
		seen[h] = true
	}
}
