package bounds

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/protocols/buildforest"
	"repro/internal/protocols/subgraphf"
	"repro/internal/reductions"
)

func TestCountLabeledTrees(t *testing.T) {
	want := map[int]int64{1: 1, 2: 1, 3: 3, 4: 16, 5: 125, 6: 1296}
	for n, w := range want {
		if got := CountLabeledTrees(n).Int64(); got != w {
			t.Errorf("trees(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestCountLabeledForests(t *testing.T) {
	// OEIS A001858.
	want := map[int]int64{0: 1, 1: 1, 2: 2, 3: 7, 4: 38, 5: 291, 6: 2932, 7: 36961}
	for n, w := range want {
		if got := CountLabeledForests(n).Int64(); got != w {
			t.Errorf("forests(%d) = %d, want %d", n, got, w)
		}
	}
}

func TestForestCountMatchesEnumeration(t *testing.T) {
	for n := 1; n <= 6; n++ {
		count := int64(0)
		graph.AllForests(n, func(*graph.Graph) bool { count++; return true })
		if want := CountLabeledForests(n).Int64(); count != want {
			t.Errorf("n=%d: enumerated %d forests, formula says %d", n, count, want)
		}
	}
}

func TestEOBCountMatchesEnumeration(t *testing.T) {
	for n := 1; n <= 6; n++ {
		count := 0
		graph.AllEOBGraphs(n, func(*graph.Graph) bool { count++; return true })
		if want := math.Exp2(Log2EOBGraphs(n)); math.Abs(float64(count)-want) > 0.5 {
			t.Errorf("n=%d: enumerated %d EOB graphs, formula says %g", n, count, want)
		}
	}
}

func TestLog2BigMatchesFloat(t *testing.T) {
	for n := 2; n <= 30; n++ {
		exact := Log2(CountLabeledTrees(n))
		want := float64(n-2) * math.Log2(float64(n))
		if math.Abs(exact-want) > 1e-9*math.Max(1, want) {
			t.Errorf("n=%d: Log2 = %v, want %v", n, exact, want)
		}
	}
}

func TestLemma3Thresholds(t *testing.T) {
	// All graphs on n nodes need ~n²/2 bits; with f = log n the capacity is
	// ~n log n — violated for all but tiny n.
	if !Lemma3Violated(Log2AllGraphs(100), 100, 7) {
		t.Error("BUILD(all graphs) at f=log n must violate Lemma 3")
	}
	// Forests at f = 4 log n are feasible (that is Theorem 2's point):
	// log2 forests(n) ≈ n log n.
	n := 100
	logF := Log2(CountLabeledForests(n))
	if Lemma3Violated(logF, n, 4*7) {
		t.Error("forests at f=4log n must be feasible")
	}
	// EOB graphs (~n²/4 bits) vs o(n) messages: violated (Theorem 8's
	// counting side).
	if !Lemma3Violated(Log2EOBGraphs(200), 200, 20) {
		t.Error("EOB family at f=20 must violate Lemma 3 at n=200")
	}
	// Theorem 9's family: every graph on f(n) = n/4 nodes, padded with
	// isolated nodes, needs f(n)(f(n)−1)/2 bits; at n = 1024 that is more
	// than g = 16-bit messages can hold, whatever the synchronization.
	if !Lemma3Violated(256*255/2, 1024, 16) {
		t.Error("Theorem 9's family at g=16 must violate Lemma 3 at n=1024")
	}
}

func TestLemma3ReportShape(t *testing.T) {
	rows := Lemma3Report(64, 7)
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.N != 64 || r.FBits != 7 || r.Capacity != 64*7 {
			t.Errorf("row %+v has wrong parameters", r)
		}
		if r.String() == "" {
			t.Error("empty row rendering")
		}
	}
	// All-graphs must be impossible at log-size messages for n=64;
	// forests must be feasible... forests(64) ≈ 64·6 = 384+ bits vs 448
	// capacity: check consistency with the Violated flag rather than
	// hard-coding.
	for _, r := range rows {
		if r.Violated != Lemma3Violated(r.LogCount, r.N, r.FBits) {
			t.Error("flag inconsistent")
		}
	}
}

func TestFindCollisionDegreeOnlyTriangle(t *testing.T) {
	// Theorem 3's spirit, concretely: the degree-only protocol cannot
	// decide TRIANGLE — two 4-node graphs with equal degree multisets,
	// one with a triangle, one without. (C4 vs paw-free pair exists at
	// n=4: C4 degrees (2,2,2,2) no triangle; K3+isolated has degrees
	// (2,2,2,0)... the finder locates a genuine pair itself.)
	col := FindCollision(DegreeOnly{},
		func(fn func(*graph.Graph) bool) { graph.AllGraphs(5, fn) },
		func(g *graph.Graph) string { return fmt.Sprint(graph.HasTriangle(g)) })
	if col == nil {
		t.Fatal("expected a collision for degree-only on 5-node graphs")
	}
	if graph.HasTriangle(col.A) == graph.HasTriangle(col.B) {
		t.Fatal("collision does not separate the property")
	}
	// The witness boards really are identical.
	if SimAsyncBoard(DegreeOnly{}, col.A).ContentKey() != SimAsyncBoard(DegreeOnly{}, col.B).ContentKey() {
		t.Fatal("collision boards differ")
	}
}

func TestFindCollisionSketchOnEOBFamily(t *testing.T) {
	// A 4-bit sketch cannot reconstruct EOB graphs on 6 nodes
	// (2^9 = 512 graphs, distinct as graphs): find two EOB graphs with
	// identical boards but different edge sets.
	col := FindCollision(Sketch{Seed: 42, B: 4},
		func(fn func(*graph.Graph) bool) { graph.AllEOBGraphs(6, fn) },
		func(g *graph.Graph) string { return g.Key() })
	if col == nil {
		t.Fatal("expected a collision for a 4-bit sketch on EOB(6)")
	}
	if col.A.Equal(col.B) {
		t.Fatal("collision graphs are equal")
	}
}

func TestFindCollisionTruncatedRowMIS(t *testing.T) {
	// Truncated rows (SUBGRAPH_f with f = 2: the first 2 columns) cannot
	// decide rooted-MIS answers: use membership of node 5 in the greedy MIS
	// from root 1 as property.
	truncated := subgraphf.Protocol{F: func(int) int { return 2 }, Label: "first-2"}
	col := FindCollision(truncated,
		func(fn func(*graph.Graph) bool) { graph.AllGraphs(5, fn) },
		func(g *graph.Graph) string {
			set, err := reductions.MISOracle(1).Decide(g)
			if err != nil {
				t.Fatal(err)
			}
			return fmt.Sprint(slices.Contains(set.([]int), 5))
		})
	if col == nil {
		t.Fatal("expected a collision for truncated rows on 5-node graphs")
	}
}

func TestNoCollisionForFullInformation(t *testing.T) {
	// Sanity: build-forest's messages DO separate forests — the finder
	// must come up empty (Theorem 2 is a real upper bound).
	col := FindCollision(buildforest.Protocol{},
		func(fn func(*graph.Graph) bool) { graph.AllForests(6, fn) },
		func(g *graph.Graph) string { return g.Key() })
	if col != nil {
		t.Fatalf("unexpected collision between %v and %v", col.A, col.B)
	}
}
