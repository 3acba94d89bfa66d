package bfs

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/testutil"
)

// assertCanonicalForest checks the output against the reference BFS forest
// (min-ID roots per component, distance layers, min-ID previous-layer
// parents — all deterministic, schedule independent).
func assertCanonicalForest(t *testing.T, g *graph.Graph, f Forest) {
	t.Helper()
	if !f.Valid {
		t.Fatalf("%v: output marked invalid", g)
	}
	if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
		t.Fatalf("%v: %s", g, msg)
	}
	want := graph.BFSForest(g)
	if len(f.Roots) != len(want.Roots) {
		t.Fatalf("%v: roots %v, want %v", g, f.Roots, want.Roots)
	}
	for i := range f.Roots {
		if f.Roots[i] != want.Roots[i] {
			t.Fatalf("%v: roots %v, want %v", g, f.Roots, want.Roots)
		}
	}
}

func TestGeneralBFSOnStandardGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cases := []*graph.Graph{
		graph.New(1),
		graph.New(5),
		graph.Path(8),
		graph.Cycle(5), // odd cycle: intra-layer edge
		graph.Cycle(6),
		graph.Complete(5),
		graph.Star(7),
		graph.Grid(3, 4),
		graph.RandomConnectedGNP(15, 0.2, rng),
		graph.RandomGNP(14, 0.15, rng), // possibly disconnected
		graph.FromEdges(7, [][2]int{{2, 3}, {3, 4}, {5, 6}}),
		graph.TwoCliques(4, nil),
	}
	p := New(General)
	for _, g := range cases {
		for _, adv := range adversary.Standard(3, 41) {
			res := engine.Run(p, g, adv, engine.Options{})
			if res.Status != core.Success {
				t.Fatalf("%v adv %s: %v (%v)", g, adv.Name(), res.Status, res.Err)
			}
			assertCanonicalForest(t, g, res.Output.(Forest))
		}
	}
}

func TestGeneralBFSExhaustiveAllGraphsAllSchedules(t *testing.T) {
	// Theorem 10 made literal for n ≤ 4 (plus spot n=5 below): every
	// labeled graph, every adversarial schedule, the canonical BFS forest.
	for n := 1; n <= 4; n++ {
		graph.AllGraphs(n, func(g *graph.Graph) bool {
			want := graph.BFSForest(g)
			_, err := engine.RunAll(New(General), g, engine.Options{}, 1<<22,
				func(res *core.Result, order []int) error {
					if res.Status != core.Success {
						return fmt.Errorf("%v order %v: %v (%v)", g, order, res.Status, res.Err)
					}
					f := res.Output.(Forest)
					for v := 1; v <= g.N(); v++ {
						if f.Parent[v] != want.Parent[v] || f.Layer[v] != want.Layer[v] {
							return fmt.Errorf("%v order %v: node %d got (%d,%d) want (%d,%d)",
								g, order, v, f.Parent[v], f.Layer[v], want.Parent[v], want.Layer[v])
						}
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
}

func TestGeneralBFSExhaustiveSampledFiveNodes(t *testing.T) {
	// All 5-node graphs, one deterministic + one random schedule each
	// (full schedule enumeration for all 1024 graphs is done at n ≤ 4).
	count := 0
	graph.AllGraphs(5, func(g *graph.Graph) bool {
		count++
		for _, adv := range []adversary.Adversary{adversary.MaxID{}, adversary.NewRandom(int64(count))} {
			res := engine.Run(New(General), g, adv, engine.Options{})
			if res.Status != core.Success {
				t.Fatalf("%v: %v (%v)", g, res.Status, res.Err)
			}
			assertCanonicalForest(t, g, res.Output.(Forest))
		}
		return true
	})
}

func TestEOBBFSOnEOBGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := []*graph.Graph{
		graph.New(3),
		graph.FromEdges(2, [][2]int{{1, 2}}),
		graph.FromEdges(6, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}}),
		graph.RandomEOB(11, 0.4, rng),
		graph.RandomEOB(12, 0.25, rng),
		graph.CompleteBipartite(1, 1),
	}
	p := New(EOB)
	for _, g := range cases {
		if !graph.IsEvenOddBipartite(g) {
			t.Fatalf("test case %v is not EOB", g)
		}
		for _, adv := range adversary.Standard(3, 43) {
			res := engine.Run(p, g, adv, engine.Options{})
			if res.Status != core.Success {
				t.Fatalf("%v adv %s: %v (%v)", g, adv.Name(), res.Status, res.Err)
			}
			assertCanonicalForest(t, g, res.Output.(Forest))
		}
	}
}

func TestEOBBFSRejectsInvalidInputs(t *testing.T) {
	p := New(EOB)
	for _, g := range []*graph.Graph{
		graph.FromEdges(4, [][2]int{{1, 3}}),         // odd-odd edge
		graph.Cycle(5),                               // odd cycle
		graph.Complete(4),                            // everything wrong
		graph.FromEdges(6, [][2]int{{1, 2}, {2, 4}}), // even-even edge 2-4
	} {
		for _, adv := range adversary.Standard(2, 47) {
			res := engine.Run(p, g, adv, engine.Options{})
			if res.Status != core.Success {
				t.Fatalf("%v adv %s: %v (%v) — rejection must still terminate", g, adv.Name(), res.Status, res.Err)
			}
			if res.Output.(Forest).Valid {
				t.Errorf("%v adv %s: invalid input accepted", g, adv.Name())
			}
		}
	}
}

func TestEOBBFSExhaustiveAllEOBGraphsAllSchedules(t *testing.T) {
	// Theorem 7 made literal for n ≤ 6 (512 EOB graphs at n=6).
	for n := 1; n <= 6; n++ {
		graph.AllEOBGraphs(n, func(g *graph.Graph) bool {
			want := graph.BFSForest(g)
			_, err := engine.RunAll(New(EOB), g, engine.Options{}, 1<<22,
				func(res *core.Result, order []int) error {
					if res.Status != core.Success {
						return fmt.Errorf("%v order %v: %v (%v)", g, order, res.Status, res.Err)
					}
					f := res.Output.(Forest)
					if !f.Valid {
						return fmt.Errorf("%v order %v: EOB input rejected", g, order)
					}
					for v := 1; v <= g.N(); v++ {
						if f.Parent[v] != want.Parent[v] || f.Layer[v] != want.Layer[v] {
							return fmt.Errorf("%v order %v: node %d wrong", g, order, v)
						}
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			return true
		})
	}
}

func TestEOBBFSExhaustiveRejectionSchedules(t *testing.T) {
	// Every schedule on small invalid inputs terminates with Valid=false.
	for _, g := range []*graph.Graph{
		graph.Cycle(3),
		graph.FromEdges(4, [][2]int{{1, 3}, {2, 4}, {1, 2}}),
	} {
		_, err := engine.RunAll(New(EOB), g, engine.Options{}, 1<<22,
			func(res *core.Result, order []int) error {
				if res.Status != core.Success {
					return fmt.Errorf("%v order %v: %v", g, order, res.Status)
				}
				if res.Output.(Forest).Valid {
					return fmt.Errorf("%v order %v: accepted", g, order)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestBipartiteBFSWorksWithoutParityAlignment(t *testing.T) {
	// Corollary 4: arbitrary bipartite graphs (partition not known from
	// identifiers) in ASYNC.
	rng := rand.New(rand.NewSource(8))
	p := New(Bipartite)
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomBipartite(12, 0.3, rng)
		for _, adv := range adversary.Standard(2, 53) {
			res := engine.Run(p, g, adv, engine.Options{})
			if res.Status != core.Success {
				t.Fatalf("%v adv %s: %v (%v)", g, adv.Name(), res.Status, res.Err)
			}
			assertCanonicalForest(t, g, res.Output.(Forest))
		}
	}
}

func TestBipartiteBFSDeadlocksOnNonBipartite(t *testing.T) {
	// The paper: "In the case of a non-bipartite graph though, running this
	// protocol can result in a deadlock." A lone odd cycle happens to
	// finish (the miscounted certificate blocks nothing after the last
	// layer), so the witnesses put work *after* the odd cycle:
	cases := []*graph.Graph{
		// C5 plus an isolated node: the final layer announces phantom
		// forward edges, so the second component's root never activates.
		graph.FromEdges(6, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}}),
		// Triangle with a path hanging off it: layer 2's completion target
		// is inflated by the intra-layer edge, so layer 3 never activates.
		graph.FromEdges(5, [][2]int{{1, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}}),
	}
	for _, g := range cases {
		res := engine.Run(New(Bipartite), g, adversary.MinID{}, engine.Options{})
		if res.Status != core.Deadlock {
			t.Fatalf("%v: status %v (err %v), want deadlock", g, res.Status, res.Err)
		}
	}
}

func TestOpenProblem3SyncBFSUnderAsyncFreezingDeadlocks(t *testing.T) {
	// E-OP3: the Theorem 10 protocol relies on composing d0 at write time.
	// Frozen at activation (ASYNC semantics), d0 is always 0, the
	// forward-edge certificate never reaches zero on a component whose BFS
	// tree has an intra-layer edge, and the next component never starts.
	g := graph.Cycle(5).Clone()
	// add isolated node 6: C5 ∪ {6}
	g2 := graph.New(6)
	for _, e := range g.Edges() {
		g2.AddEdge(e[0], e[1])
	}

	native := engine.Run(New(General), g2, adversary.MinID{}, engine.Options{})
	if native.Status != core.Success {
		t.Fatalf("native SYNC run failed: %v (%v)", native.Status, native.Err)
	}
	assertCanonicalForest(t, g2, native.Output.(Forest))

	frozen := engine.Run(New(General), g2, adversary.MinID{},
		engine.Options{Model: engine.ModelPtr(core.Async)})
	if frozen.Status != core.Deadlock {
		t.Fatalf("ASYNC-frozen run: %v (err %v), want deadlock", frozen.Status, frozen.Err)
	}
	if len(frozen.Writes) != 5 {
		t.Errorf("expected the C5 component to finish (5 writes) before stalling, got %d", len(frozen.Writes))
	}
}

func TestMessageBudgets(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := graph.RandomConnectedGNP(64, 0.1, rng)
	res := engine.Run(New(General), g, adversary.Rotor{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	if res.MaxBits > New(General).MaxMessageBits(64) {
		t.Errorf("observed %d bits over budget", res.MaxBits)
	}
	eob := graph.RandomEOB(40, 0.3, rng)
	res = engine.Run(New(EOB), eob, adversary.Rotor{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	if res.MaxBits > New(EOB).MaxMessageBits(40) {
		t.Errorf("EOB: observed %d bits over budget", res.MaxBits)
	}
}

func TestConcurrentEngineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	g := graph.RandomConnectedGNP(13, 0.25, rng)
	seq := engine.Run(New(General), g, adversary.Rotor{}, engine.Options{})
	for _, con := range testutil.RunConcurrently(New(General), g, adversary.Rotor{}, 4) {
		if seq.Status != core.Success || con.Status != core.Success {
			t.Fatalf("statuses %v/%v", seq.Status, con.Status)
		}
		sf, cf := seq.Output.(Forest), con.Output.(Forest)
		for v := 1; v <= g.N(); v++ {
			if sf.Parent[v] != cf.Parent[v] || sf.Layer[v] != cf.Layer[v] {
				t.Fatalf("runs disagree at node %d", v)
			}
		}
	}
}

func TestStubbornAdversaryCannotBreakEOB(t *testing.T) {
	// Delaying one frozen message as long as possible must not corrupt the
	// forest: the layer certificates wait for the victim.
	g := graph.RandomEOB(10, 0.5, rand.New(rand.NewSource(11)))
	for victim := 1; victim <= 10; victim++ {
		adv := adversary.Stubborn{Victim: victim, Inner: adversary.MinID{}}
		res := engine.Run(New(EOB), g, adv, engine.Options{})
		if res.Status != core.Success {
			t.Fatalf("victim %d: %v (%v)", victim, res.Status, res.Err)
		}
		assertCanonicalForest(t, g, res.Output.(Forest))
	}
}

func TestVariantMetadata(t *testing.T) {
	if New(General).Model() != core.Sync || New(EOB).Model() != core.Async ||
		New(Bipartite).Model() != core.Async {
		t.Error("variant models wrong")
	}
	if New(General).Name() != "bfs-general" || New(EOB).Name() != "bfs-eob" {
		t.Error("variant names wrong")
	}
	if New(EOB).MaxMessageBits(100) <= New(Bipartite).MaxMessageBits(100) {
		t.Error("EOB budget must include the invalid flag")
	}
	if New(General).MaxMessageBits(100) <= New(Bipartite).MaxMessageBits(100) {
		t.Error("General budget must include d0")
	}
}
