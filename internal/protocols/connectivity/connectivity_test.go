package connectivity

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/protocols/bfs"
)

func decide(t *testing.T, g *graph.Graph, adv adversary.Adversary) Answer {
	t.Helper()
	res := engine.Run(New(), g, adv, engine.Options{})
	if res.Status != core.Success {
		t.Fatalf("%v: %v (%v)", g, res.Status, res.Err)
	}
	return res.Output.(Answer)
}

func TestConnectivityDecision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []*graph.Graph{
		graph.Path(9),
		graph.Cycle(7),
		graph.New(4),
		graph.TwoCliques(4, nil),
		graph.RandomGNP(18, 0.1, rng),
		graph.RandomConnectedGNP(18, 0.12, rng),
		graph.New(1),
	}
	for _, g := range cases {
		for _, adv := range adversary.Standard(2, 73) {
			ans := decide(t, g, adv)
			if ans.Connected != graph.IsConnected(g) {
				t.Fatalf("%v adv %s: connected=%v, want %v", g, adv.Name(), ans.Connected, graph.IsConnected(g))
			}
			if ans.Components != len(graph.Components(g)) {
				t.Errorf("%v: components=%d, want %d", g, ans.Components, len(graph.Components(g)))
			}
		}
	}
}

func TestSpanningForestIsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 15; trial++ {
		g := graph.RandomGNP(16, 0.15, rng)
		ans := decide(t, g, adversary.NewRandom(int64(trial)))
		// Every forest edge is a real edge; edge count = n − #components
		// (the spanning condition).
		for _, e := range ans.SpanningForest {
			if !g.HasEdge(e[0], e[1]) {
				t.Fatalf("forest edge %v not in graph", e)
			}
		}
		if len(ans.SpanningForest) != g.N()-ans.Components {
			t.Fatalf("forest has %d edges, want %d", len(ans.SpanningForest), g.N()-ans.Components)
		}
		// And it is acyclic/spanning: rebuild and compare components.
		forest := graph.New(g.N())
		for _, e := range ans.SpanningForest {
			forest.AddEdge(e[0], e[1])
		}
		if !graph.IsForest(forest) {
			t.Fatal("spanning forest has a cycle")
		}
		if len(graph.Components(forest)) != ans.Components {
			t.Fatal("forest does not span the components")
		}
	}
}

func TestSpanningTreeOnConnectedInput(t *testing.T) {
	g := graph.RandomConnectedGNP(20, 0.15, rand.New(rand.NewSource(3)))
	ans := decide(t, g, adversary.Rotor{})
	if !ans.Connected || len(ans.SpanningForest) != g.N()-1 {
		t.Fatalf("expected spanning tree with %d edges, got %d (connected=%v)",
			g.N()-1, len(ans.SpanningForest), ans.Connected)
	}
	if len(ans.Roots) != 1 || ans.Roots[0] != 1 {
		t.Errorf("roots = %v", ans.Roots)
	}
}

func TestUnderAsyncFreezingMayDeadlock(t *testing.T) {
	// The open side of Open Problem 2/3: this protocol does not survive
	// ASYNC freezing.
	g := graph.FromEdges(6, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}})
	res := engine.Run(New(), g, adversary.MinID{},
		engine.Options{Model: engine.ModelPtr(core.Async)})
	if res.Status != core.Deadlock {
		t.Fatalf("status %v, want deadlock", res.Status)
	}
}

func TestBudgetMatchesBFS(t *testing.T) {
	if New().MaxMessageBits(100) != bfs.New(bfs.General).MaxMessageBits(100) {
		t.Error("connectivity and Theorem 10 BFS budgets differ")
	}
}
