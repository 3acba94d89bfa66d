package whiteboard_test

import (
	"fmt"
	"math/rand"
	"testing"

	whiteboard "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// Cross-protocol integration: different protocols answering related
// questions about the same graph must agree with each other and with the
// centralized references, across engines and adversaries.

func TestCrossProtocolConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	for trial := 0; trial < 8; trial++ {
		g := graph.RandomKDegenerate(24, 2, rng)
		adv := whiteboard.RandomAdversary(int64(trial))

		// BUILD rebuilds the graph; all other answers must match answers
		// computed on the reconstruction.
		bres := whiteboard.Run(whiteboard.BuildKDegenerate(2), g, adv, whiteboard.Options{})
		if bres.Status != whiteboard.Success {
			t.Fatalf("build: %v", bres.Err)
		}
		rebuilt := bres.Output.(whiteboard.GraphReconstruction).Graph

		cres := whiteboard.Run(whiteboard.Connectivity(), g, whiteboard.RandomAdversary(int64(trial)+100), whiteboard.Options{})
		if cres.Status != whiteboard.Success {
			t.Fatalf("connectivity: %v", cres.Err)
		}
		conn := cres.Output.(whiteboard.ConnectivityAnswer)
		if conn.Connected != graph.IsConnected(rebuilt) {
			t.Fatalf("trial %d: connectivity protocol says %v, rebuilt graph says %v",
				trial, conn.Connected, graph.IsConnected(rebuilt))
		}
		if conn.Components != len(graph.Components(rebuilt)) {
			t.Fatalf("trial %d: component counts disagree", trial)
		}

		fres := whiteboard.Run(whiteboard.CachedBFS(), g, whiteboard.RotorAdversary, whiteboard.Options{})
		if fres.Status != whiteboard.Success {
			t.Fatalf("bfs: %v", fres.Err)
		}
		forest := fres.Output.(whiteboard.BFSForest)
		// The BFS roots are exactly the connectivity roots.
		if fmt.Sprint(forest.Roots) != fmt.Sprint(conn.Roots) {
			t.Fatalf("trial %d: BFS roots %v vs connectivity roots %v", trial, forest.Roots, conn.Roots)
		}

		mres := whiteboard.Run(whiteboard.RootedMIS(3), g, adv, whiteboard.Options{})
		if mres.Status != whiteboard.Success {
			t.Fatalf("mis: %v", mres.Err)
		}
		if !graph.IsMaximalIndependentSet(rebuilt, mres.Output.([]int)) {
			t.Fatalf("trial %d: MIS invalid on the rebuilt graph", trial)
		}
	}
}

func TestAllProtocolsAcrossEngines(t *testing.T) {
	// Every protocol, a fresh Run vs one Runner reused across all of them,
	// identical boards.
	rng := rand.New(rand.NewSource(91))
	tree := graph.RandomTree(12, rng)
	kdeg := graph.RandomKDegenerate(12, 2, rng)
	eob := graph.RandomEOB(12, 0.35, rng)
	bip := graph.RandomBipartite(12, 0.3, rng)
	tc := graph.TwoCliques(6, nil)

	cases := []struct {
		p core.Protocol
		g *graph.Graph
	}{
		{whiteboard.BuildForest(), tree},
		{whiteboard.BuildKDegenerate(2), kdeg},
		{whiteboard.BuildSplitDegenerate(2), graph.Complement(kdeg)},
		{whiteboard.RootedMIS(2), kdeg},
		{whiteboard.TwoCliquesProtocol(), tc},
		{whiteboard.BFS(), kdeg},
		{whiteboard.EOBBFS(), eob},
		{whiteboard.BipartiteBFS(), bip},
		{whiteboard.Connectivity(), kdeg},
		{whiteboard.SubgraphPrefix(func(n int) int { return 4 }, "four"), kdeg},
		{whiteboard.RandomizedTwoCliques(5, 24), tc},
	}
	runner := engine.NewRunner()
	for _, c := range cases {
		seq := engine.Run(c.p, c.g, whiteboard.RotorAdversary, engine.Options{})
		reused := runner.Run(c.p, c.g, whiteboard.RotorAdversary, engine.Options{})
		if seq.Status != core.Success || reused.Status != core.Success {
			t.Fatalf("%s: run=%v (%v) runner=%v (%v)", c.p.Name(), seq.Status, seq.Err, reused.Status, reused.Err)
		}
		if seq.Board.Key() != reused.Board.Key() {
			t.Errorf("%s: engines produced different boards", c.p.Name())
		}
	}
}

func TestEveryProtocolRespectsItsBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	n := 40
	kdeg := graph.RandomKDegenerate(n, 3, rng)
	eob := graph.RandomEOB(n, 0.25, rng)
	tc := graph.TwoCliques(n/2, nil)
	cases := []struct {
		p core.Protocol
		g *graph.Graph
	}{
		{whiteboard.BuildForest(), graph.RandomTree(n, rng)},
		{whiteboard.BuildKDegenerate(3), kdeg},
		{whiteboard.BuildSplitDegenerate(3), graph.Complement(kdeg)},
		{whiteboard.RootedMIS(1), kdeg},
		{whiteboard.TwoCliquesProtocol(), tc},
		{whiteboard.BFS(), kdeg},
		{whiteboard.EOBBFS(), eob},
		{whiteboard.Connectivity(), kdeg},
	}
	for _, c := range cases {
		res := engine.Run(c.p, c.g, whiteboard.MaxIDAdversary, engine.Options{})
		if res.Status != core.Success {
			t.Fatalf("%s: %v (%v)", c.p.Name(), res.Status, res.Err)
		}
		budget := c.p.MaxMessageBits(c.g.N())
		if res.MaxBits > budget {
			t.Errorf("%s: %d bits over the declared %d budget", c.p.Name(), res.MaxBits, budget)
		}
		// The budget must be honest work, not slack: at least one message
		// within 4x of it (guards against wildly over-declared budgets).
		if res.MaxBits*4 < budget {
			t.Errorf("%s: budget %d is more than 4x the observed %d", c.p.Name(), budget, res.MaxBits)
		}
	}
}

func TestBoardTotalBitsIsLemma3Quantity(t *testing.T) {
	// The board never exceeds n·f(n) bits — the capacity Lemma 3 counts.
	rng := rand.New(rand.NewSource(93))
	g := graph.RandomKDegenerate(30, 2, rng)
	p := whiteboard.BuildKDegenerate(2)
	res := engine.Run(p, g, whiteboard.MinIDAdversary, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	if res.Board.TotalBits() > g.N()*p.MaxMessageBits(g.N()) {
		t.Error("board exceeds n·f(n) bits")
	}
	if res.Board.Len() != g.N() {
		t.Errorf("board has %d messages, want exactly n=%d", res.Board.Len(), g.N())
	}
}
