package whiteboard_test

import (
	"math/rand"
	"sync"
	"testing"

	whiteboard "repro"
	"repro/internal/graph"
)

func TestPublicAPIQuickstart(t *testing.T) {
	// The README quickstart, as a test: reconstruct a forest from one
	// O(log n)-bit message per node.
	g := whiteboard.GraphFromEdges(6, [][2]int{{1, 2}, {2, 3}, {4, 5}})
	res := whiteboard.Run(whiteboard.BuildForest(), g, whiteboard.RandomAdversary(7), whiteboard.Options{})
	if res.Status != whiteboard.Success {
		t.Fatalf("status %v (%v)", res.Status, res.Err)
	}
	dec := res.Output.(whiteboard.ForestReconstruction)
	if !dec.InClass || !dec.Forest.Equal(g) {
		t.Fatal("quickstart reconstruction failed")
	}
}

func TestPublicAPIBFSAndForceModel(t *testing.T) {
	g := whiteboard.GraphFromEdges(6, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 1}})
	res := whiteboard.Run(whiteboard.BFS(), g, whiteboard.MinIDAdversary, whiteboard.Options{})
	if res.Status != whiteboard.Success {
		t.Fatalf("SYNC BFS failed: %v", res.Err)
	}
	f := res.Output.(whiteboard.BFSForest)
	if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
		t.Fatal(msg)
	}
	// Forced under ASYNC freezing the same protocol stalls (Open Problem 3
	// evidence).
	res = whiteboard.Run(whiteboard.BFS(), g, whiteboard.MinIDAdversary, whiteboard.ForceModel(whiteboard.Async))
	if res.Status != whiteboard.Deadlock {
		t.Fatalf("expected deadlock under ASYNC freezing, got %v", res.Status)
	}
}

func TestPublicAPIRunAll(t *testing.T) {
	g := whiteboard.GraphFromEdges(3, [][2]int{{1, 2}, {2, 3}})
	schedules, err := whiteboard.RunAll(whiteboard.RootedMIS(1), g, whiteboard.Options{}, 1<<16,
		func(res *whiteboard.Result, order []int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if schedules != 6 {
		t.Fatalf("schedules = %d, want 6", schedules)
	}
}

func TestPublicAPIConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := graph.RandomKDegenerate(20, 2, rng)
	// One protocol value shared by concurrent runs (checked under -race).
	p := whiteboard.BuildKDegenerate(2)
	results := make([]*whiteboard.Result, 4)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = whiteboard.Run(p, g, whiteboard.RotorAdversary, whiteboard.Options{})
		}()
	}
	wg.Wait()
	for _, res := range results {
		if res.Status != whiteboard.Success {
			t.Fatalf("%v (%v)", res.Status, res.Err)
		}
		dec := res.Output.(whiteboard.GraphReconstruction)
		if !dec.InClass || !dec.Graph.Equal(g) {
			t.Fatal("concurrent k-degenerate reconstruction failed")
		}
	}
}

func TestPublicAPIAdversaries(t *testing.T) {
	g := graph.TwoCliques(3, nil)
	for _, adv := range []whiteboard.Adversary{
		whiteboard.MinIDAdversary,
		whiteboard.MaxIDAdversary,
		whiteboard.RotorAdversary,
		whiteboard.RandomAdversary(3),
		whiteboard.StubbornAdversary(2, whiteboard.MinIDAdversary),
		whiteboard.ScriptedAdversary([]int{6, 5, 4, 3, 2, 1}),
	} {
		res := whiteboard.Run(whiteboard.TwoCliquesProtocol(), g, adv, whiteboard.Options{})
		if res.Status != whiteboard.Success {
			t.Fatalf("adv %s: %v", adv.Name(), res.Err)
		}
		if !res.Output.(whiteboard.TwoCliquesAnswer).TwoCliques {
			t.Errorf("adv %s: rejected two cliques", adv.Name())
		}
	}
}

func TestPublicAPISubgraphAndRandCliques(t *testing.T) {
	g := graph.Complete(8)
	res := whiteboard.Run(whiteboard.SubgraphPrefix(func(n int) int { return 3 }, "three"), g,
		whiteboard.MinIDAdversary, whiteboard.Options{})
	if res.Status != whiteboard.Success {
		t.Fatal(res.Err)
	}
	if sub := res.Output.(*whiteboard.Graph); sub.M() != 3 {
		t.Errorf("prefix subgraph has %d edges, want 3", sub.M())
	}

	res = whiteboard.Run(whiteboard.RandomizedTwoCliques(99, 32), graph.TwoCliques(4, nil),
		whiteboard.MinIDAdversary, whiteboard.Options{})
	if res.Status != whiteboard.Success {
		t.Fatal(res.Err)
	}
}

func TestModelConstantsExposed(t *testing.T) {
	if whiteboard.SimAsync.String() != "SIMASYNC" || whiteboard.Sync.String() != "SYNC" {
		t.Error("model constants wrong")
	}
	if !whiteboard.Sync.AtLeast(whiteboard.Async) || whiteboard.SimSync.AtLeast(whiteboard.Async) {
		t.Error("lattice exposed incorrectly")
	}
}
