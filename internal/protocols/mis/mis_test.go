package mis

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

func checkMIS(t *testing.T, g *graph.Graph, root int, set []int) {
	t.Helper()
	if !graph.IsMaximalIndependentSet(g, set) {
		t.Fatalf("root %d: %v is not a MIS of %v", root, set, g)
	}
	found := false
	for _, v := range set {
		if v == root {
			found = true
		}
	}
	if !found {
		t.Fatalf("root %d missing from %v", root, set)
	}
}

func TestGreedyMISUnderManyAdversaries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []*graph.Graph{
		graph.Path(7),
		graph.Cycle(8),
		graph.Star(6),
		graph.Complete(5),
		graph.Grid(3, 3),
		graph.RandomGNP(15, 0.3, rng),
		graph.New(4),
	}
	for _, g := range cases {
		for root := 1; root <= g.N(); root += 3 {
			for _, adv := range adversary.Standard(2, 17) {
				res := engine.Run(Protocol{Root: root}, g, adv, engine.Options{})
				if res.Status != core.Success {
					t.Fatalf("%v root %d adv %s: %v (%v)", g, root, adv.Name(), res.Status, res.Err)
				}
				checkMIS(t, g, root, res.Output.([]int))
			}
		}
	}
}

func TestExhaustiveAllGraphsAllSchedules(t *testing.T) {
	// Theorem 5 made literal for n=4: every labeled graph, every root,
	// every adversarial schedule yields a maximal independent set
	// containing the root.
	graph.AllGraphs(4, func(g *graph.Graph) bool {
		for root := 1; root <= 4; root++ {
			gg := g // captured; engine never mutates
			_, err := engine.RunAll(Protocol{Root: root}, gg, engine.Options{}, 1<<20,
				func(res *core.Result, order []int) error {
					if res.Status != core.Success {
						return fmt.Errorf("%v root %d order %v: %v", gg, root, order, res.Status)
					}
					set := res.Output.([]int)
					if !graph.IsMaximalIndependentSet(gg, set) {
						return fmt.Errorf("%v root %d order %v: %v not a MIS", gg, root, order, set)
					}
					has := false
					for _, v := range set {
						has = has || v == root
					}
					if !has {
						return fmt.Errorf("%v root %d order %v: root missing from %v", gg, root, order, set)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
}

func TestAdversaryChangesTheSetButNotValidity(t *testing.T) {
	// Different schedules may produce different maximal sets — that is
	// allowed; the answer need only be *some* MIS containing the root.
	g := graph.Path(6)
	seen := map[string]bool{}
	_, err := engine.RunAll(Protocol{Root: 1}, g, engine.Options{}, 1<<22,
		func(res *core.Result, _ []int) error {
			seen[fmt.Sprint(res.Output)] = true
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Errorf("expected schedule-dependent sets on P6, saw %v", seen)
	}
}

func TestMessageBudget(t *testing.T) {
	g := graph.Complete(64)
	res := engine.Run(Protocol{Root: 5}, g, adversary.MaxID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	if res.MaxBits > 1+7 { // 1 flag + ⌈log₂ 65⌉ = 7 bits
		t.Errorf("message of %d bits", res.MaxBits)
	}
}

func TestRootAlwaysWins(t *testing.T) {
	// Even when the root is written last and all its neighbors "wanted" in.
	g := graph.Star(5) // center 1
	res := engine.Run(Protocol{Root: 1}, g, adversary.Stubborn{Victim: 1, Inner: adversary.MinID{}}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	set := res.Output.([]int)
	// Leaves wrote first; they are not neighbors of each other but all are
	// neighbors of the root... and the rule excludes N(x) regardless of
	// order, so the set must be exactly {1}? No: leaves are non-neighbors of
	// each other but ARE neighbors of x, so they all write "no" and only the
	// root is in the set — and {1} is maximal in a star.
	checkMIS(t, g, 1, set)
	if len(set) != 1 || set[0] != 1 {
		t.Errorf("star MIS = %v, want [1]", set)
	}
}

// TestOutputLeavesFoldedStateAlone pins that Output hands out a sorted
// copy of the members the board's fold holds: a caller that changes it
// changes neither a later Output nor what nodes compose on the board.
func TestOutputLeavesFoldedStateAlone(t *testing.T) {
	g := graph.Cycle(9)
	p := Protocol{Root: 4}
	res := engine.Run(p, g, adversary.MaxID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	views := engine.Views(g)
	b := res.Board.Truncate(6)
	composed := func(b *core.Board) string {
		var out []string
		for _, v := range views[1:] {
			out = append(out, p.Compose(v, b).String())
		}
		return fmt.Sprint(out)
	}
	want := composed(b.Clone())
	first, err := p.Output(g.N(), b)
	if err != nil {
		t.Fatal(err)
	}
	ids := first.([]int)
	wantIDs := fmt.Sprint(ids)
	for i := range ids {
		ids[i] = 0
	}
	if again, err := p.Output(g.N(), b); err != nil || fmt.Sprint(again) != wantIDs {
		t.Errorf("second Output %v (%v), want %s", again, err, wantIDs)
	}
	if got := composed(b); got != want {
		t.Errorf("Compose after changing Output's result:\n got %s\nwant %s", got, want)
	}
}

func TestConcurrentEngineAgrees(t *testing.T) {
	g := graph.Cycle(9)
	p := Protocol{Root: 4}
	seq := engine.Run(p, g, adversary.Rotor{}, engine.Options{})
	for _, con := range testutil.RunConcurrently(p, g, adversary.Rotor{}, 4) {
		if seq.Status != core.Success || con.Status != core.Success {
			t.Fatal("runs failed")
		}
		if fmt.Sprint(seq.Output) != fmt.Sprint(con.Output) {
			t.Errorf("outputs differ: %v vs %v", seq.Output, con.Output)
		}
	}
}

func TestUnderSimAsyncFreezingMISBreaks(t *testing.T) {
	// Running the same greedy protocol with SIMASYNC freezing (messages
	// composed on the empty board) makes every non-neighbor of the root
	// claim membership — on most graphs that is not independent. This is
	// the operational face of Theorem 6's separation.
	g := graph.Path(5) // root 1; nodes 3,4,5 all claim membership; 3-4 adjacent
	res := engine.Run(Protocol{Root: 1}, g, adversary.MinID{},
		engine.Options{Model: engine.ModelPtr(core.SimAsync)})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	set := res.Output.([]int)
	if graph.IsIndependentSet(g, set) {
		t.Errorf("expected broken independence under SIMASYNC, got %v", set)
	}
}
