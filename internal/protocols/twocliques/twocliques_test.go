package twocliques

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/testutil"
)

func decide(t *testing.T, g *graph.Graph, adv adversary.Adversary) Output {
	t.Helper()
	res := engine.Run(Protocol{}, g, adv, engine.Options{})
	if res.Status != core.Success {
		t.Fatalf("%v: %v (%v)", g, res.Status, res.Err)
	}
	return res.Output.(Output)
}

func TestYesInstances(t *testing.T) {
	for _, half := range []int{1, 2, 3, 5, 8} {
		g := graph.TwoCliques(half, nil)
		for _, adv := range adversary.Standard(2, 23) {
			out := decide(t, g, adv)
			if !out.TwoCliques {
				t.Fatalf("half=%d adv %s: yes-instance rejected", half, adv.Name())
			}
			wantA := make([]int, half)
			wantB := make([]int, half)
			for i := 0; i < half; i++ {
				wantA[i], wantB[i] = i+1, half+i+1
			}
			gotA, gotB := out.Clique0, out.Clique1
			if gotA[0] != 1 {
				gotA, gotB = gotB, gotA
			}
			if !reflect.DeepEqual(gotA, wantA) || !reflect.DeepEqual(gotB, wantB) {
				t.Errorf("half=%d adv %s: partition %v / %v", half, adv.Name(), out.Clique0, out.Clique1)
			}
		}
	}
}

func TestPermutedYesInstances(t *testing.T) {
	perm := []int{4, 7, 1, 6, 3, 8, 2, 5}
	g := graph.TwoCliques(4, perm)
	out := decide(t, g, adversary.Rotor{})
	if !out.TwoCliques {
		t.Fatal("permuted yes-instance rejected")
	}
	want0 := []int{1, 4, 6, 7}
	if !reflect.DeepEqual(out.Clique0, want0) && !reflect.DeepEqual(out.Clique1, want0) {
		t.Errorf("partition %v / %v, want one side %v", out.Clique0, out.Clique1, want0)
	}
}

func TestNoInstancesSwapped(t *testing.T) {
	for _, half := range []int{3, 4, 6} {
		g := graph.TwoCliquesSwapped(half, nil)
		for _, adv := range adversary.Standard(3, 31) {
			out := decide(t, g, adv)
			if out.TwoCliques {
				t.Fatalf("half=%d adv %s: no-instance accepted", half, adv.Name())
			}
		}
	}
}

func TestExhaustiveSchedulesYesAndNo(t *testing.T) {
	// Every schedule on a yes-instance answers yes with the right
	// partition; every schedule on the swapped no-instance answers no.
	// This is the test that catches the paper's missing balance check: the
	// schedule 1,5,3,4,2,6,7,8 on the swapped instance produces no "no"
	// message at all.
	yes := graph.TwoCliques(3, nil)
	_, err := engine.RunAll(Protocol{}, yes, engine.Options{}, 1<<22,
		func(res *core.Result, order []int) error {
			if res.Status != core.Success {
				return fmt.Errorf("yes order %v: %v", order, res.Status)
			}
			out := res.Output.(Output)
			if !out.TwoCliques {
				return fmt.Errorf("yes order %v: rejected", order)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}

	no := graph.TwoCliquesSwapped(3, nil)
	_, err = engine.RunAll(Protocol{}, no, engine.Options{}, 1<<22,
		func(res *core.Result, order []int) error {
			if res.Status != core.Success {
				return fmt.Errorf("no order %v: %v", order, res.Status)
			}
			if res.Output.(Output).TwoCliques {
				return fmt.Errorf("no order %v: accepted", order)
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAdversaryCanSuppressAllNoMessages(t *testing.T) {
	// Documents why the balance check exists: on the swapped instance the
	// scripted schedule floods both ex-cliques with class 0 and nobody
	// writes "no"; only the 8/0 class sizes reveal the lie.
	g := graph.TwoCliquesSwapped(4, nil)
	adv := adversary.NewScripted([]int{1, 5, 3, 4, 2, 6, 7, 8})
	res := engine.Run(Protocol{}, g, adv, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	sawNo := false
	for i := 0; i < res.Board.Len(); i++ {
		_, tag, err := parse(res.Board.At(i), 8)
		if err != nil {
			t.Fatal(err)
		}
		sawNo = sawNo || tag == tagNo
	}
	if sawNo {
		t.Skip("schedule produced a 'no'; the suppression trace changed")
	}
	if res.Output.(Output).TwoCliques {
		t.Fatal("no-instance accepted despite suppressed 'no' messages")
	}
}

func TestOutOfPromiseInputsRejected(t *testing.T) {
	// Not (n−1)-regular: the protocol still answers (the promise is not
	// enforced), and under MinID these read no. Outside the promise other
	// inputs and schedules may read yes (see Protocol).
	for _, g := range []*graph.Graph{
		graph.Path(6),
		graph.Cycle(6),
		graph.Complete(6),
		graph.New(4),
	} {
		out := decide(t, g, adversary.MinID{})
		if out.TwoCliques {
			t.Errorf("%v accepted as two cliques", g)
		}
	}
}

func TestOddNodeCountRejected(t *testing.T) {
	out := decide(t, graph.Complete(3), adversary.MinID{})
	if out.TwoCliques {
		t.Error("odd node count accepted")
	}
}

func TestMessageBudget(t *testing.T) {
	g := graph.TwoCliques(16, nil)
	res := engine.Run(Protocol{}, g, adversary.MaxID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	if res.MaxBits > (Protocol{}).MaxMessageBits(32) {
		t.Errorf("message of %d bits over budget", res.MaxBits)
	}
}

func TestConcurrentEngineAgrees(t *testing.T) {
	g := graph.TwoCliques(5, nil)
	seq := engine.Run(Protocol{}, g, adversary.Rotor{}, engine.Options{})
	for _, con := range testutil.RunConcurrently(Protocol{}, g, adversary.Rotor{}, 4) {
		if seq.Status != core.Success || con.Status != core.Success {
			t.Fatal("runs failed")
		}
		if !reflect.DeepEqual(seq.Output, con.Output) {
			t.Error("sequential and concurrent outputs differ")
		}
	}
}
