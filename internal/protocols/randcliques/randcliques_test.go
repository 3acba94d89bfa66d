package randcliques

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

func decide(t *testing.T, p Protocol, g *graph.Graph) bool {
	t.Helper()
	res := engine.Run(p, g, adversary.Rotor{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatalf("%v: %v (%v)", g, res.Status, res.Err)
	}
	return res.Output.(Output).TwoCliques
}

func TestYesInstancesAccepted(t *testing.T) {
	for _, half := range []int{1, 2, 4, 8, 16} {
		g := graph.TwoCliques(half, nil)
		for seed := uint64(1); seed <= 5; seed++ {
			if !decide(t, Protocol{Seed: seed, Bits: 32}, g) {
				t.Errorf("half=%d seed=%d: yes-instance rejected", half, seed)
			}
		}
	}
}

func TestPermutedYesInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		perm := rng.Perm(12)
		for i := range perm {
			perm[i]++
		}
		g := graph.TwoCliques(6, perm)
		if !decide(t, Protocol{Seed: uint64(trial) + 1, Bits: 32}, g) {
			t.Errorf("trial %d: permuted yes-instance rejected", trial)
		}
	}
}

func TestNoInstancesRejected(t *testing.T) {
	cases := []*graph.Graph{
		graph.TwoCliquesSwapped(4, nil),
		graph.TwoCliquesSwapped(6, nil),
		graph.Cycle(8),    // 2-regular, not (n-1)-regular, still a no
		graph.Complete(8), // one clique
		graph.Path(8),
		graph.CompleteBipartite(4, 4), // (n/2)-regular no-instance
	}
	for _, g := range cases {
		for seed := uint64(1); seed <= 5; seed++ {
			if decide(t, Protocol{Seed: seed, Bits: 32}, g) {
				t.Errorf("seed=%d: no-instance %v accepted", seed, g)
			}
		}
	}
}

func TestErrorRateShrinksWithBits(t *testing.T) {
	// With B=2 the fingerprints collide often; with B=32 essentially never.
	// Measure false-accept rate over no-instances derived from random
	// regular-ish perturbations.
	countErrors := func(bits int) int {
		errs := 0
		for trial := 0; trial < 200; trial++ {
			g := graph.TwoCliquesSwapped(4, nil)
			if decide(t, Protocol{Seed: uint64(trial)*2654435761 + 1, Bits: bits}, g) {
				errs++
			}
		}
		return errs
	}
	small := countErrors(2)
	large := countErrors(32)
	if large > 0 {
		t.Errorf("B=32 produced %d false accepts", large)
	}
	// B=2: 4 fingerprint values; the 4 distinct neighborhoods of the
	// swapped instance must land on exactly 2 balanced values to fool us —
	// unlikely per trial but not negligible; just require it is not *more*
	// reliable than B=32 plus slack.
	if small < large {
		t.Errorf("error rate did not shrink with bits: B2=%d B32=%d", small, large)
	}
}

func TestOpenProblem4SixteenBitsNoErrors(t *testing.T) {
	// Open Problem 4's witness: at 16 bits the randomized SIMASYNC protocol
	// answers both the yes- and the no-instance on 16 nodes right under
	// every one of 500 seeds.
	yes, no := graph.TwoCliques(8, nil), graph.TwoCliquesSwapped(8, nil)
	for s := uint64(0); s < 500; s++ {
		p := Protocol{Seed: s*0x9E3779B9 + 1, Bits: 16}
		if !decide(t, p, yes) || decide(t, p, no) {
			t.Errorf("seed %d: wrong answer", p.Seed)
		}
	}
}

func TestOddNRejected(t *testing.T) {
	if decide(t, Protocol{Seed: 7, Bits: 32}, graph.Complete(5)) {
		t.Error("odd n accepted")
	}
}

func TestBudgetIsConstantWidth(t *testing.T) {
	p := Protocol{Seed: 1, Bits: 24}
	g := graph.TwoCliques(32, nil)
	res := engine.Run(p, g, adversary.MinID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	if res.MaxBits != 24 {
		t.Errorf("message bits = %d, want 24", res.MaxBits)
	}
}

func TestDefaultWidth(t *testing.T) {
	if (Protocol{}).width() != 32 || (Protocol{Bits: 99}).width() != 32 || (Protocol{Bits: 64}).width() != 64 {
		t.Error("width defaulting wrong")
	}
}
