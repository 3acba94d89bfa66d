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

// The cached protocol must be observationally identical to the plain one:
// same activations, same messages, same outputs — under every engine.

func TestCachedMatchesUncachedSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	cases := []*graph.Graph{
		graph.Path(9),
		graph.Cycle(7),
		graph.RandomConnectedGNP(20, 0.15, rng),
		graph.RandomGNP(18, 0.1, rng),
		graph.New(5),
	}
	for _, variant := range []Variant{General, EOB, Bipartite} {
		for _, g := range cases {
			if variant != General && !graph.IsEvenOddBipartite(g) {
				continue
			}
			for _, mkAdv := range []func() adversary.Adversary{
				func() adversary.Adversary { return adversary.MinID{} },
				func() adversary.Adversary { return adversary.Rotor{} },
				func() adversary.Adversary { return adversary.NewRandom(9) },
			} {
				plain := engine.Run(New(variant), g, mkAdv(), engine.Options{})
				cached := engine.Run(NewCached(variant), g, mkAdv(), engine.Options{})
				if plain.Status != cached.Status {
					t.Fatalf("%v %v: status %v vs %v", variant, g, plain.Status, cached.Status)
				}
				if plain.Status != core.Success {
					continue
				}
				if plain.Board.Key() != cached.Board.Key() {
					t.Fatalf("%v %v: boards differ", variant, g)
				}
				pf, cf := plain.Output.(Forest), cached.Output.(Forest)
				for v := 1; v <= g.N(); v++ {
					if pf.Parent[v] != cf.Parent[v] || pf.Layer[v] != cf.Layer[v] {
						t.Fatalf("%v %v: outputs differ at node %d", variant, g, v)
					}
				}
			}
		}
	}
}

func TestCachedMatchesUncachedExhaustive(t *testing.T) {
	// RunAll clones boards between branches, deliberately defeating the
	// identity-keyed cache; results must still agree schedule by schedule.
	g := graph.FromEdges(5, [][2]int{{1, 2}, {2, 3}, {3, 4}, {1, 4}, {4, 5}})
	collect := func(p Protocol) map[string]string {
		out := map[string]string{}
		_, err := engine.RunAll(p, g, engine.Options{}, 1<<22,
			func(res *core.Result, order []int) error {
				if res.Status != core.Success {
					return fmt.Errorf("order %v: %v", order, res.Status)
				}
				out[fmt.Sprint(order)] = res.Board.Key()
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	plain := collect(New(General))
	cached := collect(NewCached(General))
	if len(plain) != len(cached) {
		t.Fatalf("schedule counts differ: %d vs %d", len(plain), len(cached))
	}
	for order, key := range plain {
		if cached[order] != key {
			t.Fatalf("order %s: boards differ", order)
		}
	}
}

func TestCachedConcurrentEngine(t *testing.T) {
	// Runs sharing one cached protocol from many goroutines call Activate
	// and Compose on interleaved boards; the cache mutex and board-identity
	// keying must keep every run correct (run under -race in CI).
	rng := rand.New(rand.NewSource(53))
	g := graph.RandomConnectedGNP(16, 0.2, rng)
	p := NewCached(General)
	want := engine.Run(New(General), g, adversary.Rotor{}, engine.Options{})
	for _, res := range testutil.RunConcurrently(p, g, adversary.Rotor{}, 8) {
		if res.Status != core.Success {
			t.Fatalf("%v (%v)", res.Status, res.Err)
		}
		f := res.Output.(Forest)
		if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
			t.Fatal(msg)
		}
		if res.Board.Key() != want.Board.Key() {
			t.Fatal("cached concurrent run wrote a different board than the uncached protocol")
		}
	}
}

func TestCachedReusedAcrossRuns(t *testing.T) {
	// One cached protocol instance across several different graphs and
	// boards: identity keying must isolate the runs from each other.
	p := NewCached(General)
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		g := graph.RandomGNP(12, 0.2, rng)
		res := engine.Run(p, g, adversary.MinID{}, engine.Options{})
		if res.Status != core.Success {
			t.Fatalf("trial %d: %v", trial, res.Err)
		}
		f := res.Output.(Forest)
		if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
			t.Fatalf("trial %d: %s", trial, msg)
		}
	}
}

func TestCachedEOBInvalidFlow(t *testing.T) {
	// Component resets and invalid markers through the incremental path.
	for _, g := range []*graph.Graph{
		graph.Cycle(5),
		graph.FromEdges(7, [][2]int{{1, 2}, {2, 3}, {5, 6}}), // multi-component EOB
	} {
		plain := engine.Run(New(EOB), g, adversary.Rotor{}, engine.Options{})
		cached := engine.Run(NewCached(EOB), g, adversary.Rotor{}, engine.Options{})
		if plain.Status != cached.Status || plain.Board.Key() != cached.Board.Key() {
			t.Fatalf("%v: cached EOB flow diverged", g)
		}
	}
}

// BenchmarkParseCache is the ablation: with the whiteboard re-decoded from
// scratch on every Activate/Compose, a run costs O(n³) decode work; the
// incremental cache reduces it to O(n²) total.
func BenchmarkParseCache(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomConnectedGNP(n, 6.0/float64(n), rng)
		b.Run(fmt.Sprintf("plain/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := engine.Run(New(General), g, adversary.Rotor{}, engine.Options{}); res.Status != core.Success {
					b.Fatal(res.Err)
				}
			}
		})
		b.Run(fmt.Sprintf("cached/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := engine.Run(NewCached(General), g, adversary.Rotor{}, engine.Options{}); res.Status != core.Success {
					b.Fatal(res.Err)
				}
			}
		})
	}
}
