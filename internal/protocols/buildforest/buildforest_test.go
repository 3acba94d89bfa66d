package buildforest

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/testutil"
)

func reconstruct(t *testing.T, g *graph.Graph, adv adversary.Adversary) Decoded {
	t.Helper()
	res := engine.Run(Protocol{}, g, adv, engine.Options{})
	if res.Status != core.Success {
		t.Fatalf("run on %v: %v (%v)", g, res.Status, res.Err)
	}
	return res.Output.(Decoded)
}

func TestReconstructsPathsStarsTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []*graph.Graph{
		graph.New(1),
		graph.New(4),
		graph.Path(2),
		graph.Path(7),
		graph.Star(6),
		graph.RandomTree(15, rng),
		graph.RandomForest(20, 0.5, rng),
	}
	for _, g := range cases {
		for _, adv := range adversary.Standard(2, 7) {
			d := reconstruct(t, g, adv)
			if !d.InClass {
				t.Fatalf("%v rejected as non-forest", g)
			}
			if !d.Forest.Equal(g) {
				t.Errorf("adv %s: reconstruction mismatch:\n got %v\nwant %v", adv.Name(), d.Forest, g)
			}
		}
	}
}

func TestRejectsCycles(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(3),
		graph.Cycle(6),
		graph.Complete(4),
		graph.FromEdges(6, [][2]int{{1, 2}, {2, 3}, {3, 1}, {4, 5}}),
	} {
		d := reconstruct(t, g, adversary.MinID{})
		if d.InClass {
			t.Errorf("%v accepted as forest", g)
		}
	}
}

func TestAllForestsOnFiveNodesAllSchedules(t *testing.T) {
	// Exhaustive: every labeled forest on 5 nodes, every adversary schedule.
	forests := 0
	graph.AllForests(5, func(g *graph.Graph) bool {
		want := g.Clone()
		_, err := engine.RunAll(Protocol{}, g, engine.Options{}, 1<<20,
			func(res *core.Result, order []int) error {
				if res.Status != core.Success {
					return fmt.Errorf("%v order %v: %v", want, order, res.Status)
				}
				d := res.Output.(Decoded)
				if !d.InClass || !d.Forest.Equal(want) {
					return fmt.Errorf("%v order %v: bad reconstruction", want, order)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		forests++
		return true
	})
	if forests != 291 { // labeled forests on 5 nodes (OEIS A001858)
		t.Errorf("visited %d forests, want 291", forests)
	}
}

func TestAllNonForestsOnFiveNodesRejected(t *testing.T) {
	graph.AllGraphs(5, func(g *graph.Graph) bool {
		if graph.IsForest(g) {
			return true
		}
		res := engine.Run(Protocol{}, g, adversary.Rotor{}, engine.Options{})
		if res.Status != core.Success {
			t.Fatalf("%v: %v (%v)", g, res.Status, res.Err)
		}
		if res.Output.(Decoded).InClass {
			t.Errorf("%v accepted as forest", g)
			return false
		}
		return true
	})
}

func TestMessageSizeIsLogarithmic(t *testing.T) {
	// Lemma-1-style bound for the k=1 warm-up: under 4·⌈log₂(n+1)⌉ + 2 bits.
	for _, n := range []int{2, 10, 100, 1000, 100000} {
		budget := (Protocol{}).MaxMessageBits(n)
		bound := 4*int(math.Ceil(math.Log2(float64(n+1)))) + 2
		if budget > bound {
			t.Errorf("n=%d: budget %d bits exceeds %d", n, budget, bound)
		}
	}
	// And the engine observes messages within budget.
	g := graph.Star(100)
	res := engine.Run(Protocol{}, g, adversary.MinID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	if res.MaxBits > (Protocol{}).MaxMessageBits(100) {
		t.Errorf("observed %d bits > budget", res.MaxBits)
	}
}

func TestOutputOrderInsensitive(t *testing.T) {
	// SIMASYNC messages are fixed; the output must not depend on the
	// adversary's interleaving.
	rng := rand.New(rand.NewSource(3))
	g := graph.RandomTree(9, rng)
	var boards []string
	var first *graph.Graph
	for seed := int64(0); seed < 10; seed++ {
		res := engine.Run(Protocol{}, g, adversary.NewRandom(seed), engine.Options{})
		if res.Status != core.Success {
			t.Fatal(res.Err)
		}
		boards = append(boards, res.Board.ContentKey())
		d := res.Output.(Decoded)
		if first == nil {
			first = d.Forest
		} else if !d.Forest.Equal(first) {
			t.Fatal("output depends on schedule")
		}
	}
	for _, b := range boards[1:] {
		if b != boards[0] {
			t.Error("board content (as multiset) must be schedule independent")
		}
	}
}

func TestQuickRandomForestsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		g := graph.RandomForest(n, rng.Float64(), rng)
		d := reconstruct(t, g, adversary.NewRandom(int64(trial)))
		if !d.InClass || !d.Forest.Equal(g) {
			t.Fatalf("trial %d: round trip failed for %v", trial, g)
		}
	}
}

func TestConcurrentEngineAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.RandomTree(12, rng)
	seq := engine.Run(Protocol{}, g, adversary.Rotor{}, engine.Options{})
	for _, con := range testutil.RunConcurrently(Protocol{}, g, adversary.Rotor{}, 4) {
		if seq.Status != core.Success || con.Status != core.Success {
			t.Fatal("runs failed")
		}
		if !seq.Output.(Decoded).Forest.Equal(con.Output.(Decoded).Forest) {
			t.Error("sequential and concurrent outputs differ")
		}
	}
}

// TestOutputAllocs pins the allocations of one Output call on P8: the
// forest (its graph struct, its adjacency row table, the bitset and one
// adjacency backing array) and the boxed result. Four per-node arrays and
// adjacency lists grown edge by edge made 24; a per-node array, a separate
// leaf queue and a table of bitset rows made 9; one heap scratch array
// (per-node fields and the leaf stack) and a heap edge list made 7.
func TestOutputAllocs(t *testing.T) {
	g := graph.Path(8)
	res := engine.Run(Protocol{}, g, adversary.MinID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatalf("%v (%v)", res.Status, res.Err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := (Protocol{}).Output(g.N(), res.Board); err != nil {
			t.Fatal(err)
		}
	})
	const want = 5
	if allocs > want {
		t.Errorf("%.1f allocations per Output, want at most %d", allocs, want)
	}
}

// TestAppendOutputAllocatesNothing pins the point of AppendOutput: on the
// final board of a run on P8, where Output builds a graph (5 allocations),
// appending its text to a buffer with room allocates nothing.
func TestAppendOutputAllocatesNothing(t *testing.T) {
	g := graph.Path(8)
	res := engine.Run(Protocol{}, g, adversary.MinID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatalf("%v (%v)", res.Status, res.Err)
	}
	buf := make([]byte, 0, 256)
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = (Protocol{}).AppendOutput(buf[:0], g.N(), res.Board); err != nil {
			t.Fatal(err)
		}
	})
	if want := res.Output.(Decoded).String(); string(buf) != want {
		t.Fatalf("AppendOutput = %q, want %q", buf, want)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per AppendOutput, want 0", allocs)
	}
}

// plainDecoded has Decoded's fields and no methods, so fmt's %v renders
// it field by field, as it rendered Decoded before Decoded had a String
// method.
type plainDecoded struct {
	Forest  *graph.Graph
	InClass bool
}

// TestStringMatchesFmt checks Decoded's renderer against fmt's %v of its
// fields, over every output of build-forest's exhaustive spectra on paths,
// cycles, stars and complete graphs of up to 5 nodes: String returns that
// text, and AppendString appends it to what the buffer holds.
func TestStringMatchesFmt(t *testing.T) {
	seen := map[string]bool{}
	for n := 1; n <= 5; n++ {
		graphs := []*graph.Graph{graph.Path(n), graph.Star(n), graph.Complete(n)}
		if n >= 3 {
			graphs = append(graphs, graph.Cycle(n))
		}
		for _, g := range graphs {
			_, err := engine.RunAllMemo(Protocol{}, g, engine.Options{}, 1<<20,
				func(res *core.Result, _ *big.Int) error {
					if res.Status != core.Success {
						return fmt.Errorf("%v: %v (%v)", g, res.Status, res.Err)
					}
					d := res.Output.(Decoded)
					want := fmt.Sprintf("%v", plainDecoded{d.Forest, d.InClass})
					if got := d.String(); got != want {
						return fmt.Errorf("%v: String() = %q, want %q", g, got, want)
					}
					if got := string(d.AppendString([]byte("key:"))); got != "key:"+want {
						return fmt.Errorf("%v: AppendString = %q, want %q", g, got, "key:"+want)
					}
					seen[want] = true
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, want := range []string{"{<nil> false}", "{G(n=5, m=4: 1-2 2-3 3-4 4-5) true}", "{G(n=1, m=0:) true}"} {
		if !seen[want] {
			t.Errorf("no output rendered %q among %d distinct outputs", want, len(seen))
		}
	}
}
