package bfs

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// The protocol folds each message into the board's derived-state slot once
// (core.Fold). These tests pin that the folded state cached on a board
// answers exactly like a cold decode of the same board.

// reader is one way to read a board: a variant at a node count.
type reader struct {
	p     Protocol
	views []core.NodeView
}

func newReader(v Variant, g *graph.Graph, n int) reader {
	views := engine.Views(g)
	for i := range views {
		views[i].N = n
	}
	return reader{p: New(v), views: views}
}

// answers renders every node's Activate and Compose and the Output on b.
func (r reader) answers(b *core.Board) string {
	var sb strings.Builder
	for _, v := range r.views[1:] {
		fmt.Fprintf(&sb, "%d:%v:%s ", v.ID, r.p.Activate(v, b), r.p.Compose(v, b).Key())
	}
	out, err := r.p.Output(len(r.views)-1, b)
	fmt.Fprintf(&sb, "| %+v %v", out, err)
	return sb.String()
}

// checkPrefixes rebuilds src one message at a time and, after each append,
// has every reader in turn read the growing board, whose slot each reader
// takes over from the previous one, and a fresh clone of it: the answers
// must agree.
func checkPrefixes(t *testing.T, label string, src *core.Board, readers ...reader) {
	t.Helper()
	b := core.NewBoard()
	for i := 0; i <= src.Len(); i++ {
		for j, r := range readers {
			if warm, cold := r.answers(b), r.answers(b.Clone()); warm != cold {
				t.Fatalf("%s: reader %d after %d messages:\nwarm %s\ncold %s", label, j, i, warm, cold)
			}
		}
		if i < src.Len() {
			b.Append(src.At(i))
		}
	}
}

// TestFoldAcrossVariantsAndSizes reads one board alternately as General
// and EOB, and at n and at n+5 (the robustness test's wrong-n case): the
// slot is keyed by variant and n, so every read answers as on a fresh
// board.
func TestFoldAcrossVariantsAndSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := graph.RandomEOB(12, 0.3, rng)
	n := g.N()
	readers := []reader{
		newReader(General, g, n),
		newReader(EOB, g, n),
		newReader(General, g, n+5),
		newReader(Bipartite, g, n),
		newReader(General, g, n),
	}
	for _, v := range []Variant{General, EOB} {
		res := engine.Run(New(v), g, adversary.Rotor{}, engine.Options{})
		if res.Status != core.Success {
			t.Fatalf("%v: %v (%v)", v, res.Status, res.Err)
		}
		checkPrefixes(t, v.String()+" board", res.Board, readers...)
	}
}

// TestMalformedMessageFailsEveryCall pins sticky decode errors: once a
// board holds a message that does not decode, Activate refuses every node,
// Compose returns the empty message and Output fails with the same error,
// on every call and after more appends.
func TestMalformedMessageFailsEveryCall(t *testing.T) {
	g := graph.Path(6)
	res := engine.Run(New(General), g, adversary.MinID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	p, views := New(General), engine.Views(g)
	b := res.Board.Truncate(2).Clone()
	activates := 0
	for _, v := range views[1:] {
		if p.Activate(v, b) {
			activates++
		}
	}
	if activates == 0 {
		t.Fatal("no node activates on the valid prefix; the test would prove nothing")
	}
	b.Append(core.Message{Data: []byte{0xff}, Bits: 3})
	var first string
	for round := 0; round < 3; round++ {
		for _, v := range views[1:] {
			if p.Activate(v, b) {
				t.Errorf("round %d: node %d activates on a malformed board", round, v.ID)
			}
			if m := p.Compose(v, b); m.Bits != 0 {
				t.Errorf("round %d: node %d composes %d bits on a malformed board", round, v.ID, m.Bits)
			}
		}
		_, err := p.Output(g.N(), b)
		if err == nil || !strings.HasPrefix(err.Error(), "bfs: message 2: ") {
			t.Fatalf("round %d: Output error %v, want bfs: message 2: …", round, err)
		}
		if round == 0 {
			first = err.Error()
		} else if err.Error() != first {
			t.Errorf("round %d: Output error %q, want %q", round, err, first)
		}
		b.Append(res.Board.At(2 + round))
	}
}

// TestFoldedActivateAllocatesNothing pins the point of the fold: on a board
// whose messages are already folded in, Activate decodes nothing and
// allocates nothing.
func TestFoldedActivateAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	for _, c := range []struct {
		v Variant
		g *graph.Graph
	}{
		{General, graph.RandomConnectedGNP(32, 0.1, rng)},
		{EOB, graph.RandomEOB(32, 0.2, rng)},
	} {
		p, views := New(c.v), engine.Views(c.g)
		res := engine.Run(p, c.g, adversary.Rotor{}, engine.Options{})
		if res.Status != core.Success {
			t.Fatal(res.Err)
		}
		b := res.Board.Truncate(c.g.N() / 2)
		p.Activate(views[1], b)
		allocs := testing.AllocsPerRun(20, func() {
			for _, v := range views[1:] {
				p.Activate(v, b)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: Activate on a folded board makes %.1f allocations per sweep, want 0", c.v, allocs)
		}
	}
}

// TestCachedConcurrentEngine runs one protocol value of each variant from
// several goroutines at once, each reusing its own engine.Runner across
// graphs as campaign workers do: every run folds its own board, so each
// writes the sequential run's board (run under -race in CI).
func TestCachedConcurrentEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for _, c := range []struct {
		v   Variant
		gen func() *graph.Graph
	}{
		{General, func() *graph.Graph { return graph.RandomConnectedGNP(16, 0.2, rng) }},
		{EOB, func() *graph.Graph { return graph.RandomEOB(16, 0.3, rng) }},
		{Bipartite, func() *graph.Graph { return graph.RandomBipartite(16, 0.3, rng) }},
	} {
		p := New(c.v)
		graphs := make([]*graph.Graph, 6)
		want := make([]string, len(graphs))
		for i := range graphs {
			graphs[i] = c.gen()
			res := engine.Run(p, graphs[i], adversary.Rotor{}, engine.Options{})
			if res.Status != core.Success {
				t.Fatalf("%v: %v (%v)", c.v, res.Status, res.Err)
			}
			want[i] = res.Board.Key()
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := engine.NewRunner()
				for i, g := range graphs {
					if res := r.Run(p, g, adversary.Rotor{}, engine.Options{}); res.Board.Key() != want[i] {
						t.Errorf("%v worker %d graph %d: %v (%v), board differs from the sequential run",
							c.v, w, i, res.Status, res.Err)
					}
				}
			}()
		}
		wg.Wait()
	}
}

// TestCachedReusedAcrossRuns reuses one engine.Runner, and so one board,
// across runs of a variant on different graphs of one size, which read the
// board under the same key: Reset must drop the state folded into the
// board, so every run matches a fresh engine.Run.
func TestCachedReusedAcrossRuns(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for _, c := range []struct {
		v   Variant
		gen func() *graph.Graph
	}{
		{General, func() *graph.Graph { return graph.RandomGNP(12, 0.2, rng) }},
		{EOB, func() *graph.Graph { return graph.RandomEOB(12, 0.3, rng) }},
	} {
		r := engine.NewRunner()
		for trial := 0; trial < 10; trial++ {
			g := c.gen()
			want := engine.Run(New(c.v), g, adversary.MinID{}, engine.Options{})
			got := r.Run(New(c.v), g, adversary.MinID{}, engine.Options{})
			if got.Status != want.Status || got.Board.Key() != want.Board.Key() {
				t.Fatalf("%v trial %d: reused runner %v, fresh run %v", c.v, trial, got.Status, want.Status)
			}
			if got.Status != core.Success {
				t.Fatalf("%v trial %d: %v (%v)", c.v, trial, got.Status, got.Err)
			}
			f := got.Output.(Forest)
			if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
				t.Fatalf("%v trial %d: %s", c.v, trial, msg)
			}
		}
	}
}

// TestCachedEOBInvalidFlow drives component restarts and invalid markers
// through the fold: on an odd cycle (rejected) and a multi-component EOB
// graph, every prefix of the run's board reads the same warm as cold.
func TestCachedEOBInvalidFlow(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(5),
		graph.FromEdges(7, [][2]int{{1, 2}, {2, 3}, {5, 6}}),
	} {
		res := engine.Run(New(EOB), g, adversary.Rotor{}, engine.Options{})
		if res.Status != core.Success {
			t.Fatalf("%v: %v (%v)", g, res.Status, res.Err)
		}
		checkPrefixes(t, g.String(), res.Board, newReader(EOB, g, g.N()))
	}
}

// uncached hands every Activate, Compose and Output call a clone of the
// board, whose derived-state slot is empty, so the protocol decodes the
// whole board on each call, as it did before the fold.
type uncached struct{ Protocol }

func (u uncached) Activate(v core.NodeView, b *core.Board) bool {
	return u.Protocol.Activate(v, b.Clone())
}

func (u uncached) Compose(v core.NodeView, b *core.Board) core.Message {
	return u.Protocol.Compose(v, b.Clone())
}

func (u uncached) Output(n int, b *core.Board) (any, error) {
	return u.Protocol.Output(n, b.Clone())
}

// TestCachedMatchesUncachedSequential runs each variant with its state
// folded into the board and with every call decoding the board afresh:
// the runs must write the same board and output the same forest.
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
				plain := engine.Run(uncached{New(variant)}, g, mkAdv(), engine.Options{})
				cached := engine.Run(New(variant), g, mkAdv(), engine.Options{})
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

// TestCachedMatchesUncachedExhaustive walks every schedule with RunAll,
// which clones the board at each branch, so every branch folds its board
// from an empty slot: schedule by schedule, the folded and the uncached
// protocol must write the same board.
func TestCachedMatchesUncachedExhaustive(t *testing.T) {
	g := graph.FromEdges(5, [][2]int{{1, 2}, {2, 3}, {3, 4}, {1, 4}, {4, 5}})
	collect := func(p core.Protocol) map[string]string {
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
	plain := collect(uncached{New(General)})
	cached := collect(New(General))
	if len(plain) != len(cached) {
		t.Fatalf("schedule counts differ: %d vs %d", len(plain), len(cached))
	}
	for order, key := range plain {
		if cached[order] != key {
			t.Fatalf("order %s: boards differ", order)
		}
	}
}
