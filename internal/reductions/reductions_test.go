package reductions

import (
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/protocols/bfs"
)

// pairCase is one row of the table the pair-gadget tests share.
type pairCase struct {
	gadget PairGadget
	inner  func(n int) core.Protocol // the prime's Inner on n-node inputs
	verify func(*graph.Graph) error
	// inputs meet the gadget's precondition: verify accepts them, and the
	// prime must rebuild them under every standard adversary.
	inputs []*graph.Graph
	bad    *graph.Graph // breaks the precondition; nil when none can
}

func pairCases() map[string]pairCase {
	rng := rand.New(rand.NewSource(5))
	square := []*graph.Graph{
		graph.RandomTree(9, rng),
		graph.RandomTree(8, rng),
		graph.Cycle(5),
		graph.Cycle(7),
		graph.Path(6),
		graph.New(4),
		graph.Complete(3), // triangles are fine; squares are not
		graph.PolarityGraph(2),
	}
	// ER_3 heads the SQUARE bound's counting family; its random subgraphs
	// are TestSquarePrimeOnPolaritySubgraphs' inputs.
	square = append(square, graph.PolarityGraph(3))
	return map[string]pairCase{
		"triangle": {
			gadget: Triangle,
			inner:  func(int) core.Protocol { return TriangleOracle },
			verify: VerifyTriangleGadget,
			inputs: []*graph.Graph{
				graph.RandomBipartite(8, 0.5, rng),
				graph.RandomBipartite(9, 0.5, rng),
				graph.RandomEOB(9, 0.4, rng),
				graph.RandomEOB(8, 0.4, rng),
				graph.Cycle(6),
				graph.Cycle(8),
				graph.Path(5),
				graph.New(4),
				graph.CompleteBipartite(3, 4),
			},
			bad: graph.Complete(3),
		},
		"mis": {
			gadget: MIS,
			inner:  func(n int) core.Protocol { return MISOracle(n + 1) },
			verify: VerifyMISGadget,
			inputs: []*graph.Graph{
				graph.RandomGNP(7, 0.4, rng),
				graph.RandomGNP(8, 0.4, rng),
				graph.Complete(5),
				graph.Complete(6),
				graph.Cycle(6),
				graph.Cycle(7),
				graph.New(4),
			},
		},
		"square": {
			gadget: Square,
			inner:  func(int) core.Protocol { return SquareOracle },
			verify: VerifySquareGadget,
			inputs: square,
			bad:    graph.Cycle(4),
		},
	}
}

// checkGadget checks that the gadget's Verify accepts every input.
func checkGadget(t *testing.T, gadget string) {
	t.Helper()
	c := pairCases()[gadget]
	for _, g := range c.inputs {
		if err := c.verify(g); err != nil {
			t.Errorf("%v: %v", g, err)
		}
	}
}

// checkRejects checks that the gadget's Verify rejects its bad input.
func checkRejects(t *testing.T, gadget string) {
	t.Helper()
	c := pairCases()[gadget]
	if err := c.verify(c.bad); err == nil {
		t.Errorf("%s gadget accepted %v", gadget, c.bad)
	}
}

// checkRebuilds runs the gadget's prime on every input under every
// standard adversary, each run with a fresh adversary, and requires the
// input back.
func checkRebuilds(t *testing.T, gadget string) {
	t.Helper()
	c := pairCases()[gadget]
	rebuildAll(t, c, c.inputs)
}

// rebuildAll is checkRebuilds on the given inputs.
func rebuildAll(t *testing.T, c pairCase, inputs []*graph.Graph) {
	t.Helper()
	for _, g := range inputs {
		p := PairPrime{Gadget: c.gadget, Inner: c.inner(g.N())}
		for _, adv := range adversary.Standard(1, 61) {
			res := engine.Run(p, g, adv, engine.Options{})
			if res.Status != core.Success {
				t.Fatalf("%v adv %s: %v (%v)", g, adv.Name(), res.Status, res.Err)
			}
			if !res.Output.(*graph.Graph).Equal(g) {
				t.Errorf("%v adv %s: wrong reconstruction", g, adv.Name())
			}
		}
	}
}

func TestTriangleGadgetProperty(t *testing.T) { checkGadget(t, "triangle") }
func TestMISGadgetProperty(t *testing.T)      { checkGadget(t, "mis") }
func TestSquareGadgetProperty(t *testing.T)   { checkGadget(t, "square") }

func TestTriangleGadgetRejectsTriangleInputs(t *testing.T) { checkRejects(t, "triangle") }
func TestSquareGadgetRejectsSquareInputs(t *testing.T)     { checkRejects(t, "square") }

// Theorem 3 end-to-end: a TRIANGLE decider gives BUILD on triangle-free
// graphs, run through the engine as a real SIMASYNC protocol.
func TestTrianglePrimeRebuildsBipartiteGraphs(t *testing.T) { checkRebuilds(t, "triangle") }

// Theorem 6 end-to-end: a rooted-MIS protocol gives BUILD on all graphs.
func TestMISPrimeRebuildsArbitraryGraphs(t *testing.T) { checkRebuilds(t, "mis") }

// The SQUARE bound end-to-end: a SQUARE decider gives BUILD on C4-free
// graphs, the polarity graph's subgraphs among them.
func TestSquarePrimeRebuildsC4FreeGraphs(t *testing.T) { checkRebuilds(t, "square") }

func TestSquarePrimeOnPolaritySubgraphs(t *testing.T) {
	// The counting family for the lower bound: random subgraphs of a
	// polarity graph (all C4-free).
	rng := rand.New(rand.NewSource(3))
	base := graph.PolarityGraph(3) // 13 nodes
	var family []*graph.Graph
	for trial := 0; trial < 5; trial++ {
		g := graph.New(base.N())
		for _, e := range base.Edges() {
			if rng.Intn(2) == 0 {
				g.AddEdge(e[0], e[1])
			}
		}
		if graph.HasSquare(g) {
			t.Fatal("subgraph of C4-free graph has a square")
		}
		family = append(family, g)
	}
	rebuildAll(t, pairCases()["square"], family)
}

func TestPairGadgetGraphs(t *testing.T) {
	// Each gadget graph is the input plus the gadget's nodes, wired as the
	// paper draws them.
	g := graph.Path(5)
	for _, c := range []struct {
		gadget PairGadget
		edges  [][2]int // beyond the path's
	}{
		{Triangle, [][2]int{{2, 6}, {4, 6}}},
		{MIS, [][2]int{{1, 6}, {3, 6}, {5, 6}}},
		{Square, [][2]int{{2, 6}, {6, 7}, {4, 7}}},
	} {
		want := graph.New(5 + c.gadget.Extra)
		for _, e := range append(g.Edges(), c.edges...) {
			want.AddEdge(e[0], e[1])
		}
		if got := c.gadget.Graph(g, 2, 4); !got.Equal(want) {
			t.Errorf("%s: gadget graph %v, want %v", c.gadget.Name, got, want)
		}
	}
}

func TestTriangleGadgetMatchesFigure1Example(t *testing.T) {
	// The figure's 7-node graph: triangle-free, so G'_{2,7} (node 8 joined
	// to 2 and 7) has a triangle iff {2,7} is an edge, which it is not;
	// the gadget on an edge pair closes a triangle.
	g := graph.FromEdges(7, [][2]int{{1, 2}, {1, 4}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {2, 5}})
	if err := VerifyTriangleGadget(g); err != nil {
		t.Fatal(err)
	}
	if graph.HasTriangle(Triangle.Graph(g, 2, 7)) {
		t.Error("G'_{2,7} has a triangle, but {2,7} is not an edge")
	}
	if !graph.HasTriangle(Triangle.Graph(g, 2, 5)) {
		t.Error("G'_{2,5} has no triangle, but {2,5} is an edge")
	}
}

func TestEOBGadgetPropertyFigure2(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		h := graph.RandomEOB(6+2*(trial%3), 0.5, rng)
		in, err := NewEOBGadgetInput(h)
		if err != nil {
			t.Fatal(err)
		}
		if err := in.Verify(); err != nil {
			t.Errorf("trial %d (%v): %v", trial, h, err)
		}
	}
}

func TestEOBGadgetInputValidation(t *testing.T) {
	if _, err := NewEOBGadgetInput(graph.New(5)); err == nil {
		t.Error("odd node count accepted")
	}
	if _, err := NewEOBGadgetInput(graph.FromEdges(4, [][2]int{{1, 3}})); err == nil {
		t.Error("non-EOB graph accepted")
	}
}

func TestEOBGadgetMatchesFigure2Example(t *testing.T) {
	// The figure's n=7: G on {v2..v7}. G_5 adds edges 1-10, 3-8, 5-10,
	// 7-12, 2-9, 4-11, 6-13.
	h := graph.New(6) // nodes 1..6 play v2..v7
	in, err := NewEOBGadgetInput(h)
	if err != nil {
		t.Fatal(err)
	}
	g5 := in.Gadget(5)
	wantEdges := [][2]int{{1, 10}, {3, 8}, {5, 10}, {7, 12}, {2, 9}, {4, 11}, {6, 13}}
	if g5.M() != len(wantEdges) {
		t.Fatalf("G_5 has %d edges, want %d: %v", g5.M(), len(wantEdges), g5)
	}
	for _, e := range wantEdges {
		if !g5.HasEdge(e[0], e[1]) {
			t.Errorf("G_5 missing edge %v", e)
		}
	}
}

func TestOracleTriangle(t *testing.T) {
	for _, c := range []struct {
		g    *graph.Graph
		want bool
	}{
		{graph.Complete(4), true},
		{graph.Cycle(5), false},
		{graph.CompleteBipartite(3, 3), false},
		{graph.FromEdges(4, [][2]int{{1, 2}, {2, 3}, {1, 3}}), true},
	} {
		res := engine.Run(TriangleOracle, c.g, adversary.Rotor{}, engine.Options{})
		if res.Status != core.Success {
			t.Fatalf("%v: %v", c.g, res.Err)
		}
		if res.Output.(bool) != c.want {
			t.Errorf("%v: triangle=%v, want %v", c.g, res.Output, c.want)
		}
	}
}

func TestOracleSquare(t *testing.T) {
	for _, c := range []struct {
		g    *graph.Graph
		want bool
	}{
		{graph.Cycle(4), true},
		{graph.Cycle(5), false},
		{graph.Complete(4), true},
		{graph.Complete(3), false},
		{graph.CompleteBipartite(2, 2), true},
		{graph.PolarityGraph(3), false},
	} {
		res := engine.Run(SquareOracle, c.g, adversary.Rotor{}, engine.Options{})
		if res.Status != core.Success {
			t.Fatalf("%v: %v", c.g, res.Err)
		}
		if res.Output.(bool) != c.want {
			t.Errorf("%v: square=%v, want %v", c.g, res.Output, c.want)
		}
	}
}

func TestOracleMIS(t *testing.T) {
	g := graph.Cycle(6)
	res := engine.Run(MISOracle(2), g, adversary.MinID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	set := res.Output.([]int)
	if !graph.IsMaximalIndependentSet(g, set) {
		t.Fatalf("%v not a MIS", set)
	}
	has2 := false
	for _, v := range set {
		has2 = has2 || v == 2
	}
	if !has2 {
		t.Fatalf("root missing from %v", set)
	}
}

func TestOracleBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := graph.RandomGNP(10, 0.25, rng)
	res := engine.Run(BFSOracle, g, adversary.MaxID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	f := res.Output.(bfs.Forest)
	if !f.Valid {
		t.Fatal("oracle marked valid input invalid")
	}
	if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
		t.Fatal(msg)
	}
}

func TestOraclesRejectMissingRows(t *testing.T) {
	// A board without some node's row is an error, wherever the gap is.
	g := graph.Cycle(5)
	for _, o := range []Oracle{TriangleOracle, SquareOracle, BFSOracle, MISOracle(1)} {
		res := engine.Run(o, g, adversary.MinID{}, engine.Options{})
		for drop := 0; drop < res.Board.Len(); drop++ {
			b := core.NewBoard()
			for i := 0; i < res.Board.Len(); i++ {
				if i != drop {
					b.Append(res.Board.At(i))
				}
			}
			if _, err := o.Output(g.N(), b); err == nil {
				t.Errorf("%s: board without message %d accepted", o.Name(), drop)
			}
		}
	}
}

func TestEOBPrimeRebuildsEOBGraphs(t *testing.T) {
	// Theorem 8 end-to-end: EOB-BFS protocol ⇒ BUILD on EOB graphs,
	// including the whiteboard re-simulation with gadget nodes.
	rng := rand.New(rand.NewSource(7))
	p := EOBPrime{Inner: BFSOracle}
	for trial := 0; trial < 8; trial++ {
		h := graph.RandomEOB(6+2*(trial%3), 0.45, rng)
		for _, adv := range adversary.Standard(1, 67) {
			res := engine.Run(p, h, adv, engine.Options{})
			if res.Status != core.Success {
				t.Fatalf("%v adv %s: %v (%v)", h, adv.Name(), res.Status, res.Err)
			}
			if !res.Output.(*graph.Graph).Equal(h) {
				t.Errorf("%v adv %s: wrong reconstruction", h, adv.Name())
			}
		}
	}
}

func TestEOBPrimeMessagesAreScheduleIndependentOfI(t *testing.T) {
	// The crux of Theorem 8: the messages of v_2..v_n do not depend on i.
	// EOBPrime writes each node's inner message once; if it depended on i
	// the output could not re-simulate all G_i from one board. Reconstruct
	// under several schedules and confirm agreement.
	rng := rand.New(rand.NewSource(8))
	h := graph.RandomEOB(8, 0.5, rng)
	p := EOBPrime{Inner: BFSOracle}
	var first *graph.Graph
	for seed := int64(0); seed < 6; seed++ {
		res := engine.Run(p, h, adversary.NewRandom(seed), engine.Options{})
		if res.Status != core.Success {
			t.Fatal(res.Err)
		}
		got := res.Output.(*graph.Graph)
		if first == nil {
			first = got
		} else if !got.Equal(first) {
			t.Fatal("reconstruction depends on schedule")
		}
	}
	if !first.Equal(h) {
		t.Fatal("wrong reconstruction")
	}
}

func TestPrimeMessageSizeFormulas(t *testing.T) {
	// Theorems 3 and 6 and the SQUARE bound: a pair prime's message is
	// (Extra+1)·f(n+Extra) + O(log n) bits, that is 2f(n+1), 2f(n+1) and
	// 3f(n+2); Theorem 8's is f(2n−1) + O(log n).
	n := 20
	for _, name := range []string{"triangle", "mis", "square"} {
		c := pairCases()[name]
		k := c.gadget.Extra
		f := c.inner(n).MaxMessageBits(n + k)
		p := PairPrime{Gadget: c.gadget, Inner: c.inner(n)}
		if got := p.MaxMessageBits(n); got <= (k+1)*f || got > (k+1)*f+5+(k+1)*15 {
			t.Errorf("%s budget %d, want %d·f(n+%d)=%d plus O(log n)", p.Name(), got, k+1, k, (k+1)*f)
		}
	}
	eob := EOBPrime{Inner: BFSOracle}
	fb := BFSOracle.MaxMessageBits(2*(n+1) - 1)
	if eob.MaxMessageBits(n) > fb+5+15 {
		t.Errorf("EOBPrime budget %d too large vs f=%d", eob.MaxMessageBits(n), fb)
	}
}

func TestSquarePrimeMessageAccounting(t *testing.T) {
	// The SQUARE bound's prime writes three inner messages, for the pair
	// node's three roles, plus O(log n) bits of IDs and framing.
	n := 16
	p := PairPrime{Gadget: Square, Inner: SquareOracle}
	f := SquareOracle.MaxMessageBits(n + 2)
	if p.MaxMessageBits(n) > 3*f+5+3*15 {
		t.Errorf("square-prime budget %d too large vs 3f=%d", p.MaxMessageBits(n), 3*f)
	}
}

func TestEOBPrimeRejectsOddM(t *testing.T) {
	p := EOBPrime{Inner: BFSOracle}
	if _, err := p.Output(5, core.NewBoard()); err == nil {
		t.Error("odd m accepted")
	}
}
