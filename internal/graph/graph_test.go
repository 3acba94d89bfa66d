package graph

import (
	"math/rand"
	"testing"
)

func TestNewAndAddEdge(t *testing.T) {
	g := New(4)
	if g.N() != 4 || g.M() != 0 {
		t.Fatalf("empty graph: N=%d M=%d", g.N(), g.M())
	}
	g.AddEdge(1, 2)
	g.AddEdge(3, 2)
	if g.M() != 2 {
		t.Errorf("M = %d, want 2", g.M())
	}
	if !g.HasEdge(2, 1) || !g.HasEdge(2, 3) {
		t.Error("edges not symmetric")
	}
	if g.HasEdge(1, 3) {
		t.Error("phantom edge 1-3")
	}
	want := []int{1, 3}
	got := g.Neighbors(2)
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("Neighbors(2) = %v, want %v", got, want)
	}
	if g.Degree(2) != 2 || g.Degree(4) != 0 {
		t.Error("bad degrees")
	}
}

func TestAddEdgePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"self-loop":    func() { New(3).AddEdge(1, 1) },
		"out-of-range": func() { New(3).AddEdge(1, 4) },
		"zero":         func() { New(3).AddEdge(0, 1) },
		"duplicate": func() {
			g := New(3)
			g.AddEdge(1, 2)
			g.AddEdge(2, 1)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRemoveEdge(t *testing.T) {
	g := Complete(4)
	g.RemoveEdge(1, 3)
	if g.HasEdge(1, 3) || g.HasEdge(3, 1) {
		t.Error("edge still present after removal")
	}
	if g.M() != 5 {
		t.Errorf("M = %d, want 5", g.M())
	}
	defer func() {
		if recover() == nil {
			t.Error("removing absent edge should panic")
		}
	}()
	g.RemoveEdge(1, 3)
}

func TestEdgesSorted(t *testing.T) {
	g := FromEdges(5, [][2]int{{5, 1}, {2, 4}, {3, 1}})
	es := g.Edges()
	want := [][2]int{{1, 3}, {1, 5}, {2, 4}}
	if len(es) != len(want) {
		t.Fatalf("Edges() = %v", es)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Errorf("edge %d = %v, want %v", i, es[i], want[i])
		}
	}
}

func TestCloneAndEqual(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := RandomGNP(20, 0.3, rng)
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.AddEdge(findNonEdge(c))
	if g.Equal(c) {
		t.Error("mutated clone still equal")
	}
}

func findNonEdge(g *Graph) (int, int) {
	for u := 1; u <= g.N(); u++ {
		for v := u + 1; v <= g.N(); v++ {
			if !g.HasEdge(u, v) {
				return u, v
			}
		}
	}
	panic("complete graph")
}

// TestBitsetRowsDoNotAlias checks that the adjacency rows New carves out
// of one backing array stay apart when a row spans several words.
func TestBitsetRowsDoNotAlias(t *testing.T) {
	const n = 130 // three words per row
	g := New(n)
	want := map[[2]int]bool{}
	for _, e := range [][2]int{{1, 130}, {1, 2}, {64, 128}, {65, 129}, {63, 127}, {2, 66}} {
		g.AddEdge(e[0], e[1])
		want[e], want[[2]int{e[1], e[0]}] = true, true
	}
	for u := 1; u <= n; u++ {
		for v := 1; v <= n; v++ {
			if u != v && g.HasEdge(u, v) != want[[2]int{u, v}] {
				t.Fatalf("HasEdge(%d, %d) = %v, want %v", u, v, g.HasEdge(u, v), want[[2]int{u, v}])
			}
		}
	}
	c := g.Clone()
	c.RemoveEdge(1, 130)
	if !g.HasEdge(1, 130) || c.HasEdge(1, 130) || !c.Equal(c.Clone()) {
		t.Error("Clone shares rows with its source")
	}
}

// TestStringGolden pins Graph.String's rendering, which campaigns use to
// count distinct outputs: the empty graph, one node, a path, a star, a
// forest with an isolated node and a graph after RemoveEdge.
func TestStringGolden(t *testing.T) {
	removed := Cycle(5)
	removed.RemoveEdge(2, 3)
	for _, c := range []struct {
		g    *Graph
		want string
	}{
		{New(0), "G(n=0, m=0:)"},
		{New(1), "G(n=1, m=0:)"},
		{Path(4), "G(n=4, m=3: 1-2 2-3 3-4)"},
		{Star(5), "G(n=5, m=4: 1-2 1-3 1-4 1-5)"},
		{FromEdges(12, [][2]int{{10, 12}, {1, 11}, {3, 2}, {2, 9}}), "G(n=12, m=4: 1-11 2-3 2-9 10-12)"},
		{removed, "G(n=5, m=4: 1-2 1-5 3-4 4-5)"},
	} {
		if got := c.g.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

// TestAppendStringExtendsBuffer checks that AppendString appends exactly
// String's text after what the buffer already holds, and that a nil graph
// renders as fmt prints it.
func TestAppendStringExtendsBuffer(t *testing.T) {
	for _, g := range []*Graph{New(0), Path(4), Star(5), Cycle(130)} {
		buf := []byte("prefix ")
		if got, want := string(g.AppendString(buf)), "prefix "+g.String(); got != want {
			t.Errorf("AppendString = %q, want %q", got, want)
		}
	}
	var nilGraph *Graph
	if got := string(nilGraph.AppendString([]byte("x"))); got != "x<nil>" {
		t.Errorf("nil AppendString = %q, want %q", got, "x<nil>")
	}
}

// TestAppendEdgeListMatchesString checks that AppendEdgeList renders a
// graph's Edges exactly as AppendString renders the graph.
func TestAppendEdgeListMatchesString(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, g := range []*Graph{New(0), New(1), Path(4), Star(5), Cycle(130), RandomGNP(40, 0.2, rng), RandomForest(70, 0.5, rng)} {
		want := string(g.AppendString([]byte("prefix ")))
		if got := string(AppendEdgeList([]byte("prefix "), g.N(), g.Edges())); got != want {
			t.Errorf("AppendEdgeList = %q, want %q", got, want)
		}
	}
}

func TestKeyDistinguishesGraphs(t *testing.T) {
	seen := map[string]bool{}
	count := 0
	AllGraphs(4, func(g *Graph) bool {
		k := g.Key()
		if seen[k] {
			t.Fatalf("duplicate key for %v", g)
		}
		seen[k] = true
		count++
		return true
	})
	if count != 64 {
		t.Errorf("enumerated %d graphs on 4 nodes, want 64", count)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := FromEdges(6, [][2]int{{1, 2}, {2, 5}, {5, 6}, {3, 4}})
	sub, mapping := g.InducedSubgraph([]int{5, 2, 1})
	if sub.N() != 3 || sub.M() != 2 {
		t.Fatalf("sub = %v", sub)
	}
	// keep sorted: [1,2,5] -> new IDs 1,2,3
	if mapping[1] != 1 || mapping[2] != 2 || mapping[3] != 5 {
		t.Errorf("mapping = %v", mapping)
	}
	if !sub.HasEdge(1, 2) || !sub.HasEdge(2, 3) || sub.HasEdge(1, 3) {
		t.Error("wrong induced edges")
	}
}

func TestAdjacencyMatrix(t *testing.T) {
	g := FromEdges(3, [][2]int{{1, 3}})
	m := g.AdjacencyMatrix()
	if !m[1][3] || !m[3][1] || m[1][2] || m[2][3] {
		t.Errorf("bad adjacency matrix: %v", m)
	}
}

func TestGeneratorsBasicShapes(t *testing.T) {
	if g := Path(5); g.M() != 4 || g.Degree(1) != 1 || g.Degree(3) != 2 {
		t.Error("bad path")
	}
	if g := Cycle(5); g.M() != 5 || !IsRegular(g, 2) {
		t.Error("bad cycle")
	}
	if g := Star(5); g.M() != 4 || g.Degree(1) != 4 {
		t.Error("bad star")
	}
	if g := Complete(5); g.M() != 10 || !IsRegular(g, 4) {
		t.Error("bad complete")
	}
	if g := CompleteBipartite(2, 3); g.M() != 6 || g.Degree(1) != 3 || g.Degree(3) != 2 {
		t.Error("bad complete bipartite")
	}
	if g := Grid(3, 4); g.N() != 12 || g.M() != 17 {
		t.Errorf("bad grid: %v", Grid(3, 4))
	}
}

func TestTwoCliques(t *testing.T) {
	g := TwoCliques(4, nil)
	if g.N() != 8 || !IsRegular(g, 3) {
		t.Fatal("TwoCliques not (n-1)-regular")
	}
	clique, ok := IsTwoCliques(g)
	if !ok {
		t.Fatal("TwoCliques not recognized")
	}
	if len(clique) != 4 || clique[0] != 1 {
		t.Errorf("clique of 1 = %v", clique)
	}

	perm := []int{3, 1, 4, 8, 2, 5, 6, 7}
	g2 := TwoCliques(4, perm)
	if _, ok := IsTwoCliques(g2); !ok {
		t.Error("permuted TwoCliques not recognized")
	}
	if !g2.HasEdge(3, 1) || g2.HasEdge(3, 2) {
		t.Error("permutation not respected")
	}

	bad := TwoCliquesSwapped(4, nil)
	if !IsRegular(bad, 3) {
		t.Error("swapped instance must stay (n-1)-regular")
	}
	if _, ok := IsTwoCliques(bad); ok {
		t.Error("swapped instance wrongly recognized as two cliques")
	}
	if !IsConnected(bad) {
		t.Error("swapped instance should be connected")
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 7, 25, 100} {
		g := RandomTree(n, rng)
		if g.N() != n {
			t.Fatalf("n=%d: got %d nodes", n, g.N())
		}
		if n > 0 && (g.M() != n-1 || !IsConnected(g)) {
			t.Errorf("n=%d: not a tree (m=%d, connected=%v)", n, g.M(), IsConnected(g))
		}
	}
}

func TestRandomTreeUniformSmall(t *testing.T) {
	// Cayley: 3 labeled trees on 3 nodes; check all appear.
	rng := rand.New(rand.NewSource(9))
	seen := map[string]int{}
	for i := 0; i < 300; i++ {
		seen[RandomTree(3, rng).Key()]++
	}
	if len(seen) != 3 {
		t.Errorf("saw %d distinct trees on 3 nodes, want 3", len(seen))
	}
}

func TestRandomForestIsForest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		g := RandomForest(20, 0.6, rng)
		if !IsForest(g) {
			t.Fatalf("RandomForest produced a cycle: %v", g)
		}
	}
}

func TestRandomKDegenerate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, k := range []int{1, 2, 3, 5} {
		for i := 0; i < 20; i++ {
			g := RandomKDegenerate(30, k, rng)
			if d := Degeneracy(g); d > k {
				t.Errorf("k=%d: degeneracy %d", k, d)
			}
		}
	}
}

func TestRandomBipartiteAndEOB(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 20; i++ {
		if g := RandomBipartite(16, 0.4, rng); !IsBipartite(g) {
			t.Fatal("RandomBipartite produced odd cycle")
		}
		g := RandomEOB(15, 0.5, rng)
		if !IsEvenOddBipartite(g) {
			t.Fatal("RandomEOB violated parity constraint")
		}
		if !IsBipartite(g) {
			t.Fatal("EOB graph must be bipartite")
		}
	}
}

func TestRandomConnectedGNP(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 20; i++ {
		if g := RandomConnectedGNP(25, 0.1, rng); !IsConnected(g) {
			t.Fatal("RandomConnectedGNP not connected")
		}
	}
}
