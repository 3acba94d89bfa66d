// Package reductions makes the paper's lower-bound proofs executable.
//
// Theorems 3, 6 and 8 all follow one scheme: if problem P had a
// small-message protocol, then BUILD (full graph reconstruction) would have
// one too, contradicting the Lemma 3 counting bound. Theorems 3 and 6, and
// the SQUARE bound the introduction cites from the companion paper, attach
// a gadget to a pair {v_s, v_t}: a PairGadget value (Triangle, MIS or
// Square) states the nodes n+1..n+Extra it adds, their neighbours for the
// pair, and how {v_s, v_t} ∈ E reads off P's answer on the gadget graph.
// That one value builds the gadget graph that Verify*Gadget checks and
// drives PairPrime, which runs any SIMASYNC protocol for P as a BUILD
// protocol through the engine. Figure 2's EOB-BFS gadget (EOBGadgetInput)
// and its SIMSYNC re-simulation (EOBPrime) do the same for Theorem 8.
// Oracle inner protocols, whose Θ(n)-bit messages carry the whole
// adjacency row, demonstrate the transformations end to end; the counting
// side lives in internal/bounds.
package reductions

import (
	"fmt"
	"slices"

	"repro/internal/graph"
)

// PairGadget is a pair gadget: Extra nodes n+1..n+Extra added to an n-node
// graph so that P's answer on the result tells whether {v_s, v_t} is an
// edge. Every input node has at most one gadget neighbour.
type PairGadget struct {
	// Name prefixes the prime's name: "triangle" gives triangle-prime.
	Name  string
	Extra int
	// Neighbors returns, for the pair s < t of an n-node graph, the sorted
	// neighbourhood of each gadget node n+1..n+Extra, in that order.
	Neighbors func(n, s, t int) [][]int
	// Edge reads {v_s, v_t} ∈ E off P's output on the gadget graph.
	Edge func(out any, s, t int) (bool, error)
}

// Triangle is Figure 1's gadget G'_{s,t} (Theorem 3): one node adjacent to
// exactly v_s and v_t. On a triangle-free input, G'_{s,t} contains a
// triangle iff {v_s, v_t} is an edge.
var Triangle = PairGadget{
	Name:      "triangle",
	Extra:     1,
	Neighbors: func(_, s, t int) [][]int { return [][]int{{s, t}} },
	Edge:      decided,
}

// MIS is Theorem 6's gadget G^(x)_{i,j}: one node x adjacent to every node
// except v_i and v_j. If {v_i,v_j} ∉ E, the unique maximal independent set
// containing x is {x, v_i, v_j}; otherwise there are two, {x, v_i} and
// {x, v_j}.
var MIS = PairGadget{
	Name:  "mis",
	Extra: 1,
	Neighbors: func(n, i, j int) [][]int {
		x := make([]int, 0, n-2)
		for v := 1; v <= n; v++ {
			if v != i && v != j {
				x = append(x, v)
			}
		}
		return [][]int{x}
	},
	Edge: func(out any, i, j int) (bool, error) {
		set, ok := out.([]int)
		if !ok {
			return false, fmt.Errorf("inner output is %T, want []int", out)
		}
		return !(slices.Contains(set, i) && slices.Contains(set, j)), nil
	},
}

// Square is the Theorem-3-style gadget G”_{s,t} behind the introduction's
// SQUARE bound, a construction "quite similar to the one of Theorem 3"
// from the companion paper: nodes x = n+1 and y = n+2 with edges {s,x},
// {x,y}, {y,t}. On a C4-free input the only candidate 4-cycle is x-s-t-y-x,
// so G”_{s,t} contains a square iff {v_s, v_t} ∈ E. Against the
// 2^{Θ(n^{3/2})} subgraphs of a polarity graph this gives the executable
// Ω(√n) part of the bound; the full Ω(n) argument is the companion
// paper's.
var Square = PairGadget{
	Name:      "square",
	Extra:     2,
	Neighbors: func(n, s, t int) [][]int { return [][]int{{s, n + 2}, {t, n + 1}} },
	Edge:      decided,
}

// decided reads a decider's answer: the gadget graph has the pattern iff
// the pair is an edge.
func decided(out any, _, _ int) (bool, error) {
	yes, ok := out.(bool)
	if !ok {
		return false, fmt.Errorf("inner output is %T, want bool", out)
	}
	return yes, nil
}

// Graph builds the gadget graph for the pair s < t: g plus the gadget's
// nodes and edges.
func (gd PairGadget) Graph(g *graph.Graph, s, t int) *graph.Graph {
	n := g.N()
	out := graph.New(n + gd.Extra)
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
	}
	for k, nbrs := range gd.Neighbors(n, s, t) {
		for _, u := range nbrs {
			if u < n+1+k { // an edge between gadget nodes is listed at both
				out.AddEdge(u, n+1+k)
			}
		}
	}
	return out
}

// VerifyTriangleGadget checks the Figure 1 property on a triangle-free
// input: for every pair s < t, G'_{s,t} has a triangle iff {s,t} ∈ E.
func VerifyTriangleGadget(g *graph.Graph) error {
	return verifyDecider(g, Triangle, graph.HasTriangle)
}

// VerifySquareGadget checks the square gadget's property on a C4-free
// input.
func VerifySquareGadget(g *graph.Graph) error {
	return verifyDecider(g, Square, graph.HasSquare)
}

func verifyDecider(g *graph.Graph, gd PairGadget, has func(*graph.Graph) bool) error {
	if has(g) {
		return fmt.Errorf("reductions: input graph must be %s-free", gd.Name)
	}
	for s := 1; s <= g.N(); s++ {
		for t := s + 1; t <= g.N(); t++ {
			got := has(gd.Graph(g, s, t))
			want := g.HasEdge(s, t)
			if got != want {
				return fmt.Errorf("reductions: %s gadget fails at {%d,%d}: %s=%v edge=%v",
					gd.Name, s, t, gd.Name, got, want)
			}
		}
	}
	return nil
}

// VerifyMISGadget checks the Theorem 6 property for every pair: a maximal
// independent set of G^(x)_{i,j} containing x contains both v_i and v_j iff
// {v_i,v_j} ∉ E.
func VerifyMISGadget(g *graph.Graph) error {
	n := g.N()
	for i := 1; i <= n; i++ {
		for j := i + 1; j <= n; j++ {
			gad := MIS.Graph(g, i, j)
			x := n + 1
			// Any MIS containing x: x dominates V∖{i,j}, so the set is
			// {x} ∪ S with S ⊆ {v_i,v_j} independent and maximal.
			both := []int{i, j, x}
			if g.HasEdge(i, j) {
				if graph.IsIndependentSet(gad, both) {
					return fmt.Errorf("reductions: {x,%d,%d} independent despite edge", i, j)
				}
				if !graph.IsMaximalIndependentSet(gad, []int{i, x}) ||
					!graph.IsMaximalIndependentSet(gad, []int{j, x}) {
					return fmt.Errorf("reductions: expected two maximal sets at {%d,%d}", i, j)
				}
			} else {
				if !graph.IsMaximalIndependentSet(gad, both) {
					return fmt.Errorf("reductions: {x,%d,%d} not maximal without edge", i, j)
				}
				if graph.IsMaximalIndependentSet(gad, []int{i, x}) {
					return fmt.Errorf("reductions: {x,%d} wrongly maximal at {%d,%d}", i, i, j)
				}
			}
		}
	}
	return nil
}

// EOBGadgetInput describes the Theorem 8 setting: an even-odd-bipartite
// graph G on node set {v_2, ..., v_n} with n odd. We represent it as a
// graph H on m = n−1 nodes 1..m; node k of H plays v_{k+1} (the parity flip
// preserves even-odd-bipartiteness).
type EOBGadgetInput struct {
	H *graph.Graph // m = n-1 nodes; EOB with respect to its own labels
	N int          // the paper's n = m+1 (odd)
}

// NewEOBGadgetInput validates and wraps H.
func NewEOBGadgetInput(h *graph.Graph) (EOBGadgetInput, error) {
	if h.N()%2 != 0 {
		return EOBGadgetInput{}, fmt.Errorf("reductions: H must have an even node count (paper's n odd), got %d", h.N())
	}
	if !graph.IsEvenOddBipartite(h) {
		return EOBGadgetInput{}, fmt.Errorf("reductions: H must be even-odd-bipartite")
	}
	return EOBGadgetInput{H: h, N: h.N() + 1}, nil
}

// partner is Figure 2's pendant rule: in every G_i, node v_j (2 ≤ j ≤ n)
// has the pendant partner v_{j+n−2} for odd j and v_{j+n} for even j.
func partner(j, n int) int {
	if j%2 == 0 {
		return j + n
	}
	return j + n - 2
}

// Gadget builds G_i of Figure 2 for odd i (3 ≤ i ≤ n), a graph on 2n−1
// nodes: G's edges (shifted up by one), each v_j's pendant partner, and
// v_1 – v_{i+n−2}, v_i's partner. The construction keeps the graph
// even-odd-bipartite, and node v_j (j even) lies in layer 3 of the BFS
// tree rooted at v_1 iff {v_i, v_j} ∈ E.
func (in EOBGadgetInput) Gadget(i int) *graph.Graph {
	n := in.N
	if i < 3 || i > n || i%2 == 0 {
		panic(fmt.Sprintf("reductions: gadget index i=%d must be odd in 3..%d", i, n))
	}
	g := graph.New(2*n - 1)
	for _, e := range in.H.Edges() {
		g.AddEdge(e[0]+1, e[1]+1) // H node k plays v_{k+1}
	}
	g.AddEdge(1, partner(i, n))
	for j := 2; j <= n; j++ {
		g.AddEdge(j, partner(j, n))
	}
	return g
}

// Verify checks the Figure 2 property for every odd i: G_i is even-odd-
// bipartite, and the distance-3 set from v_1 is exactly {v_j : {v_i,v_j} ∈
// E(G)} — equivalently {k+1 : k ∈ N_H(i−1)}.
func (in EOBGadgetInput) Verify() error {
	n := in.N
	for i := 3; i <= n; i += 2 {
		g := in.Gadget(i)
		if !graph.IsEvenOddBipartite(g) {
			return fmt.Errorf("reductions: G_%d is not even-odd-bipartite", i)
		}
		dist := graph.Distances(g, 1)
		for j := 2; j <= n; j++ {
			want := in.H.HasEdge(i-1, j-1) // v_i–v_j in paper labels
			got := dist[j] == 3
			if got != want {
				return fmt.Errorf("reductions: G_%d: v_%d at distance %d, edge {v_%d,v_%d}=%v",
					i, j, dist[j], i, j, want)
			}
		}
	}
	return nil
}
