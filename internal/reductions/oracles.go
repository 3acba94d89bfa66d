package reductions

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols/bfs"
	"repro/internal/protocols/subgraphf"
)

// Oracle is a maximal-information protocol: every node writes its
// identifier and its full adjacency row (Θ(n) bits), SUBGRAPH_f's message
// with f(n) = n. It realizes the paper's introductory observation that
// with O(n)-bit messages the entire graph lands on the whiteboard and "any
// question can be easily answered": Output rebuilds the graph and returns
// Decide's answer on it. Plugged into the primes, the oracles exercise the
// Theorem 3/6/8 transformations end to end; they also mark the degenerate
// top of the message-size hierarchy that Lemma 3 bounds from below.
type Oracle struct {
	Label  string                            // the protocol's name
	Decide func(g *graph.Graph) (any, error) // the answer on the input graph
}

// rows writes and decodes the oracles' (ID, adjacency row) messages.
var rows = subgraphf.Protocol{F: func(n int) int { return n }, Label: "all"}

// Name implements core.Protocol.
func (o Oracle) Name() string { return o.Label }

// Model implements core.Protocol.
func (Oracle) Model() core.Model { return core.SimAsync }

// MaxMessageBits implements core.Protocol: n + log n.
func (Oracle) MaxMessageBits(n int) int { return rows.MaxMessageBits(n) }

// Activate implements core.Protocol.
func (Oracle) Activate(core.NodeView, *core.Board) bool { return true }

// Compose implements core.Protocol.
func (Oracle) Compose(v core.NodeView, b *core.Board) core.Message { return rows.Compose(v, b) }

// Output implements core.Protocol: Decide's answer on the rebuilt graph.
func (o Oracle) Output(n int, b *core.Board) (any, error) {
	g, err := rows.Output(n, b)
	if err != nil {
		return nil, err
	}
	return o.Decide(g.(*graph.Graph))
}

var (
	// TriangleOracle decides TRIANGLE in SIMASYNC[n + log n].
	TriangleOracle = Oracle{"oracle-triangle", func(g *graph.Graph) (any, error) {
		return graph.HasTriangle(g), nil
	}}
	// SquareOracle decides SQUARE in SIMASYNC[n + log n].
	SquareOracle = Oracle{"oracle-square", func(g *graph.Graph) (any, error) {
		return graph.HasSquare(g), nil
	}}
	// BFSOracle solves BFS in SIMASYNC[n + log n] ⊆ SIMSYNC (the membership
	// Theorem 8 hypothesizes with o(n) bits): the output is the canonical
	// BFS forest, as a bfs.Forest.
	BFSOracle = Oracle{"oracle-bfs", func(g *graph.Graph) (any, error) {
		r := graph.BFSForest(g)
		return bfs.Forest{Valid: true, Parent: r.Parent, Layer: r.Layer, Roots: r.Roots}, nil
	}}
)

// MISOracle solves rooted MIS in SIMASYNC[n + log n]: the output is the
// greedy (ascending-identifier) maximal independent set containing root,
// as a sorted []int.
func MISOracle(root int) Oracle {
	return Oracle{fmt.Sprintf("oracle-mis(x=%d)", root), func(g *graph.Graph) (any, error) {
		if root < 1 || root > g.N() {
			return nil, fmt.Errorf("oracle-mis: root %d out of range", root)
		}
		in := make([]bool, g.N()+1)
		in[root] = true
		set := []int{}
		for v := 1; v <= g.N(); v++ {
			if v != root && !g.HasEdge(v, root) {
				in[v] = !slices.ContainsFunc(g.Neighbors(v), func(u int) bool { return in[u] })
			}
		}
		for v := 1; v <= g.N(); v++ {
			if in[v] {
				set = append(set, v)
			}
		}
		return set, nil
	}}
}

var _ core.Protocol = Oracle{}
