// Package buildforest implements the paper's Section 3.1 protocol: BUILD
// (graph reconstruction) for forests in SIMASYNC[log n].
//
// Every node writes, from local knowledge only, the triple
//
//	(ID(v), deg_T(v), Σ_{w ∈ N(v)} ID(w))
//
// in under 4·log n bits. The output function prunes leaves: a degree-1
// node's single neighbor is its identifier sum; removing the leaf updates
// the neighbor's (degree, sum) pair, and induction rebuilds the whole
// forest. If pruning stalls with positive degrees left, the graph contains
// a cycle and the protocol reports "not a forest" — the recognition variant
// mentioned after Theorem 2.
package buildforest

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
)

// Decoded is the protocol output: either the reconstructed forest, or
// InClass=false when the input contained a cycle.
type Decoded struct {
	Forest  *graph.Graph // nil iff !InClass
	InClass bool
}

// AppendString appends String's text to buf and returns the extended
// buffer.
func (d Decoded) AppendString(buf []byte) []byte {
	buf = d.Forest.AppendString(append(buf, '{'))
	buf = strconv.AppendBool(append(buf, ' '), d.InClass)
	return append(buf, '}')
}

// String renders d as fmt's %v renders its fields, e.g.
// "{G(n=3, m=2: 1-2 2-3) true}", or "{<nil> false}" for a rejected input.
func (d Decoded) String() string { return string(d.AppendString(nil)) }

// Protocol is the SIMASYNC[log n] BUILD protocol for forests.
type Protocol struct{}

// Name implements core.Protocol.
func (Protocol) Name() string { return "build-forest" }

// Model implements core.Protocol: the weakest model, SIMASYNC.
func (Protocol) Model() core.Model { return core.SimAsync }

// MaxMessageBits returns the exact bit budget: ID and degree in ⌈log(n+1)⌉
// bits each, the neighbor-ID sum in ⌈log(n²+1)⌉ bits — under 4 log n total.
func (Protocol) MaxMessageBits(n int) int {
	w := bitio.WidthID(n)
	return 2*w + bitio.Width(uint64(n)*uint64(n))
}

// Activate implements core.Protocol: simultaneous, always true.
func (Protocol) Activate(core.NodeView, *core.Board) bool { return true }

// Compose implements core.Protocol. It reads nothing from the board.
func (Protocol) Compose(v core.NodeView, _ *core.Board) core.Message {
	w := bitio.WidthID(v.N)
	sumW := bitio.Width(uint64(v.N) * uint64(v.N))
	sum := uint64(0)
	for _, u := range v.Neighbors {
		sum += uint64(u)
	}
	var bw bitio.Writer
	bw.WriteUint(uint64(v.ID), w)
	bw.WriteUint(uint64(v.Degree()), w)
	bw.WriteUint(sum, sumW)
	return core.Message{Data: bw.Bytes(), Bits: bw.Bits()}
}

// stackNodes is the largest n whose Output and AppendOutput decode without
// allocating their scratch array and edge list.
const stackNodes = 16

// Flags of a node in decode's scratch array.
const (
	seen    = 1 << iota // the node's message has been read
	removed             // the node has been pruned
)

// Output implements core.Protocol: leaf pruning per Section 3.1.
func (Protocol) Output(n int, b *core.Board) (any, error) {
	var edgeArr [stackNodes][2]int
	edges, inClass, err := decode(n, b, edgeArr[:0])
	if err != nil {
		return nil, err
	}
	if !inClass {
		return Decoded{InClass: false}, nil
	}
	return Decoded{Forest: graph.FromEdges(n, edges), InClass: true}, nil
}

// AppendOutput implements core.OutputAppender: it appends the text of
// Output's Decoded, "{G(n=…, m=…: u-v …) true}" or "{<nil> false}",
// rendering the forest from its sorted edge list instead of building it.
func (Protocol) AppendOutput(buf []byte, n int, b *core.Board) ([]byte, error) {
	var edgeArr [stackNodes][2]int
	edges, inClass, err := decode(n, b, edgeArr[:0])
	if err != nil {
		return buf, err
	}
	if !inClass {
		return Decoded{InClass: false}.AppendString(buf), nil
	}
	// Pruning finds each edge once, leaf first; the forest's text lists
	// its edges as Graph.Edges does.
	for i, e := range edges {
		edges[i] = [2]int{min(e[0], e[1]), max(e[0], e[1])}
	}
	slices.SortFunc(edges, func(a, b [2]int) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	buf = graph.AppendEdgeList(append(buf, '{'), n, edges)
	return append(buf, " true}"...), nil
}

// decode prunes leaves per Section 3.1: it appends the forest's edges, each
// once as (leaf, neighbor) in pruning order, to edges and returns them, or
// reports inClass false when pruning stalls on a cycle. It fails on a
// message that does not decode, a node without a message or with two, and
// a leaf whose sum names no remaining neighbor. edges has room for
// stackNodes edges, on the caller's stack; past stackNodes nodes, decode
// allocates its scratch array and edge list.
func decode(n int, b *core.Board, edges [][2]int) (_ [][2]int, inClass bool, _ error) {
	// One scratch array holds, per node, the announced degree and
	// neighbor-ID sum, less the leaves pruned from it so far, and its
	// flags; then the stack of leaves to prune. The stack takes at most 2n
	// pushes: up to n at the start, and at most one per pruned leaf. Up to
	// stackNodes nodes, the scratch lives on the stack.
	var scratchArr [5*stackNodes + 3]int
	scratch := scratchArr[:]
	if n > stackNodes {
		scratch, edges = make([]int, 5*n+3), make([][2]int, 0, n-1)
	}
	scratch = scratch[:5*n+3]
	deg, sum, flags := scratch[:n+1], scratch[n+1:2*n+2], scratch[2*n+2:3*n+3]
	stack := scratch[3*n+3 : 3*n+3]
	w := bitio.WidthID(n)
	sumW := bitio.Width(uint64(n) * uint64(n))
	for i := 0; i < b.Len(); i++ {
		m := b.At(i)
		r := bitio.NewReader(m.Data, m.Bits)
		id, err := r.ReadUint(w)
		if err != nil {
			return nil, false, fmt.Errorf("buildforest: message %d: %w", i, err)
		}
		d, err := r.ReadUint(w)
		if err != nil {
			return nil, false, fmt.Errorf("buildforest: message %d: %w", i, err)
		}
		s, err := r.ReadUint(sumW)
		if err != nil {
			return nil, false, fmt.Errorf("buildforest: message %d: %w", i, err)
		}
		v := int(id)
		if v < 1 || v > n {
			return nil, false, fmt.Errorf("buildforest: message %d: id %d out of range", i, v)
		}
		if flags[v]&seen != 0 {
			return nil, false, fmt.Errorf("buildforest: duplicate message for node %d", v)
		}
		// The sum is kept as an int: it wraps, and converts back to the
		// node it names, exactly as a uint64 would.
		deg[v], sum[v], flags[v] = int(d), int(s), seen
	}
	for v := 1; v <= n; v++ {
		if flags[v]&seen == 0 {
			return nil, false, fmt.Errorf("buildforest: no message from node %d", v)
		}
	}

	// Prune leaves. A forest always has a node of degree ≤ 1 among the
	// remaining nodes; if none exists, the graph has a cycle.
	for v := 1; v <= n; v++ {
		if deg[v] <= 1 {
			stack = append(stack, v)
		}
	}
	left := n
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if flags[v]&removed != 0 {
			continue
		}
		flags[v] |= removed
		left--
		if deg[v] == 0 {
			continue
		}
		// deg == 1: the remaining neighbor is the sum itself.
		u := sum[v]
		if u < 1 || u > n || u == v || flags[u]&removed != 0 || deg[u] < 1 {
			return nil, false, fmt.Errorf("buildforest: inconsistent messages: leaf %d names neighbor %d", v, u)
		}
		edges = append(edges, [2]int{v, u})
		deg[u]--
		sum[u] -= v
		if deg[u] <= 1 {
			stack = append(stack, u)
		}
	}
	// Any node left unpruned has degree ≥ 2: the graph has a cycle.
	return edges, left == 0, nil
}

var (
	_ core.Protocol       = Protocol{}
	_ core.OutputAppender = Protocol{}
)
