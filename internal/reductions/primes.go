package reductions

import (
	"fmt"
	"slices"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols/bfs"
)

// Message-within-message encoding shared by the prime protocols: a varint
// bit length followed by the raw bits.

func writeMsg(w *bitio.Writer, m core.Message) {
	w.WriteUvarint(uint64(m.Bits))
	r := bitio.NewReader(m.Data, m.Bits)
	for i := 0; i < m.Bits; i++ {
		b, _ := r.ReadBit()
		w.WriteBit(b)
	}
}

func readMsg(r *bitio.Reader) (core.Message, error) {
	bits, err := r.ReadUvarint()
	if err != nil {
		return core.Message{}, err
	}
	var w bitio.Writer
	for i := uint64(0); i < bits; i++ {
		b, err := r.ReadBit()
		if err != nil {
			return core.Message{}, err
		}
		w.WriteBit(b)
	}
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}, nil
}

func msgOverhead(bits int) int {
	groups := 1
	for v := uint64(bits) >> 4; v != 0; v >>= 4 {
		groups++
	}
	return 5 * groups
}

// PairPrime is the transformation of Theorems 3 and 6 and of the SQUARE
// bound: given a SIMASYNC protocol Inner solving the gadget's problem on
// n+Extra nodes, PairPrime is a SIMASYNC protocol solving BUILD on the
// graphs the gadget is verified for, with messages of
// (Extra+1)·f(n+Extra) + O(log n) bits. Node v writes its identifier and
// Inner's message for each role it can play in a gadget graph: with no
// gadget neighbour, then as the neighbour of each gadget node in turn.
// Output assembles, for every pair s < t, the whiteboard Inner writes on
// the gadget graph and reads {v_s, v_t} ∈ E off Inner's output.
type PairPrime struct {
	Gadget PairGadget
	Inner  core.Protocol
}

// Name implements core.Protocol.
func (p PairPrime) Name() string { return p.Gadget.Name + "-prime(" + p.Inner.Name() + ")" }

// Model implements core.Protocol.
func (PairPrime) Model() core.Model { return core.SimAsync }

// MaxMessageBits implements core.Protocol: (Extra+1)·f(n+Extra) + log n +
// framing.
func (p PairPrime) MaxMessageBits(n int) int {
	f := p.Inner.MaxMessageBits(n + p.Gadget.Extra)
	return bitio.WidthID(n) + (p.Gadget.Extra+1)*(f+msgOverhead(f))
}

// Activate implements core.Protocol.
func (PairPrime) Activate(core.NodeView, *core.Board) bool { return true }

// Compose implements core.Protocol.
func (p PairPrime) Compose(v core.NodeView, _ *core.Board) core.Message {
	var w bitio.Writer
	w.WriteUint(uint64(v.ID), bitio.WidthID(v.N))
	view := core.NodeView{ID: v.ID, Neighbors: v.Neighbors, N: v.N + p.Gadget.Extra}
	writeMsg(&w, p.Inner.Compose(view, core.NewBoard()))
	for x := v.N + 1; x <= view.N; x++ {
		view.Neighbors = append(slices.Clip(v.Neighbors), x)
		writeMsg(&w, p.Inner.Compose(view, core.NewBoard()))
	}
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

// Output implements core.Protocol: the reconstructed graph (*graph.Graph).
// Correct whenever the input meets the gadget's precondition and Inner is
// correct on n+Extra nodes.
func (p PairPrime) Output(n int, b *core.Board) (any, error) {
	name := p.Gadget.Name + "-prime"
	roles := p.Gadget.Extra + 1
	msgs := make([]core.Message, (n+1)*roles) // node v's role r at v*roles+r
	seen := make([]bool, n+1)
	for i := 0; i < b.Len(); i++ {
		m := b.At(i)
		r := bitio.NewReader(m.Data, m.Bits)
		id, err := r.ReadUint(bitio.WidthID(n))
		if err != nil {
			return nil, fmt.Errorf("%s: message %d: %w", name, i, err)
		}
		v := int(id)
		if v < 1 || v > n || seen[v] {
			return nil, fmt.Errorf("%s: bad or duplicate id %d", name, v)
		}
		seen[v] = true
		for role := 0; role < roles; role++ {
			if msgs[v*roles+role], err = readMsg(r); err != nil {
				return nil, fmt.Errorf("%s: message %d: %w", name, i, err)
			}
		}
	}
	g := graph.New(n)
	role := make([]int, n+1)
	for s := 1; s <= n; s++ {
		for t := s + 1; t <= n; t++ {
			extra := p.Gadget.Neighbors(n, s, t)
			clear(role)
			for k, nbrs := range extra {
				for _, u := range nbrs {
					if u <= n {
						role[u] = k + 1
					}
				}
			}
			inner := core.NewBoard()
			for v := 1; v <= n; v++ {
				inner.Append(msgs[v*roles+role[v]])
			}
			for k, nbrs := range extra {
				view := core.NodeView{ID: n + 1 + k, Neighbors: nbrs, N: n + p.Gadget.Extra}
				inner.Append(p.Inner.Compose(view, core.NewBoard()))
			}
			out, err := p.Inner.Output(n+p.Gadget.Extra, inner)
			if err != nil {
				return nil, fmt.Errorf("%s: inner output at {%d,%d}: %w", name, s, t, err)
			}
			edge, err := p.Gadget.Edge(out, s, t)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if edge {
				g.AddEdge(s, t)
			}
		}
	}
	return g, nil
}

// EOBPrime is the Theorem 8 transformation: given a SIMSYNC protocol Inner
// solving EOB-BFS on 2n−1 nodes (Output must return bfs.Forest), EOBPrime
// is a SIMSYNC protocol solving BUILD on even-odd-bipartite graphs H on
// m = n−1 nodes (node k of H plays the paper's v_{k+1}).
//
// When chosen, node v_k re-simulates Inner's run on the gadget graphs: it
// decodes the inner messages already on the whiteboard (identical in every
// G_i) and composes Inner's message for its own i-independent gadget
// neighborhood. The output function extends the simulation with the gadget
// nodes v_1, v_{n+1}..v_{2n−1} for each odd i and reads N(v_i) off the
// third BFS layer (Figure 2).
type EOBPrime struct {
	Inner core.Protocol
}

// Name implements core.Protocol.
func (p EOBPrime) Name() string { return "eob-prime(" + p.Inner.Name() + ")" }

// Model implements core.Protocol: requires write-time composition.
func (EOBPrime) Model() core.Model { return core.SimSync }

// MaxMessageBits implements core.Protocol: f(2n−1) + O(log n).
func (p EOBPrime) MaxMessageBits(m int) int {
	n := m + 1
	f := p.Inner.MaxMessageBits(2*n - 1)
	return bitio.WidthID(m) + f + msgOverhead(f)
}

// Activate implements core.Protocol.
func (EOBPrime) Activate(core.NodeView, *core.Board) bool { return true }

// innerBoardFromPrime decodes the inner messages written so far.
func innerBoardFromPrime(b *core.Board, m int) (*core.Board, []int, error) {
	inner := core.NewBoard()
	var ids []int
	for i := 0; i < b.Len(); i++ {
		msg := b.At(i)
		r := bitio.NewReader(msg.Data, msg.Bits)
		id, err := r.ReadUint(bitio.WidthID(m))
		if err != nil {
			return nil, nil, fmt.Errorf("eob-prime: message %d: %w", i, err)
		}
		im, err := readMsg(r)
		if err != nil {
			return nil, nil, fmt.Errorf("eob-prime: message %d: %w", i, err)
		}
		inner.Append(im)
		ids = append(ids, int(id))
	}
	return inner, ids, nil
}

// Compose implements core.Protocol.
func (p EOBPrime) Compose(v core.NodeView, b *core.Board) core.Message {
	m := v.N
	n := m + 1
	inner, _, err := innerBoardFromPrime(b, m)
	if err != nil {
		return core.Message{}
	}
	// v_j's neighbourhood is the same in every G_i: H's neighbours shifted
	// up by one, then its pendant partner, the larger.
	j := v.ID + 1 // paper label
	nbrs := make([]int, 0, len(v.Neighbors)+1)
	for _, u := range v.Neighbors {
		nbrs = append(nbrs, u+1)
	}
	view := core.NodeView{ID: j, Neighbors: append(nbrs, partner(j, n)), N: 2*n - 1}
	im := p.Inner.Compose(view, inner)
	var w bitio.Writer
	w.WriteUint(uint64(v.ID), bitio.WidthID(m))
	writeMsg(&w, im)
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

// Output implements core.Protocol: the reconstructed H (*graph.Graph).
func (p EOBPrime) Output(m int, b *core.Board) (any, error) {
	if m%2 != 0 {
		return nil, fmt.Errorf("eob-prime: H must have an even node count, got %d", m)
	}
	n := m + 1
	inner, ids, err := innerBoardFromPrime(b, m)
	if err != nil {
		return nil, err
	}
	seen := make([]bool, m+1)
	for _, id := range ids {
		if id < 1 || id > m || seen[id] {
			return nil, fmt.Errorf("eob-prime: bad or duplicate id %d", id)
		}
		seen[id] = true
	}
	h := graph.New(m)
	for i := 3; i <= n; i += 2 {
		// The gadget nodes v_{n+1}..v_{2n−1}, then the root v_1, in a fixed
		// order (Inner is SIMSYNC, so any order is a legal schedule); their
		// neighbourhoods are G_i's over an edgeless H.
		skeleton := EOBGadgetInput{H: graph.New(m), N: n}.Gadget(i)
		board := inner.Clone()
		compose := func(q int) {
			view := core.NodeView{ID: q, Neighbors: skeleton.Neighbors(q), N: 2*n - 1}
			board.Append(p.Inner.Compose(view, board))
		}
		for q := n + 1; q <= 2*n-1; q++ {
			compose(q)
		}
		compose(1)

		out, err := p.Inner.Output(2*n-1, board)
		if err != nil {
			return nil, fmt.Errorf("eob-prime: inner output at i=%d: %w", i, err)
		}
		forest, ok := out.(bfs.Forest)
		if !ok {
			return nil, fmt.Errorf("eob-prime: inner output is %T, want bfs.Forest", out)
		}
		if !forest.Valid {
			return nil, fmt.Errorf("eob-prime: inner rejected gadget graph G_%d", i)
		}
		for j := 2; j <= n; j++ {
			if forest.Layer[j] == 3 && rootOf(forest, j) == 1 {
				if !h.HasEdge(i-1, j-1) {
					h.AddEdge(i-1, j-1)
				}
			}
		}
	}
	return h, nil
}

func rootOf(f bfs.Forest, v int) int {
	for f.Parent[v] != 0 {
		v = f.Parent[v]
	}
	return v
}

var (
	_ core.Protocol = PairPrime{}
	_ core.Protocol = EOBPrime{}
)
