package reductions

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
)

// The paper's introduction states that "Does G contain a square?" cannot be
// answered with o(n)-bit messages, via the companion paper [2]; the
// construction is "quite similar to the one of Theorem 3". This file makes
// the Theorem-3-style square reduction executable: a two-node pendant
// gadget turns an edge query into a square query, and SquarePrime turns any
// SIMASYNC SQUARE decider into a BUILD protocol for C4-free graphs —
// against the 2^{Θ(n^{3/2})} family of polarity-graph subgraphs, giving the
// executable Ω(√n) portion of the bound (the full Ω(n) argument lives in
// [2], whose text is not part of this reproduction).

// SquareGadget builds G”_{s,t}: the input plus two nodes x = n+1 and
// y = n+2 with edges {s,x}, {x,y}, {y,t}. For a C4-free input, G”_{s,t}
// contains a square iff {v_s, v_t} ∈ E — the only candidate 4-cycle is
// x-s-t-y-x.
func SquareGadget(g *graph.Graph, s, t int) *graph.Graph {
	if s == t {
		panic("reductions: SquareGadget needs distinct s, t")
	}
	n := g.N()
	out := graph.New(n + 2)
	for _, e := range g.Edges() {
		out.AddEdge(e[0], e[1])
	}
	out.AddEdge(s, n+1)
	out.AddEdge(n+1, n+2)
	out.AddEdge(n+2, t)
	return out
}

// VerifySquareGadget checks the defining property on a C4-free input.
func VerifySquareGadget(g *graph.Graph) error {
	if graph.HasSquare(g) {
		return fmt.Errorf("reductions: input graph must be square-free")
	}
	for s := 1; s <= g.N(); s++ {
		for t := s + 1; t <= g.N(); t++ {
			got := graph.HasSquare(SquareGadget(g, s, t))
			want := g.HasEdge(s, t)
			if got != want {
				return fmt.Errorf("reductions: square gadget fails at {%d,%d}: square=%v edge=%v",
					s, t, got, want)
			}
		}
	}
	return nil
}

// OracleSquare decides SQUARE in SIMASYNC[n + log n].
type OracleSquare struct{}

// Name implements core.Protocol.
func (OracleSquare) Name() string { return "oracle-square" }

// Model implements core.Protocol.
func (OracleSquare) Model() core.Model { return core.SimAsync }

// MaxMessageBits implements core.Protocol.
func (OracleSquare) MaxMessageBits(n int) int { return bitio.WidthID(n) + n }

// Activate implements core.Protocol.
func (OracleSquare) Activate(core.NodeView, *core.Board) bool { return true }

// Compose implements core.Protocol.
func (OracleSquare) Compose(v core.NodeView, _ *core.Board) core.Message { return composeRow(v) }

// Output implements core.Protocol: true iff the graph has a 4-cycle.
func (OracleSquare) Output(n int, b *core.Board) (any, error) {
	g, err := rebuildFromRows(n, b)
	if err != nil {
		return nil, err
	}
	return graph.HasSquare(g), nil
}

// SquarePrime is the square analogue of TrianglePrime: given a SIMASYNC
// protocol Inner deciding SQUARE on n+2 nodes (Output returning bool), it
// solves BUILD on C4-free graphs. Each node writes three inner messages —
// its message in the gadget when it is uninvolved, when it plays s (gains
// neighbor n+1), and when it plays t (gains neighbor n+2) — for a total of
// 3·f(n+2) + O(log n) bits.
type SquarePrime struct {
	Inner core.Protocol
}

// Name implements core.Protocol.
func (p SquarePrime) Name() string { return "square-prime(" + p.Inner.Name() + ")" }

// Model implements core.Protocol.
func (SquarePrime) Model() core.Model { return core.SimAsync }

// MaxMessageBits implements core.Protocol.
func (p SquarePrime) MaxMessageBits(n int) int {
	f := p.Inner.MaxMessageBits(n + 2)
	return bitio.WidthID(n) + 3*(f+msgOverhead(f))
}

// Activate implements core.Protocol.
func (SquarePrime) Activate(core.NodeView, *core.Board) bool { return true }

// Compose implements core.Protocol.
func (p SquarePrime) Compose(v core.NodeView, _ *core.Board) core.Message {
	empty := core.NewBoard()
	n := v.N
	plain := core.NodeView{ID: v.ID, Neighbors: v.Neighbors, N: n + 2}
	asS := core.NodeView{ID: v.ID, Neighbors: appendSorted(v.Neighbors, n+1), N: n + 2}
	asT := core.NodeView{ID: v.ID, Neighbors: appendSorted(v.Neighbors, n+2), N: n + 2}
	var w bitio.Writer
	w.WriteUint(uint64(v.ID), bitio.WidthID(n))
	writeMsg(&w, p.Inner.Compose(plain, empty))
	writeMsg(&w, p.Inner.Compose(asS, empty))
	writeMsg(&w, p.Inner.Compose(asT, empty))
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

func appendSorted(s []int, v int) []int {
	out := make([]int, 0, len(s)+1)
	placed := false
	for _, u := range s {
		if !placed && v < u {
			out = append(out, v)
			placed = true
		}
		out = append(out, u)
	}
	if !placed {
		out = append(out, v)
	}
	return out
}

// Output implements core.Protocol: the reconstructed C4-free graph.
func (p SquarePrime) Output(n int, b *core.Board) (any, error) {
	plain := make([]core.Message, n+1)
	asS := make([]core.Message, n+1)
	asT := make([]core.Message, n+1)
	seen := make([]bool, n+1)
	for i := 0; i < b.Len(); i++ {
		m := b.At(i)
		r := bitio.NewReader(m.Data, m.Bits)
		id, err := r.ReadUint(bitio.WidthID(n))
		if err != nil {
			return nil, fmt.Errorf("square-prime: message %d: %w", i, err)
		}
		v := int(id)
		if v < 1 || v > n || seen[v] {
			return nil, fmt.Errorf("square-prime: bad or duplicate id %d", v)
		}
		seen[v] = true
		if plain[v], err = readMsg(r); err != nil {
			return nil, err
		}
		if asS[v], err = readMsg(r); err != nil {
			return nil, err
		}
		if asT[v], err = readMsg(r); err != nil {
			return nil, err
		}
	}
	g := graph.New(n)
	empty := core.NewBoard()
	for s := 1; s <= n; s++ {
		for t := s + 1; t <= n; t++ {
			inner := core.NewBoard()
			for i := 1; i <= n; i++ {
				switch i {
				case s:
					inner.Append(asS[i])
				case t:
					inner.Append(asT[i])
				default:
					inner.Append(plain[i])
				}
			}
			xView := core.NodeView{ID: n + 1, Neighbors: []int{s, n + 2}, N: n + 2}
			yView := core.NodeView{ID: n + 2, Neighbors: []int{t, n + 1}, N: n + 2}
			inner.Append(p.Inner.Compose(xView, empty))
			inner.Append(p.Inner.Compose(yView, empty))
			out, err := p.Inner.Output(n+2, inner)
			if err != nil {
				return nil, fmt.Errorf("square-prime: inner output at {%d,%d}: %w", s, t, err)
			}
			hasSquare, ok := out.(bool)
			if !ok {
				return nil, fmt.Errorf("square-prime: inner output is %T, want bool", out)
			}
			if hasSquare {
				g.AddEdge(s, t)
			}
		}
	}
	return g, nil
}

var (
	_ core.Protocol = OracleSquare{}
	_ core.Protocol = SquarePrime{}
)
