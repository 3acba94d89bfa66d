// Package bounds implements the counting side of the paper's lower bounds
// (Lemma 3 and its applications in Theorems 3, 6, 8, 9).
//
// Lemma 3: if BUILD restricted to a family G of n-node graphs is solvable
// in any of the four models with messages of f(n) bits, then
// log₂|G| = O(n·f(n)) — the whiteboard can hold at most n·f(n) bits, and
// the output function must distinguish every member of the family.
//
// The package provides exact family counts (as log₂ values computed from
// big integers), the board-capacity comparison, and a pigeonhole collision
// finder which, for a *concrete* SIMASYNC protocol with a too-small budget,
// exhibits two graphs that produce identical whiteboards while differing on
// the property of interest — the executable witness that the protocol is
// wrong.
package bounds

import (
	"fmt"
	"math"
	"math/big"

	"repro/internal/core"
	"repro/internal/graph"
)

// Log2AllGraphs returns log₂ of the number of labeled graphs on n nodes:
// exactly n(n−1)/2.
func Log2AllGraphs(n int) float64 { return float64(n*(n-1)) / 2 }

// Log2EOBGraphs returns log₂ of the number of even-odd-bipartite labeled
// graphs on n nodes: ⌈n/2⌉·⌊n/2⌋, the count of odd-even identifier pairs.
func Log2EOBGraphs(n int) float64 { return float64((n + 1) / 2 * (n / 2)) }

// Log2BipartiteFixedParts returns log₂ of the number of bipartite graphs
// with fixed parts {v1..v_{n/2}} and {v_{n/2+1}..v_n} (the family used in
// the Theorem 3 proof): (n/2)².
func Log2BipartiteFixedParts(n int) float64 {
	h := n / 2
	return float64(h * (n - h))
}

// CountLabeledTrees returns n^(n−2), Cayley's count of labeled trees
// (1 for n ≤ 1).
func CountLabeledTrees(n int) *big.Int {
	if n <= 1 {
		return big.NewInt(1)
	}
	if n == 2 {
		return big.NewInt(1)
	}
	return new(big.Int).Exp(big.NewInt(int64(n)), big.NewInt(int64(n-2)), nil)
}

// CountLabeledForests returns the number of labeled forests on n nodes
// (OEIS A001858), via the recurrence over the component containing node 1:
//
//	f(n) = Σ_{j=1..n} C(n−1, j−1) · t(j) · f(n−j),   t(j) = j^(j−2).
func CountLabeledForests(n int) *big.Int {
	f := make([]*big.Int, n+1)
	f[0] = big.NewInt(1)
	for m := 1; m <= n; m++ {
		total := new(big.Int)
		for j := 1; j <= m; j++ {
			term := new(big.Int).Binomial(int64(m-1), int64(j-1))
			term.Mul(term, CountLabeledTrees(j))
			term.Mul(term, f[m-j])
			total.Add(total, term)
		}
		f[m] = total
	}
	return f[n]
}

// Log2 returns log₂ of a positive big integer as a float64 (exact bit
// length minus a fractional correction from the top 53 bits).
func Log2(v *big.Int) float64 {
	if v.Sign() <= 0 {
		return math.Inf(-1)
	}
	bits := v.BitLen()
	if bits <= 53 {
		return math.Log2(float64(v.Int64()))
	}
	top := new(big.Int).Rsh(v, uint(bits-53))
	return float64(bits-53) + math.Log2(float64(top.Int64()))
}

// BoardCapacity returns the maximum number of bits a successful execution
// leaves on the whiteboard: n · f(n).
func BoardCapacity(n, fBits int) int { return n * fBits }

// Lemma3Violated reports whether a family of log₂ size logCount *cannot*
// be reconstructed from boards of the given capacity: the pigeonhole holds
// as soon as logCount exceeds the number of distinct boards. Boards are
// sequences of n messages of ≤ f bits, so their count is at most
// 2^(capacity + n) (the +n accounts for per-message length variation);
// we use the conservative capacity + n bound.
func Lemma3Violated(logCount float64, n, fBits int) bool {
	return logCount > float64(BoardCapacity(n, fBits)+n)
}

// Collision is a pigeonhole witness: two graphs with identical whiteboard
// contents but different property values under a concrete SIMASYNC
// protocol.
type Collision struct {
	A, B      *graph.Graph
	PropertyA string
	PropertyB string
	BoardKey  string
}

// FindCollision enumerates the family (via enumerate, which must call its
// callback with graphs that may be mutated afterwards — they are cloned
// here only when needed) and searches for two graphs with identical
// SIMASYNC whiteboard content but different property strings. It returns
// nil if the protocol's messages separate the family on this property.
//
// The whiteboard of a SIMASYNC protocol is schedule independent as a
// multiset, so the content key uses the sorted message multiset.
func FindCollision(p core.Protocol, enumerate func(func(*graph.Graph) bool), property func(*graph.Graph) string) *Collision {
	type seenEntry struct {
		g    *graph.Graph
		prop string
	}
	seen := map[string]seenEntry{}
	var found *Collision
	enumerate(func(g *graph.Graph) bool {
		board := SimAsyncBoard(p, g)
		key := board.ContentKey()
		prop := property(g)
		if prev, ok := seen[key]; ok {
			if prev.prop != prop {
				found = &Collision{
					A:         prev.g,
					B:         g.Clone(),
					PropertyA: prev.prop,
					PropertyB: prop,
					BoardKey:  key,
				}
				return false
			}
			return true
		}
		seen[key] = seenEntry{g: g.Clone(), prop: prop}
		return true
	})
	return found
}

// SimAsyncBoard composes the whiteboard a SIMASYNC protocol produces on g
// (every message computed on the empty board, appended in identifier
// order — any schedule yields the same multiset).
func SimAsyncBoard(p core.Protocol, g *graph.Graph) *core.Board {
	b := core.NewBoard()
	empty := core.NewBoard()
	for v := 1; v <= g.N(); v++ {
		view := core.NodeView{ID: v, Neighbors: g.Neighbors(v), N: g.N()}
		b.Append(p.Compose(view, empty))
	}
	return b
}

// Report is one row of the Lemma 3 experiment: a family, its size, and the
// board capacity at a given message budget.
type Report struct {
	Family   string
	N        int
	FBits    int
	LogCount float64
	Capacity int
	Violated bool // reconstruction impossible by pigeonhole
}

// String renders the row.
func (r Report) String() string {
	verdict := "feasible"
	if r.Violated {
		verdict = "IMPOSSIBLE (pigeonhole)"
	}
	return fmt.Sprintf("%-28s n=%-5d f=%-6d log2|G|=%-12.1f capacity=%-10d %s",
		r.Family, r.N, r.FBits, r.LogCount, r.Capacity, verdict)
}

// Lemma3Report evaluates the counting bound for the paper's families at a
// given n and message budget f.
func Lemma3Report(n, fBits int) []Report {
	rows := []Report{
		{Family: "all graphs", LogCount: Log2AllGraphs(n)},
		{Family: "bipartite (fixed parts)", LogCount: Log2BipartiteFixedParts(n)},
		{Family: "even-odd-bipartite", LogCount: Log2EOBGraphs(n)},
		{Family: "labeled forests", LogCount: Log2(CountLabeledForests(n))},
	}
	for i := range rows {
		rows[i].N = n
		rows[i].FBits = fBits
		rows[i].Capacity = BoardCapacity(n, fBits)
		rows[i].Violated = Lemma3Violated(rows[i].LogCount, n, fBits)
	}
	return rows
}
