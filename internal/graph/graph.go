// Package graph provides the labeled-graph substrate used throughout the
// whiteboard-model reproduction.
//
// Following the paper, a graph has n nodes with unique identifiers 1..n; a
// node knows its own identifier, the identifiers of its neighbors, and n.
// Graphs are simple and undirected. The package also supplies the reference
// (centralized) algorithms that protocol outputs are validated against:
// BFS forests rooted at per-component minimum identifiers, degeneracy
// orderings, bipartiteness tests, triangle search, maximal-independent-set
// validation, and exhaustive enumeration of small labeled graph families.
package graph

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
)

// Graph is a simple undirected graph on nodes 1..n.
//
// Neighbor lists are kept sorted by identifier. A bitset mirror of the
// adjacency provides O(1) edge queries without hashing.
type Graph struct {
	n   int
	adj [][]int // adj[v] sorted, 1-based; adj[0] unused
	// bits holds the bitset rows back to back, stride words each: row v
	// (1..n) starts at (v-1)*stride, and bit u of it, at word u/64, is set
	// iff {u,v} is an edge.
	bits   []uint64
	stride int
	m      int // edge count
}

// New returns an empty graph on n nodes (n ≥ 0).
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	stride := (n + 64) / 64 // bit v stored at word v/64 of a row, v in 1..n
	return &Graph{
		n:      n,
		adj:    make([][]int, n+1),
		bits:   make([]uint64, n*stride),
		stride: stride,
	}
}

// word returns the index in bits of the word of row v that holds bit u,
// and u's mask within it.
func (g *Graph) word(v, u int) (int, uint64) {
	return (v-1)*g.stride + u/64, 1 << uint(u%64)
}

// link sets or, with on false, clears the bits of {u,v} in both rows.
func (g *Graph) link(u, v int, on bool) {
	i, vm := g.word(u, v)
	j, um := g.word(v, u)
	if on {
		g.bits[i] |= vm
		g.bits[j] |= um
	} else {
		g.bits[i] &^= vm
		g.bits[j] &^= um
	}
}

// FromEdges builds a graph on n nodes from an edge list. Duplicate edges are
// ignored; invalid endpoints or self-loops panic (construction-time bugs).
func FromEdges(n int, edges [][2]int) *Graph {
	g := New(n)
	for _, e := range edges {
		u, v := e[0], e[1]
		if g.HasEdge(u, v) {
			continue
		}
		if u == v {
			panic(fmt.Sprintf("graph: self-loop at %d", u))
		}
		g.link(u, v, true)
		g.m++
	}
	// Each adjacency list is its bitset row read in order, so the lists
	// come out sorted and sized, cut from one backing array.
	backing := make([]int, 0, 2*g.m)
	for v := 1; v <= n; v++ {
		start := len(backing)
		for i, word := range g.bits[(v-1)*g.stride : v*g.stride] {
			for ; word != 0; word &= word - 1 {
				backing = append(backing, 64*i+bits.TrailingZeros64(word))
			}
		}
		if end := len(backing); end > start {
			g.adj[v] = backing[start:end:end]
		}
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return g.m }

func (g *Graph) check(v int) {
	if v < 1 || v > g.n {
		panic(fmt.Sprintf("graph: node %d out of range 1..%d", v, g.n))
	}
}

// AddEdge inserts the undirected edge {u,v}. It panics on self-loops,
// out-of-range endpoints, or duplicate edges.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	if g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: duplicate edge {%d,%d}", u, v))
	}
	g.adj[u] = insertSorted(g.adj[u], v)
	g.adj[v] = insertSorted(g.adj[v], u)
	g.link(u, v, true)
	g.m++
}

// RemoveEdge deletes the undirected edge {u,v}; it panics if absent.
func (g *Graph) RemoveEdge(u, v int) {
	g.check(u)
	g.check(v)
	if !g.HasEdge(u, v) {
		panic(fmt.Sprintf("graph: removing absent edge {%d,%d}", u, v))
	}
	g.adj[u] = removeSorted(g.adj[u], v)
	g.adj[v] = removeSorted(g.adj[v], u)
	g.link(u, v, false)
	g.m--
}

func insertSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []int, v int) []int {
	i := sort.SearchInts(s, v)
	return append(s[:i], s[i+1:]...)
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	i, mask := g.word(u, v)
	return g.bits[i]&mask != 0
}

// Neighbors returns the sorted neighbor identifiers of v. The returned slice
// is owned by the graph and must not be modified.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	return g.adj[v]
}

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int {
	g.check(v)
	return len(g.adj[v])
}

// Edges returns all edges as (u,v) pairs with u < v, sorted lexicographically.
func (g *Graph) Edges() [][2]int {
	es := make([][2]int, 0, g.m)
	for u := 1; u <= g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				es = append(es, [2]int{u, v})
			}
		}
	}
	return es
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for u := 1; u <= g.n; u++ {
		c.adj[u] = append([]int(nil), g.adj[u]...)
	}
	copy(c.bits, g.bits)
	c.m = g.m
	return c
}

// Equal reports whether g and h have identical node sets and edge sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || g.m != h.m {
		return false
	}
	for v := 1; v <= g.n; v++ {
		a, b := g.adj[v], h.adj[v]
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
	}
	return true
}

// Key returns a canonical string key for the labeled graph (an
// upper-triangular edge bitmap), suitable for use as a map key when
// searching for whiteboard collisions across a graph family.
func (g *Graph) Key() string {
	nbits := g.n * (g.n - 1) / 2
	buf := make([]byte, (nbits+7)/8)
	idx := 0
	for u := 1; u <= g.n; u++ {
		for v := u + 1; v <= g.n; v++ {
			if g.HasEdge(u, v) {
				buf[idx/8] |= 1 << uint(idx%8)
			}
			idx++
		}
	}
	return string(buf)
}

// String renders the graph compactly, e.g. "G(n=4, m=3: 1-2 2-3 3-4)".
func (g *Graph) String() string {
	return string(g.AppendString(make([]byte, 0, 16+8*g.m)))
}

// AppendString appends String's text to buf and returns the extended
// buffer. A nil graph appends "<nil>", as fmt prints it.
func (g *Graph) AppendString(buf []byte) []byte {
	if g == nil {
		return append(buf, "<nil>"...)
	}
	buf = appendHead(buf, g.n, g.m)
	for u := 1; u <= g.n; u++ {
		for _, v := range g.adj[u] {
			if u < v {
				buf = appendEdge(buf, u, v)
			}
		}
	}
	return append(buf, ')')
}

// AppendEdgeList appends the String text of the graph on n nodes with the
// given edges, without building it. The edges must be as Edges returns
// them: each edge once, as (u, v) with u < v, sorted lexicographically.
func AppendEdgeList(buf []byte, n int, edges [][2]int) []byte {
	buf = appendHead(buf, n, len(edges))
	for _, e := range edges {
		buf = appendEdge(buf, e[0], e[1])
	}
	return append(buf, ')')
}

// appendHead appends the text that opens String's: "G(n=4, m=3:".
func appendHead(buf []byte, n, m int) []byte {
	buf = append(buf, "G(n="...)
	buf = strconv.AppendInt(buf, int64(n), 10)
	buf = append(buf, ", m="...)
	buf = strconv.AppendInt(buf, int64(m), 10)
	return append(buf, ':')
}

// appendEdge appends one edge of String's text: " 1-2".
func appendEdge(buf []byte, u, v int) []byte {
	buf = strconv.AppendInt(append(buf, ' '), int64(u), 10)
	return strconv.AppendInt(append(buf, '-'), int64(v), 10)
}

// AdjacencyMatrix returns the n×n boolean adjacency matrix with rows and
// columns indexed 1..n (row/column 0 unused).
func (g *Graph) AdjacencyMatrix() [][]bool {
	m := make([][]bool, g.n+1)
	for u := 1; u <= g.n; u++ {
		m[u] = make([]bool, g.n+1)
		for _, v := range g.adj[u] {
			m[u][v] = true
		}
	}
	return m
}

// InducedSubgraph returns the subgraph induced by keep (a set of node IDs),
// *relabeled* onto 1..len(keep) in increasing original-ID order, together
// with the mapping newID -> oldID.
func (g *Graph) InducedSubgraph(keep []int) (*Graph, []int) {
	ids := append([]int(nil), keep...)
	sort.Ints(ids)
	oldToNew := make(map[int]int, len(ids))
	for i, id := range ids {
		g.check(id)
		oldToNew[id] = i + 1
	}
	sub := New(len(ids))
	for _, u := range ids {
		for _, v := range g.adj[u] {
			if nv, ok := oldToNew[v]; ok && u < v {
				sub.AddEdge(oldToNew[u], nv)
			}
		}
	}
	mapping := make([]int, len(ids)+1)
	for i, id := range ids {
		mapping[i+1] = id
	}
	return sub, mapping
}
