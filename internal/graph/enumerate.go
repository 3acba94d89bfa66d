package graph

// Enumeration of small labeled graph families. These drive the exhaustive
// correctness tests ("for every graph on ≤ k nodes, for every adversary
// schedule ...") and the Lemma 3 pigeonhole collision searches.

// pairList returns the upper-triangular node pairs of an n-node graph in
// lexicographic order.
func pairList(n int) [][2]int {
	pairs := make([][2]int, 0, n*(n-1)/2)
	for u := 1; u <= n; u++ {
		for v := u + 1; v <= n; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	return pairs
}

// enumerateMask calls fn with every subset of the given candidate edge set,
// reusing a single Graph (mutated in place between calls) for speed. fn must
// not retain the graph; it returns false to stop the enumeration early.
// The traversal is a Gray-code walk so each step flips exactly one edge.
func enumerateMask(n int, pairs [][2]int, fn func(*Graph) bool) {
	k := len(pairs)
	if k > 62 {
		panic("graph: enumeration over more than 62 candidate edges")
	}
	g := New(n)
	if !fn(g) {
		return
	}
	var gray uint64
	for i := uint64(1); i < 1<<uint(k); i++ {
		next := i ^ (i >> 1)
		diff := gray ^ next
		bit := 0
		for diff>>uint(bit)&1 == 0 {
			bit++
		}
		e := pairs[bit]
		if next>>uint(bit)&1 == 1 {
			g.AddEdge(e[0], e[1])
		} else {
			g.RemoveEdge(e[0], e[1])
		}
		gray = next
		if !fn(g) {
			return
		}
	}
}

// AllGraphs enumerates every labeled graph on n nodes (2^(n(n-1)/2) of
// them); practical for n ≤ 7. fn returns false to stop early.
func AllGraphs(n int, fn func(*Graph) bool) {
	enumerateMask(n, pairList(n), fn)
}

// AllEOBGraphs enumerates every even-odd-bipartite labeled graph on n nodes
// (edges only between opposite-parity identifiers); practical for n ≤ 10.
func AllEOBGraphs(n int, fn func(*Graph) bool) {
	var pairs [][2]int
	for _, p := range pairList(n) {
		if (p[0]+p[1])%2 == 1 {
			pairs = append(pairs, p)
		}
	}
	enumerateMask(n, pairs, fn)
}

// AllForests enumerates every labeled forest on n nodes; practical for
// n ≤ 7 (it filters AllGraphs by acyclicity).
func AllForests(n int, fn func(*Graph) bool) {
	AllGraphs(n, func(g *Graph) bool {
		if isForest(g) {
			return fn(g)
		}
		return true
	})
}

// isForest reports whether g is acyclic (m = n - #components).
func isForest(g *Graph) bool {
	return g.M() == g.N()-len(Components(g))
}

// IsForest reports whether g is acyclic.
func IsForest(g *Graph) bool { return isForest(g) }
