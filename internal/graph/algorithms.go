package graph

import (
	"fmt"
	"sort"
)

// BFSResult is the reference breadth-first-search forest the protocol
// outputs are validated against.
//
// Roots are the minimum-identifier nodes of each connected component, as the
// paper specifies. Parent[v] is the minimum-identifier neighbor of v in the
// previous layer (0 for roots), which is exactly the parent the paper's
// protocols emit, independent of the adversary's schedule. Layer[v] is the
// distance from v's component root.
type BFSResult struct {
	Parent []int // 1-based; Parent[root] = 0
	Layer  []int // 1-based; Layer[root] = 0
	Roots  []int // ascending component roots
}

// BFSForest computes the canonical BFS forest of g.
func BFSForest(g *Graph) *BFSResult {
	n := g.N()
	res := &BFSResult{
		Parent: make([]int, n+1),
		Layer:  make([]int, n+1),
	}
	seen := make([]bool, n+1)
	queue := make([]int, 0, n)
	for r := 1; r <= n; r++ {
		if seen[r] {
			continue
		}
		res.Roots = append(res.Roots, r)
		seen[r] = true
		res.Layer[r] = 0
		res.Parent[r] = 0
		queue = append(queue[:0], r)
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					res.Layer[v] = res.Layer[u] + 1
					res.Parent[v] = u // first time reached: u is min-ID prev-layer nbr? see fix below
					queue = append(queue, v)
				}
			}
		}
	}
	// Fix parents to the minimum-ID previous-layer neighbor (the queue order
	// above gives *a* previous-layer neighbor; the canonical choice is the
	// smallest).
	for v := 1; v <= n; v++ {
		if res.Parent[v] == 0 {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if res.Layer[u] == res.Layer[v]-1 {
				res.Parent[v] = u
				break // neighbors are sorted ascending
			}
		}
	}
	return res
}

// Distances returns the BFS distance from src to every node (-1 if
// unreachable).
func Distances(g *Graph, src int) []int {
	n := g.N()
	dist := make([]int, n+1)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range g.Neighbors(u) {
			if dist[v] < 0 {
				dist[v] = dist[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return dist
}

// Components returns the connected components as ascending ID slices, in
// ascending order of their minimum element.
func Components(g *Graph) [][]int {
	n := g.N()
	seen := make([]bool, n+1)
	var comps [][]int
	for r := 1; r <= n; r++ {
		if seen[r] {
			continue
		}
		var comp []int
		stack := []int{r}
		seen[r] = true
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, u)
			for _, v := range g.Neighbors(u) {
				if !seen[v] {
					seen[v] = true
					stack = append(stack, v)
				}
			}
		}
		sort.Ints(comp)
		comps = append(comps, comp)
	}
	return comps
}

// IsConnected reports whether g is connected (true for n ≤ 1).
func IsConnected(g *Graph) bool {
	return g.N() <= 1 || len(Components(g)) == 1
}

// BipartiteParts 2-colors g if possible. It returns side[v] ∈ {0,1} with
// side chosen so each component's minimum node has side 0, and ok=false if
// g contains an odd cycle.
func BipartiteParts(g *Graph) (side []int, ok bool) {
	n := g.N()
	side = make([]int, n+1)
	for i := range side {
		side[i] = -1
	}
	for r := 1; r <= n; r++ {
		if side[r] >= 0 {
			continue
		}
		side[r] = 0
		queue := []int{r}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range g.Neighbors(u) {
				if side[v] < 0 {
					side[v] = 1 - side[u]
					queue = append(queue, v)
				} else if side[v] == side[u] {
					return nil, false
				}
			}
		}
	}
	return side, true
}

// IsBipartite reports whether g has no odd cycle.
func IsBipartite(g *Graph) bool {
	_, ok := BipartiteParts(g)
	return ok
}

// IsEvenOddBipartite reports whether no edge joins two identifiers of the
// same parity (the paper's even-odd-bipartite class). Every EOB graph is
// bipartite, with the parts fully known to every node.
func IsEvenOddBipartite(g *Graph) bool {
	for _, e := range g.Edges() {
		if (e[0]+e[1])%2 == 0 {
			return false
		}
	}
	return true
}

// DegeneracyOrder returns an elimination order r1..rn (each ri has minimum
// degree in the graph induced by {ri..rn}) and the degeneracy of g, using
// the standard bucket-queue algorithm in O(n+m).
func DegeneracyOrder(g *Graph) (order []int, degeneracy int) {
	n := g.N()
	deg := make([]int, n+1)
	maxDeg := 0
	for v := 1; v <= n; v++ {
		deg[v] = g.Degree(v)
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	buckets := make([][]int, maxDeg+1)
	for v := n; v >= 1; v-- { // reverse so pops yield min ID first among ties
		buckets[deg[v]] = append(buckets[deg[v]], v)
	}
	removed := make([]bool, n+1)
	order = make([]int, 0, n)
	cur := 0
	for len(order) < n {
		if cur > maxDeg {
			break
		}
		if len(buckets[cur]) == 0 {
			cur++
			continue
		}
		v := buckets[cur][len(buckets[cur])-1]
		buckets[cur] = buckets[cur][:len(buckets[cur])-1]
		if removed[v] || deg[v] != cur {
			continue // stale bucket entry
		}
		removed[v] = true
		order = append(order, v)
		if cur > degeneracy {
			degeneracy = cur
		}
		for _, u := range g.Neighbors(v) {
			if !removed[u] {
				deg[u]--
				buckets[deg[u]] = append(buckets[deg[u]], u)
				if deg[u] < cur {
					cur = deg[u]
				}
			}
		}
	}
	return order, degeneracy
}

// Degeneracy returns the degeneracy of g.
func Degeneracy(g *Graph) int {
	_, d := DegeneracyOrder(g)
	return d
}

// IsSplitDegenerate reports whether g admits the two-sided elimination of
// the post-Theorem-2 extension: nodes can be deleted one by one, each with
// degree ≤ k or ≥ |R|−k−1 among the remaining nodes R. A node that may be
// deleted still may after any other deletion, so deleting greedily decides.
func IsSplitDegenerate(g *Graph, k int) bool {
	n := g.N()
	deg := make([]int, n+1)
	for v := 1; v <= n; v++ {
		deg[v] = g.Degree(v)
	}
	removed := make([]bool, n+1)
	for size := n; size > 0; size-- {
		pick := 0
		for v := 1; v <= n && pick == 0; v++ {
			if !removed[v] && (deg[v] <= k || deg[v] >= size-k-1) {
				pick = v
			}
		}
		if pick == 0 {
			return false
		}
		removed[pick] = true
		for _, u := range g.Neighbors(pick) {
			deg[u]--
		}
	}
	return true
}

// FindTriangle returns a triangle (u < v < w) if one exists.
func FindTriangle(g *Graph) (u, v, w int, ok bool) {
	for a := 1; a <= g.N(); a++ {
		nbrs := g.Neighbors(a)
		for i := 0; i < len(nbrs); i++ {
			if nbrs[i] < a {
				continue
			}
			for j := i + 1; j < len(nbrs); j++ {
				if g.HasEdge(nbrs[i], nbrs[j]) {
					return a, nbrs[i], nbrs[j], true
				}
			}
		}
	}
	return 0, 0, 0, false
}

// HasTriangle reports whether g contains a triangle.
func HasTriangle(g *Graph) bool {
	_, _, _, ok := FindTriangle(g)
	return ok
}

// IsIndependentSet reports whether set (node IDs) is pairwise non-adjacent.
func IsIndependentSet(g *Graph, set []int) bool {
	for i := 0; i < len(set); i++ {
		for j := i + 1; j < len(set); j++ {
			if g.HasEdge(set[i], set[j]) {
				return false
			}
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether set is an inclusion-maximal
// independent set of g.
func IsMaximalIndependentSet(g *Graph, set []int) bool {
	if !IsIndependentSet(g, set) {
		return false
	}
	in := make(map[int]bool, len(set))
	for _, v := range set {
		in[v] = true
	}
	for v := 1; v <= g.N(); v++ {
		if in[v] {
			continue
		}
		dominated := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// IsTwoCliques reports whether g is the disjoint union of two complete
// graphs on N/2 nodes each, and if so returns the clique containing node
// with ID 1 (callers wanting the other clique take the complement).
func IsTwoCliques(g *Graph) (cliqueOfOne []int, ok bool) {
	n := g.N()
	if n%2 != 0 || n == 0 {
		return nil, false
	}
	half := n / 2
	comps := Components(g)
	if len(comps) != 2 || len(comps[0]) != half || len(comps[1]) != half {
		return nil, false
	}
	for _, comp := range comps {
		for _, v := range comp {
			if g.Degree(v) != half-1 {
				return nil, false
			}
		}
	}
	return comps[0], true
}

// IsRegular reports whether every node has degree d.
func IsRegular(g *Graph, d int) bool {
	for v := 1; v <= g.N(); v++ {
		if g.Degree(v) != d {
			return false
		}
	}
	return true
}

// ValidateBFSForest checks that (parent, layer) is exactly the canonical
// BFS forest of g (per-component min-ID roots, distance layers, min-ID
// previous-layer parents). It returns "" on success or a description of the
// first violation.
func ValidateBFSForest(g *Graph, parent, layer []int) string {
	want := BFSForest(g)
	n := g.N()
	if len(parent) != n+1 || len(layer) != n+1 {
		return "parent/layer slices must have length n+1"
	}
	for v := 1; v <= n; v++ {
		if layer[v] != want.Layer[v] {
			return fmt.Sprintf("node %d: layer %d, want %d", v, layer[v], want.Layer[v])
		}
		if parent[v] != want.Parent[v] {
			return fmt.Sprintf("node %d: parent %d, want %d", v, parent[v], want.Parent[v])
		}
	}
	return ""
}
