package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Property-based tests on the graph substrate: the sorted adjacency lists
// and the bitset mirror must stay coherent under arbitrary edge-op
// sequences, and the derived quantities must satisfy their textbook
// invariants.

func TestQuickAdjacencyCoherence(t *testing.T) {
	f := func(ops []uint16, seed int64) bool {
		const n = 12
		g := New(n)
		shadow := map[[2]int]bool{}
		for _, op := range ops {
			u := int(op%n) + 1
			v := int((op/n)%n) + 1
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			if shadow[[2]int{u, v}] {
				g.RemoveEdge(u, v)
				delete(shadow, [2]int{u, v})
			} else {
				g.AddEdge(u, v)
				shadow[[2]int{u, v}] = true
			}
		}
		// Bitset and adjacency lists agree with the shadow map.
		if g.M() != len(shadow) {
			return false
		}
		for u := 1; u <= n; u++ {
			prev := 0
			for _, v := range g.Neighbors(u) {
				if v <= prev { // sortedness + no duplicates
					return false
				}
				prev = v
				a, b := u, v
				if a > b {
					a, b = b, a
				}
				if !shadow[[2]int{a, b}] || !g.HasEdge(u, v) || !g.HasEdge(v, u) {
					return false
				}
			}
		}
		total := 0
		for u := 1; u <= n; u++ {
			total += g.Degree(u)
		}
		return total == 2*g.M() // handshake lemma
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickCloneIsDetached(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(10, 0.4, rng)
		c := g.Clone()
		if !g.Equal(c) {
			return false
		}
		// Mutating the clone must not affect the original.
		key := g.Key()
		for _, e := range c.Edges() {
			c.RemoveEdge(e[0], e[1])
		}
		return g.Key() == key && c.M() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickBFSLayersAreDistances(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(14, 0.15, rng)
		r := BFSForest(g)
		for v := 1; v <= g.N(); v++ {
			// Root of v's tree.
			root := v
			for r.Parent[root] != 0 {
				root = r.Parent[root]
			}
			d := Distances(g, root)
			if d[v] != r.Layer[v] {
				return false
			}
			if r.Parent[v] != 0 {
				if !g.HasEdge(v, r.Parent[v]) || r.Layer[r.Parent[v]] != r.Layer[v]-1 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickDegeneracyBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(12, 0.3, rng)
		d := Degeneracy(g)
		// Bounds: avg-degree/2 ≤ d ≤ max degree; forests have d ≤ 1.
		maxDeg := 0
		for v := 1; v <= g.N(); v++ {
			if g.Degree(v) > maxDeg {
				maxDeg = g.Degree(v)
			}
		}
		if d > maxDeg {
			return false
		}
		if g.M() > 0 && d == 0 {
			return false
		}
		// Removing the degeneracy order replays within budget (checked in
		// detail elsewhere); here: subgraph monotonicity under one edge
		// removal.
		if g.M() > 0 {
			e := g.Edges()[0]
			h := g.Clone()
			h.RemoveEdge(e[0], e[1])
			if Degeneracy(h) > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickComplementInvolution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomGNP(10, 0.5, rng)
		cc := Complement(Complement(g))
		if !cc.Equal(g) {
			return false
		}
		return g.M()+Complement(g).M() == 10*9/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestQuickSplitDegenerateInClass(t *testing.T) {
	// Every generated instance admits the two-sided elimination its
	// constructor promises.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + int(uint(seed)%12)
		k := 1 + int(uint(seed)%3)
		g := RandomSplitDegenerate(n, k, rng)
		return IsSplitDegenerate(g, k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestQuickEOBSubgraphsStayEOB(t *testing.T) {
	f := func(seed int64, mask uint32) bool {
		rng := rand.New(rand.NewSource(seed))
		g := RandomEOB(10, 0.5, rng)
		// Delete a masked subset of edges; still EOB.
		edges := g.Edges()
		for i, e := range edges {
			if mask>>(uint(i)%32)&1 == 1 {
				g.RemoveEdge(e[0], e[1])
			}
		}
		return IsEvenOddBipartite(g) && IsBipartite(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
