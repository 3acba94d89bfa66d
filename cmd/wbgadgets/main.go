// wbgadgets regenerates and verifies the paper's two figures:
//
//	Figure 1 — the triangle gadget G'_{s,t} (Theorem 3): add one node
//	           adjacent to v_s and v_t; on triangle-free inputs, a triangle
//	           appears iff {v_s,v_t} is an edge.
//	Figure 2 — the EOB-BFS gadget G_i (Theorem 8): a pendant structure that
//	           puts v_j in BFS layer 3 of the tree rooted at v_1 iff
//	           {v_i, v_j} is an edge.
//
// Both gadgets, and the square gadget behind the introduction's SQUARE
// bound, are verified structurally on random inputs and then driven end to
// end: the corresponding prime protocol rebuilds the hidden graph through
// the engine, edge for edge. wbgadgets exits 1 when a gadget fails to
// verify, a prime's run fails, or a prime rebuilds the wrong graph.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/reductions"
	"repro/internal/registry"
)

func main() {
	seed := flag.Int64("seed", 2012, "random seed for the hidden graphs")
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	fmt.Println("Figure 1 — triangle gadget G'_{s,t}")
	exact := figure1(rng)
	fmt.Println()
	fmt.Println("Figure 2 — EOB-BFS gadget G_i")
	exact = figure2(rng) && exact
	fmt.Println()
	fmt.Println("Bonus — square gadget G''_{s,t} (intro's SQUARE hardness, Thm-3 style)")
	exact = squareGadget(rng) && exact
	if !exact {
		fmt.Fprintln(os.Stderr, "wbgadgets: a prime rebuilt the wrong graph")
		os.Exit(1)
	}
}

// The figures print their checks and report whether their prime rebuilt
// the hidden graph exactly.

func squareGadget(rng *rand.Rand) bool {
	g := registry.MustGraph("tree", registry.Params{N: 9}, rng)
	if err := reductions.VerifySquareGadget(g); err != nil {
		fmt.Println("  VERIFY FAILED:", err)
		os.Exit(1)
	}
	fmt.Printf("  verified: all %d pairs on %v\n", 9*8/2, g)

	pol := registry.MustGraph("polarity", registry.Params{N: 13}, nil) // ER_q for the largest prime q with q²+q+1 ≤ 13, i.e. q=3
	fmt.Printf("  counting family: polarity graph ER_3 — n=%d, m=%d, C4-free=%v\n",
		pol.N(), pol.M(), !graph.HasSquare(pol))
	p := reductions.PairPrime{Gadget: reductions.Square, Inner: reductions.SquareOracle}
	res := engine.Run(p, g, registry.MustAdversary("rotor", registry.Params{}), engine.Options{})
	if res.Status != core.Success {
		fmt.Println("  REDUCTION RUN FAILED:", res.Err)
		os.Exit(1)
	}
	exact := res.Output.(*graph.Graph).Equal(g)
	fmt.Printf("  SquarePrime rebuilt the graph exactly: %v (3·f(n+2)+O(log n) bits per message)\n", exact)
	return exact
}

func figure1(rng *rand.Rand) bool {
	// The paper's running example: the 7-node graph with the gadget node 8
	// attached to 2 and 7.
	g := graph.FromEdges(7, [][2]int{{1, 2}, {1, 4}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {2, 5}})
	if graph.HasTriangle(g) {
		fmt.Println("  (example graph has a triangle; regenerating)")
		g = graph.Cycle(7)
	}
	gad := reductions.Triangle.Graph(g, 2, 7)
	fmt.Printf("  example: G = %v\n", g)
	fmt.Printf("  G'_{2,7} adds node 8 with edges 8-2, 8-7: triangle=%v, edge {2,7}=%v\n",
		graph.HasTriangle(gad), g.HasEdge(2, 7))

	bip := registry.MustGraph("bipartite", registry.Params{N: 10, P: 0.5}, rng)
	if err := reductions.VerifyTriangleGadget(bip); err != nil {
		fmt.Println("  VERIFY FAILED:", err)
		os.Exit(1)
	}
	fmt.Printf("  verified: all %d pairs on random bipartite %v\n", 10*9/2, bip)

	p := reductions.PairPrime{Gadget: reductions.Triangle, Inner: reductions.TriangleOracle}
	res := engine.Run(p, bip, registry.MustAdversary("rotor", registry.Params{}), engine.Options{})
	if res.Status != core.Success {
		fmt.Println("  REDUCTION RUN FAILED:", res.Err)
		os.Exit(1)
	}
	exact := res.Output.(*graph.Graph).Equal(bip)
	fmt.Printf("  Theorem 3 end-to-end: TrianglePrime rebuilt the graph exactly: %v\n", exact)
	fmt.Printf("  message accounting: inner f(n+1)=%d bits → prime %d bits (≤ 2f + O(log n))\n",
		reductions.TriangleOracle.MaxMessageBits(bip.N()+1), res.MaxBits)
	return exact
}

func figure2(rng *rand.Rand) bool {
	// The paper's example: n=7, G on {v2..v7}, gadget nodes {1, 8..13}.
	h := graph.FromEdges(6, [][2]int{{1, 2}, {2, 3}, {3, 4}, {4, 5}}) // plays v2..v7
	in, err := reductions.NewEOBGadgetInput(h)
	if err != nil {
		fmt.Println("  BAD INPUT:", err)
		os.Exit(1)
	}
	g5 := in.Gadget(5)
	fmt.Printf("  example: H = %v (as v2..v7), G_5 = %v\n", h, g5)
	dist := graph.Distances(g5, 1)
	fmt.Printf("  BFS layers from v1 in G_5: dist(v10)=%d, dist(v5)=%d; layer-3 = N(v5)\n",
		dist[10], dist[5])
	if err := in.Verify(); err != nil {
		fmt.Println("  VERIFY FAILED:", err)
		os.Exit(1)
	}
	fmt.Println("  verified: layer-3 membership ⇔ adjacency to v_i, for every odd i")

	big := registry.MustGraph("eob", registry.Params{N: 10, P: 0.45}, rng)
	inBig, err := reductions.NewEOBGadgetInput(big)
	if err != nil {
		fmt.Println("  BAD INPUT:", err)
		os.Exit(1)
	}
	if err := inBig.Verify(); err != nil {
		fmt.Println("  VERIFY FAILED:", err)
		os.Exit(1)
	}
	p := reductions.EOBPrime{Inner: reductions.BFSOracle}
	res := engine.Run(p, big, registry.MustAdversary("random", registry.Params{Seed: 5}), engine.Options{})
	if res.Status != core.Success {
		fmt.Println("  REDUCTION RUN FAILED:", res.Err)
		os.Exit(1)
	}
	exact := res.Output.(*graph.Graph).Equal(big)
	fmt.Printf("  Theorem 8 end-to-end: EOBPrime rebuilt %v exactly: %v\n", big, exact)
	return exact
}
