// wbbounds prints the Lemma 3 counting curves — log₂(family size) versus
// whiteboard capacity n·f(n) — for the families the paper's lower bounds
// quantify over, and exhibits pigeonhole collisions for concrete strawman
// protocols. A malformed or non-positive -ns item exits 2.
package main

import (
	"flag"
	"fmt"
	"math/bits"
	"os"
	"strconv"
	"strings"

	"repro/internal/bounds"
	"repro/internal/graph"
	"repro/internal/registry"
)

func main() {
	ns := flag.String("ns", "16,32,64,128,256,512", "comma separated n values")
	flag.Parse()
	sizes, err := parseInts(*ns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wbbounds:", err)
		os.Exit(2)
	}

	fmt.Println("Lemma 3 — log2 |family| vs whiteboard capacity n·f(n)")
	fmt.Println("(a family is reconstructible only if log2|family| ≤ capacity + n)")
	fmt.Println()
	for _, n := range sizes {
		logn := bits.Len(uint(n))
		budgets := []struct {
			label string
			bits  int
		}{
			{"f=log n", logn},
			{"f=4 log n (Thm 2 forests)", 4 * logn},
			{"f=√n", isqrt(n)},
			{"f=n/8", n / 8},
		}
		fmt.Printf("n = %d\n", n)
		for _, b := range budgets {
			if b.bits < 1 {
				continue
			}
			fmt.Printf("  budget %-26s (%4d bits):\n", b.label, b.bits)
			for _, row := range bounds.Lemma3Report(n, b.bits) {
				fmt.Printf("    %s\n", row)
			}
		}
		fmt.Println()
	}

	fmt.Println("Pigeonhole collisions for concrete SIMASYNC strawmen (n=5, all 1024 graphs):")
	col := bounds.FindCollision(bounds.DegreeOnly{},
		func(fn func(*graph.Graph) bool) { graph.AllGraphs(5, fn) },
		func(g *graph.Graph) string { return fmt.Sprint(graph.HasTriangle(g)) })
	if col != nil {
		fmt.Printf("  degree-only vs TRIANGLE:   %v (tri=%s)  ≡board≡  %v (tri=%s)\n",
			col.A, col.PropertyA, col.B, col.PropertyB)
	}
	col = bounds.FindCollision(bounds.Sketch{Seed: 42, B: 4},
		func(fn func(*graph.Graph) bool) { graph.AllEOBGraphs(6, fn) },
		func(g *graph.Graph) string { return g.Key() })
	if col != nil {
		fmt.Printf("  4-bit sketch vs BUILD/EOB: %v  ≡board≡  %v\n", col.A, col.B)
	}
	col = bounds.FindCollision(registry.MustProtocol("subgraph", registry.Params{K: 2}),
		func(fn func(*graph.Graph) bool) { graph.AllGraphs(5, fn) },
		func(g *graph.Graph) string { return g.Key() })
	if col != nil {
		fmt.Printf("  2-col truncated rows:      %v  ≡board≡  %v\n", col.A, col.B)
	}
	fmt.Println()
	fmt.Println("Sanity (upper bound really is achievable): the Section 3.1 forest message")
	fmt.Println("map (ID, degree, neighbor-ID sum) admits NO collision on all forests with n=6:")
	col = bounds.FindCollision(registry.MustProtocol("build-forest", registry.Params{}),
		func(fn func(*graph.Graph) bool) { graph.AllForests(6, fn) },
		func(g *graph.Graph) string { return g.Key() })
	fmt.Printf("  collision found: %v\n", col != nil)
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
	var out []int
	for _, item := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(item))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("-ns wants comma-separated positive integers, got %q", item)
		}
		out = append(out, n)
	}
	return out, nil
}

func isqrt(n int) int {
	r := 0
	for (r+1)*(r+1) <= n {
		r++
	}
	return r
}
