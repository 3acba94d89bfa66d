// Benchmark harness: one target per table/figure of the paper, per the
// experiment index in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// Absolute throughput is ours (the substrate is a simulator); the paper's
// artifacts are structural (who can solve what, at what message size), and
// those quantities are emitted as benchmark metrics: bits/message,
// board bits, rounds.
package whiteboard_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/numtheory"
	"repro/internal/protocols/bfs"
	"repro/internal/protocols/buildforest"
	"repro/internal/protocols/buildkdeg"
	"repro/internal/protocols/connectivity"
	"repro/internal/protocols/mis"
	"repro/internal/protocols/randcliques"
	"repro/internal/protocols/subgraphf"
	"repro/internal/protocols/twocliques"
	"repro/internal/reductions"
)

func mustRun(b *testing.B, p core.Protocol, g *graph.Graph, adv adversary.Adversary, opts engine.Options) *core.Result {
	b.Helper()
	res := engine.Run(p, g, adv, opts)
	if res.Status != core.Success {
		b.Fatalf("%s on %d nodes: %v (%v)", p.Name(), g.N(), res.Status, res.Err)
	}
	return res
}

// BenchmarkTable1_Engine exercises one representative protocol per model —
// the four columns of Table 1 — and reports rounds and board bits.
func BenchmarkTable1_Engine(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 64
	cases := []struct {
		model string
		proto core.Protocol
		g     *graph.Graph
	}{
		{"SIMASYNC", buildkdeg.Protocol{K: 2}, graph.RandomKDegenerate(n, 2, rng)},
		{"SIMSYNC", mis.Protocol{Root: 1}, graph.RandomGNP(n, 0.1, rng)},
		{"ASYNC", bfs.New(bfs.EOB), graph.RandomEOB(n, 0.15, rng)},
		{"SYNC", bfs.New(bfs.General), graph.RandomConnectedGNP(n, 0.08, rng)},
	}
	for _, c := range cases {
		b.Run(c.model, func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, c.proto, c.g, adversary.Rotor{}, engine.Options{})
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Board.TotalBits()), "board-bits")
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
		})
	}
}

// BenchmarkTable2_BUILDForest regenerates the BUILD row (k=1 warm-up).
func BenchmarkTable2_BUILDForest(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(int64(n)))
		g := graph.RandomTree(n, rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, buildforest.Protocol{}, g, adversary.Rotor{}, engine.Options{})
				if !res.Output.(buildforest.Decoded).Forest.Equal(g) {
					b.Fatal("wrong reconstruction")
				}
			}
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
			b.ReportMetric(4*math.Ceil(math.Log2(float64(n+1))), "4logn-bound")
		})
	}
}

// BenchmarkTable2_BUILDKDegenerate regenerates the BUILD row for general k
// (Theorem 2), including the Newton-decode output path.
func BenchmarkTable2_BUILDKDegenerate(b *testing.B) {
	for _, k := range []int{1, 2, 3, 5} {
		n := 128
		rng := rand.New(rand.NewSource(int64(k)))
		g := graph.RandomKDegenerate(n, k, rng)
		b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
			p := buildkdeg.Protocol{K: k}
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, p, g, adversary.Rotor{}, engine.Options{})
				if !res.Output.(buildkdeg.Decoded).Graph.Equal(g) {
					b.Fatal("wrong reconstruction")
				}
			}
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
			b.ReportMetric(float64(k*k)*math.Ceil(math.Log2(float64(n+1))), "k2logn")
		})
	}
}

// BenchmarkTable2_MIS regenerates the rooted-MIS row (Theorem 5).
func BenchmarkTable2_MIS(b *testing.B) {
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(int64(n) + 7))
		g := graph.RandomGNP(n, 4.0/float64(n), rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, mis.Protocol{Root: 1}, g, adversary.Rotor{}, engine.Options{})
			}
			if !graph.IsMaximalIndependentSet(g, res.Output.([]int)) {
				b.Fatal("invalid MIS")
			}
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
		})
	}
}

// BenchmarkTable2_TwoCliques regenerates the 2-CLIQUES row (§5.1).
func BenchmarkTable2_TwoCliques(b *testing.B) {
	for _, half := range []int{16, 64, 256} {
		g := graph.TwoCliques(half, nil)
		b.Run(fmt.Sprintf("n=%d", 2*half), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, twocliques.Protocol{}, g, adversary.Rotor{}, engine.Options{})
				if !res.Output.(twocliques.Output).TwoCliques {
					b.Fatal("yes-instance rejected")
				}
			}
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
		})
	}
}

// BenchmarkTable2_EOBBFS regenerates the EOB-BFS row (Theorem 7).
func BenchmarkTable2_EOBBFS(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		rng := rand.New(rand.NewSource(int64(n) + 13))
		g := graph.RandomEOB(n, 8.0/float64(n), rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, bfs.New(bfs.EOB), g, adversary.Rotor{}, engine.Options{})
			}
			f := res.Output.(bfs.Forest)
			if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
				b.Fatal(msg)
			}
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
		})
	}
}

// BenchmarkTable2_BFS regenerates the BFS row (Theorem 10).
func BenchmarkTable2_BFS(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		rng := rand.New(rand.NewSource(int64(n) + 17))
		g := graph.RandomConnectedGNP(n, 6.0/float64(n), rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, bfs.New(bfs.General), g, adversary.Rotor{}, engine.Options{})
			}
			f := res.Output.(bfs.Forest)
			if msg := graph.ValidateBFSForest(g, f.Parent, f.Layer); msg != "" {
				b.Fatal(msg)
			}
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
		})
	}
}

// BenchmarkCorollary4_BipartiteBFS regenerates the bipartite ASYNC variant.
func BenchmarkCorollary4_BipartiteBFS(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		rng := rand.New(rand.NewSource(int64(n) + 19))
		g := graph.RandomBipartite(n, 8.0/float64(n), rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustRun(b, bfs.New(bfs.Bipartite), g, adversary.Rotor{}, engine.Options{})
			}
		})
	}
}

// BenchmarkFigure1_TriangleGadget regenerates Figure 1: gadget
// verification plus the full Theorem 3 reduction.
func BenchmarkFigure1_TriangleGadget(b *testing.B) {
	rng := rand.New(rand.NewSource(23))
	g := graph.RandomBipartite(10, 0.5, rng)
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := reductions.VerifyTriangleGadget(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prime-rebuild", func(b *testing.B) {
		p := reductions.TrianglePrime{Inner: reductions.OracleTriangle{}}
		for i := 0; i < b.N; i++ {
			res := mustRun(b, p, g, adversary.Rotor{}, engine.Options{})
			if !res.Output.(*graph.Graph).Equal(g) {
				b.Fatal("wrong reconstruction")
			}
		}
	})
}

// BenchmarkFigure2_EOBGadget regenerates Figure 2: gadget verification plus
// the full Theorem 8 reduction.
func BenchmarkFigure2_EOBGadget(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	h := graph.RandomEOB(10, 0.45, rng)
	in, err := reductions.NewEOBGadgetInput(h)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := in.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prime-rebuild", func(b *testing.B) {
		p := reductions.EOBPrime{Inner: reductions.OracleBFS{}}
		for i := 0; i < b.N; i++ {
			res := mustRun(b, p, h, adversary.Rotor{}, engine.Options{})
			if !res.Output.(*graph.Graph).Equal(h) {
				b.Fatal("wrong reconstruction")
			}
		}
	})
}

// BenchmarkTheorem6_MISReduction regenerates the Theorem 6 transformation.
func BenchmarkTheorem6_MISReduction(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	g := graph.RandomGNP(8, 0.4, rng)
	p := reductions.MISPrime{Inner: reductions.OracleMIS{Root: g.N() + 1}}
	for i := 0; i < b.N; i++ {
		res := mustRun(b, p, g, adversary.Rotor{}, engine.Options{})
		if !res.Output.(*graph.Graph).Equal(g) {
			b.Fatal("wrong reconstruction")
		}
	}
}

// BenchmarkLemma1_MessageSize measures the k-degenerate message size
// against the k(k+1)log n bound of Lemma 1.
func BenchmarkLemma1_MessageSize(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, n := range []int{256, 4096} {
			rng := rand.New(rand.NewSource(int64(k * n)))
			g := graph.RandomKDegenerate(n, k, rng)
			views := engine.Views(g)
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				p := buildkdeg.Protocol{K: k}
				empty := core.NewBoard()
				maxBits := 0
				for i := 0; i < b.N; i++ {
					m := p.Compose(views[1+i%n], empty)
					if m.Bits > maxBits {
						maxBits = m.Bits
					}
				}
				b.ReportMetric(float64(maxBits), "msg-bits")
				b.ReportMetric(float64(k*(k+1))*math.Ceil(math.Log2(float64(n+1))), "lemma1-bound")
			})
		}
	}
}

// BenchmarkLemma2_Decoders is the decoder ablation: Newton's identities vs
// the lookup table of Lemma 2.
func BenchmarkLemma2_Decoders(b *testing.B) {
	const n, k = 24, 3
	rng := rand.New(rand.NewSource(37))
	sets := make([][]int, 64)
	for i := range sets {
		perm := rng.Perm(n)
		d := 1 + rng.Intn(k)
		sets[i] = numtheory.SortedCopy(perm[:d])
		for j := range sets[i] {
			sets[i][j]++
		}
		sets[i] = numtheory.SortedCopy(sets[i])
	}
	b.Run("newton", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := sets[i%len(sets)]
			if _, err := numtheory.NewtonDecode(n, len(s), numtheory.PowerSums(s, k)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("table-build+lookup", func(b *testing.B) {
		tab := numtheory.NewTable(n, k)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := sets[i%len(sets)]
			if _, err := tab.Decode(len(s), numtheory.PowerSums(s, k)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkLemma3_Counting regenerates the counting curves.
func BenchmarkLemma3_Counting(b *testing.B) {
	b.Run("forest-count-n=256", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bounds.CountLabeledForests(256)
		}
	})
	b.Run("report-n=256", func(b *testing.B) {
		var violated int
		for i := 0; i < b.N; i++ {
			violated = 0
			for _, r := range bounds.Lemma3Report(256, 9) {
				if r.Violated {
					violated++
				}
			}
		}
		b.ReportMetric(float64(violated), "violated-families")
	})
	b.Run("collision-degree-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			col := bounds.FindCollision(bounds.DegreeOnly{},
				func(fn func(*graph.Graph) bool) { graph.AllGraphs(5, fn) },
				func(g *graph.Graph) string { return fmt.Sprint(graph.HasTriangle(g)) })
			if col == nil {
				b.Fatal("collision expected")
			}
		}
	})
}

// BenchmarkTheorem9_Subgraph sweeps f for SUBGRAPH_f: messages scale with
// f, not with n.
func BenchmarkTheorem9_Subgraph(b *testing.B) {
	const n = 256
	rng := rand.New(rand.NewSource(41))
	g := graph.RandomGNP(n, 0.3, rng)
	for _, f := range []int{4, 16, 64, 256} {
		f := f
		b.Run(fmt.Sprintf("f=%d", f), func(b *testing.B) {
			p := subgraphf.Protocol{F: func(int) int { return f }, Label: fmt.Sprint(f)}
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, p, g, adversary.Rotor{}, engine.Options{})
			}
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
		})
	}
}

// BenchmarkOpenProblem4_RandCliques measures the randomized 2-CLIQUES
// protocol and reports observed error counts across fingerprint widths.
func BenchmarkOpenProblem4_RandCliques(b *testing.B) {
	yes := graph.TwoCliques(32, nil)
	no := graph.TwoCliquesSwapped(32, nil)
	for _, bits := range []int{8, 16, 32} {
		bits := bits
		b.Run(fmt.Sprintf("B=%d", bits), func(b *testing.B) {
			errs := 0
			for i := 0; i < b.N; i++ {
				p := randcliques.Protocol{Seed: uint64(i)*0x9E3779B9 + 1, Bits: bits}
				ry := mustRun(b, p, yes, adversary.MinID{}, engine.Options{})
				rn := mustRun(b, p, no, adversary.MinID{}, engine.Options{})
				if !ry.Output.(randcliques.Output).TwoCliques || rn.Output.(randcliques.Output).TwoCliques {
					errs++
				}
			}
			b.ReportMetric(float64(errs), "errors")
		})
	}
}

// BenchmarkTheorem2Extension_Split regenerates the post-Theorem-2
// two-sided elimination: complements of k-degenerate graphs rebuilt with
// the same messages as the plain protocol.
func BenchmarkTheorem2Extension_Split(b *testing.B) {
	for _, k := range []int{1, 2, 3} {
		n := 96
		rng := rand.New(rand.NewSource(int64(k) + 47))
		g := graph.Complement(graph.RandomKDegenerate(n, k, rng))
		b.Run(fmt.Sprintf("co-kdeg/k=%d/n=%d", k, n), func(b *testing.B) {
			p := buildkdeg.Protocol{K: k, Split: true}
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, p, g, adversary.Rotor{}, engine.Options{})
				if !res.Output.(buildkdeg.Decoded).Graph.Equal(g) {
					b.Fatal("wrong reconstruction")
				}
			}
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
		})
	}
}

// BenchmarkOpenProblem2_Connectivity regenerates the SYNC side of Open
// Problem 2: connectivity + spanning forest from the BFS board.
func BenchmarkOpenProblem2_Connectivity(b *testing.B) {
	for _, n := range []int{64, 128, 256} {
		rng := rand.New(rand.NewSource(int64(n) + 53))
		g := graph.RandomGNP(n, 3.0/float64(n), rng)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			p := connectivity.New()
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, p, g, adversary.Rotor{}, engine.Options{})
			}
			ans := res.Output.(connectivity.Answer)
			if ans.Connected != graph.IsConnected(g) {
				b.Fatal("wrong connectivity answer")
			}
			b.ReportMetric(float64(ans.Components), "components")
		})
	}
}

// BenchmarkSquareReduction regenerates the intro's SQUARE hardness
// machinery: gadget verification and the 3-message prime rebuild over
// polarity-graph (C4-free extremal) inputs.
func BenchmarkSquareReduction(b *testing.B) {
	g := graph.PolarityGraph(3) // 13 nodes, C4-free, extremal density
	b.Run("verify-gadget", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := reductions.VerifySquareGadget(g); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prime-rebuild", func(b *testing.B) {
		p := reductions.SquarePrime{Inner: reductions.OracleSquare{}}
		for i := 0; i < b.N; i++ {
			res := mustRun(b, p, g, adversary.Rotor{}, engine.Options{})
			if !res.Output.(*graph.Graph).Equal(g) {
				b.Fatal("wrong reconstruction")
			}
		}
	})
}

// BenchmarkEngines measures the sequential engine on one k-degenerate
// BUILD schedule.
func BenchmarkEngines(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	g := graph.RandomKDegenerate(96, 2, rng)
	p := buildkdeg.Protocol{K: 2}
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustRun(b, p, g, adversary.Rotor{}, engine.Options{})
		}
	})
}

// BenchmarkExhaustiveAdversary measures the RunAll schedule explorer — the
// cost of the literal worst-case quantifier.
func BenchmarkExhaustiveAdversary(b *testing.B) {
	g := graph.Path(5)
	for i := 0; i < b.N; i++ {
		stats, err := engine.RunAll(mis.Protocol{Root: 1}, g, engine.Options{}, 1<<22,
			func(res *core.Result, _ []int) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(stats.Schedules), "schedules")
		}
	}
}
