// Benchmark harness: one target per table/figure of the paper, named after
// the result it regenerates (BenchmarkLemma3_Counting, ...), and one table,
// BenchmarkProtocols, of registered protocols run on the graphs of the
// results they regenerate. Run with
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
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bounds"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/numtheory"
	"repro/internal/protocols/buildkdeg"
	"repro/internal/protocols/mis"
	"repro/internal/protocols/randcliques"
	"repro/internal/reductions"
	"repro/internal/registry"
)

func mustRun(b *testing.B, p core.Protocol, g *graph.Graph, adv adversary.Adversary) *core.Result {
	b.Helper()
	res := engine.Run(p, g, adv, engine.Options{})
	if res.Status != core.Success {
		b.Fatalf("%s on %d nodes: %v (%v)", p.Name(), g.N(), res.Status, res.Err)
	}
	return res
}

// protocolRow is one row of BenchmarkProtocols: the paper result it
// regenerates, a registered protocol with its parameters, and its input.
type protocolRow struct {
	result   string
	protocol string
	params   registry.Params
	g        *graph.Graph
}

// protocolRows are Table 1's four models, Table 2's yes cells, Corollary 4,
// Theorems 2 (two-sided), 6 and 9, Open Problem 2, the triangle and square
// prime rebuilds, and the engine's BUILD schedule.
func protocolRows() []protocolRow {
	seeded := func(seed int) *rand.Rand { return rand.New(rand.NewSource(int64(seed))) }
	table1 := seeded(1)
	rows := []protocolRow{
		{"Table1_Engine/SIMASYNC", "build-kdeg", registry.Params{K: 2}, graph.RandomKDegenerate(64, 2, table1)},
		{"Table1_Engine/SIMSYNC", "mis", registry.Params{K: 1}, graph.RandomGNP(64, 0.1, table1)},
		{"Table1_Engine/ASYNC", "eob-bfs", registry.Params{}, graph.RandomEOB(64, 0.15, table1)},
		{"Table1_Engine/SYNC", "bfs", registry.Params{}, graph.RandomConnectedGNP(64, 0.08, table1)},
		{"Theorem6_MISReduction", "mis-prime", registry.Params{}, graph.RandomGNP(8, 0.4, seeded(31))},
		{"Figure1_TriangleGadget/prime-rebuild", "triangle-prime", registry.Params{}, graph.RandomBipartite(10, 0.5, seeded(23))},
		{"SquareReduction/prime-rebuild", "square-prime", registry.Params{}, graph.PolarityGraph(3)},
		{"Engines/sequential", "build-kdeg", registry.Params{K: 2}, graph.RandomKDegenerate(96, 2, seeded(43))},
	}
	for _, n := range []int{64, 256, 1024} {
		rows = append(rows, protocolRow{"Table2_BUILDForest", "build-forest", registry.Params{}, graph.RandomTree(n, seeded(n))},
			protocolRow{"Table2_MIS", "mis", registry.Params{K: 1}, graph.RandomGNP(n, 4.0/float64(n), seeded(n+7))})
	}
	for _, k := range []int{1, 2, 3, 5} {
		rows = append(rows, protocolRow{"Table2_BUILDKDegenerate", "build-kdeg", registry.Params{K: k},
			graph.RandomKDegenerate(128, k, seeded(k))})
	}
	for _, half := range []int{16, 64, 256} {
		rows = append(rows, protocolRow{"Table2_TwoCliques", "two-cliques", registry.Params{}, graph.TwoCliques(half, nil)})
	}
	for _, n := range []int{32, 64, 128} {
		rows = append(rows, protocolRow{"Table2_EOBBFS", "eob-bfs", registry.Params{}, graph.RandomEOB(n, 8.0/float64(n), seeded(n+13))},
			protocolRow{"Table2_BFS", "bfs", registry.Params{}, graph.RandomConnectedGNP(n, 6.0/float64(n), seeded(n+17))},
			protocolRow{"Corollary4_BipartiteBFS", "bipartite-bfs", registry.Params{}, graph.RandomBipartite(n, 8.0/float64(n), seeded(n+19))})
	}
	for _, k := range []int{1, 2, 3} {
		rows = append(rows, protocolRow{"Theorem2Extension_Split/co-kdeg", "build-split", registry.Params{K: k},
			graph.Complement(graph.RandomKDegenerate(96, k, seeded(k+47)))})
	}
	theorem9 := graph.RandomGNP(256, 0.3, seeded(41))
	for _, f := range []int{4, 16, 64, 256} {
		rows = append(rows, protocolRow{"Theorem9_Subgraph", "subgraph", registry.Params{K: f}, theorem9})
	}
	for _, n := range []int{64, 128, 256} {
		rows = append(rows, protocolRow{"OpenProblem2_Connectivity", "connectivity", registry.Params{},
			graph.RandomGNP(n, 3.0/float64(n), seeded(n+53))})
	}
	return rows
}

// BenchmarkProtocols runs each row's protocol under Rotor; a row fails on a
// run that does not succeed or an output the registry's check rejects. It
// reports rounds, board bits, the largest message and the budget the engine
// holds every message to.
func BenchmarkProtocols(b *testing.B) {
	for _, r := range protocolRows() {
		r.params.N = r.g.N()
		name := fmt.Sprintf("%s/%s/n=%d", r.result, r.protocol, r.g.N())
		if r.params.K != 0 {
			name += fmt.Sprintf("/k=%d", r.params.K)
		}
		b.Run(name, func(b *testing.B) {
			p := registry.MustProtocol(r.protocol, r.params)
			var res *core.Result
			for i := 0; i < b.N; i++ {
				res = mustRun(b, p, r.g, adversary.Rotor{})
				if err := registry.CheckOutput(r.protocol, r.params, r.g, res.Output); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.Board.TotalBits()), "board-bits")
			b.ReportMetric(float64(res.MaxBits), "max-msg-bits")
			b.ReportMetric(float64(p.MaxMessageBits(r.g.N())), "budget-bits")
		})
	}
}

// BenchmarkFigure1_TriangleGadget regenerates Figure 1's gadget
// verification; BenchmarkProtocols runs the Theorem 3 prime.
func BenchmarkFigure1_TriangleGadget(b *testing.B) {
	g := graph.RandomBipartite(10, 0.5, rand.New(rand.NewSource(23)))
	for i := 0; i < b.N; i++ {
		if err := reductions.VerifyTriangleGadget(g); err != nil {
			b.Fatal(err)
		}
	}
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
		p := reductions.EOBPrime{Inner: reductions.BFSOracle}
		for i := 0; i < b.N; i++ {
			res := mustRun(b, p, h, adversary.Rotor{})
			if !res.Output.(*graph.Graph).Equal(h) {
				b.Fatal("wrong reconstruction")
			}
		}
	})
}

// BenchmarkLemma1_MessageSize measures the k-degenerate message size
// against the budget the engine enforces, failing a message over it.
func BenchmarkLemma1_MessageSize(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		for _, n := range []int{256, 4096} {
			rng := rand.New(rand.NewSource(int64(k * n)))
			g := graph.RandomKDegenerate(n, k, rng)
			views := engine.Views(g)
			b.Run(fmt.Sprintf("k=%d/n=%d", k, n), func(b *testing.B) {
				p := buildkdeg.Protocol{K: k}
				budget := p.MaxMessageBits(n)
				empty := core.NewBoard()
				maxBits := 0
				for i := 0; i < b.N; i++ {
					m := p.Compose(views[1+i%n], empty)
					if m.Bits > budget {
						b.Fatalf("node %d wrote %d bits, over the %d-bit budget", 1+i%n, m.Bits, budget)
					}
					maxBits = max(maxBits, m.Bits)
				}
				b.ReportMetric(float64(maxBits), "msg-bits")
				b.ReportMetric(float64(budget), "budget-bits")
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
				ry := mustRun(b, p, yes, adversary.MinID{})
				rn := mustRun(b, p, no, adversary.MinID{})
				if !ry.Output.(randcliques.Output).TwoCliques || rn.Output.(randcliques.Output).TwoCliques {
					errs++
				}
			}
			b.ReportMetric(float64(errs), "errors")
		})
	}
}

// BenchmarkSquareReduction regenerates the intro's SQUARE gadget
// verification over a polarity graph (C4-free extremal);
// BenchmarkProtocols runs the 3-message prime rebuild.
func BenchmarkSquareReduction(b *testing.B) {
	g := graph.PolarityGraph(3) // 13 nodes, C4-free, extremal density
	for i := 0; i < b.N; i++ {
		if err := reductions.VerifySquareGadget(g); err != nil {
			b.Fatal(err)
		}
	}
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
