package engine

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/protocols/mis"
)

// BenchmarkRun measures raw engine overhead with a near-free protocol.
func BenchmarkRun(b *testing.B) {
	for _, n := range []int{16, 64, 256, 1024} {
		g := graph.Path(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res := Run(idEcho{}, g, adversary.Rotor{}, Options{}); res.Status != core.Success {
					b.Fatal(res.Err)
				}
			}
			b.ReportMetric(float64(n), "writes")
		})
	}
}

// BenchmarkRunAll measures exhaustive schedule enumeration growth: a
// SIMASYNC protocol on n nodes has n! schedules.
func BenchmarkRunAll(b *testing.B) {
	for _, n := range []int{4, 5, 6, 7} {
		g := graph.Path(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var schedules int
			for i := 0; i < b.N; i++ {
				stats, err := RunAll(idEcho{}, g, Options{}, 1<<26,
					func(*core.Result, []int) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				schedules = stats.Schedules
			}
			b.ReportMetric(float64(schedules), "schedules")
		})
	}
}

// BenchmarkExhaustiveStrategies compares the naive tree walk with the
// memoized DAG walk on rooted MIS over cycles — a protocol whose message
// contents coincide across writers, so the configuration space genuinely
// collapses (the per-op steps metric shows the asymptotic gap; allocs show
// the memoizer's key/frontier overhead). On complete graphs it times the
// memoized walk alone: there a parent board's successors crowd onto few
// child boards (mis on K9 puts 70 classes on one), so the walk's lookup
// within a group sets its pace.
func BenchmarkExhaustiveStrategies(b *testing.B) {
	p := mis.Protocol{Root: 1}
	memo := func(g *graph.Graph) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			var stats MemoStats
			for i := 0; i < b.N; i++ {
				var err error
				stats, err = RunAllMemo(p, g, Options{}, 1<<26,
					func(*core.Result, *big.Int) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(stats.Steps), "steps")
			b.ReportMetric(float64(stats.Classes), "classes")
		}
	}
	for _, n := range []int{5, 6, 7} {
		g := graph.Cycle(n)
		b.Run(fmt.Sprintf("naive/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var steps int
			for i := 0; i < b.N; i++ {
				stats, err := RunAll(p, g, Options{}, 1<<26,
					func(*core.Result, []int) error { return nil })
				if err != nil {
					b.Fatal(err)
				}
				steps = stats.Steps
			}
			b.ReportMetric(float64(steps), "steps")
		})
		b.Run(fmt.Sprintf("memo/n=%d", n), memo(g))
	}
	for _, n := range []int{12, 14, 16} {
		b.Run(fmt.Sprintf("memo/complete/n=%d", n), memo(graph.Complete(n)))
	}
}

// BenchmarkOutputSpectrum times the spectrum layer: the memoized walk, the
// key of each terminal's output, and the tally that counts it.
// Build-forest on P8 never collapses, so each of its 40,320 schedules is a
// terminal class that decodes the same forest; it is the slowest cell of
// the distinct pass of perfbench's exhaustive op. mis on C8 and C9
// collapses, so terminals are few and the walk sets the pace; C9 is the
// slowest cell, and so the critical path, of the deep pass.
func BenchmarkOutputSpectrum(b *testing.B) {
	for _, c := range []struct {
		proto, graph string
		n            int
	}{
		{"build-forest", "path", 8},
		{"mis", "cycle", 8},
		{"mis", "cycle", 9},
	} {
		p, g := registeredInstance(b, c.proto, c.graph, c.n)
		b.Run(fmt.Sprintf("%s/%s/n=%d", c.proto, c.graph, c.n), func(b *testing.B) {
			b.ReportAllocs()
			var s *Spectrum
			for i := 0; i < b.N; i++ {
				var err error
				if s, err = OutputSpectrum(p, g, Options{}, 1<<26); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(s.Classes), "classes")
		})
	}
}
