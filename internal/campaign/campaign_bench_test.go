package campaign

import (
	"fmt"
	"io"
	"runtime"
	"testing"
)

// benchSpec is a medium-sized sweep: 1152 jobs of mixed protocols and
// graph families, the shape a real campaign has.
func benchSpec() Spec {
	return Spec{
		Protocols:   []string{"bfs", "mis", "connectivity"},
		Graphs:      []string{"gnp", "tree"},
		Adversaries: []string{"min", "rotor"},
		Sizes:       []int{16, 32, 48, 64},
		Seeds:       12,
		P:           0.2,
	}
}

// BenchmarkCampaignWorkers measures the same campaign at increasing worker
// counts; near-linear scaling up to the core count is the acceptance
// criterion for the sharded pool. Run with:
//
//	go test ./internal/campaign -bench Workers -benchtime 2x
func BenchmarkCampaignWorkers(b *testing.B) {
	spec := benchSpec()
	maxW := runtime.GOMAXPROCS(0)
	for workers := 1; workers <= maxW; workers *= 2 {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rep, err := Run(spec, Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if rep.Totals.Runs != rep.Jobs {
					b.Fatalf("lost jobs: %+v", rep.Totals)
				}
			}
		})
	}
}

// BenchmarkCampaignSequentialBaseline pins the per-job overhead of the
// campaign layer itself (expansion, registry lookups, aggregation) by
// running the smallest possible matrix single-threaded.
func BenchmarkCampaignSequentialBaseline(b *testing.B) {
	spec := Spec{
		Protocols:   []string{"build-forest"},
		Graphs:      []string{"tree"},
		Adversaries: []string{"min"},
		Sizes:       []int{16},
	}
	for i := 0; i < b.N; i++ {
		if _, err := Run(spec, Options{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriteJSON renders a fleet-sized report: the 108 cells of the
// benchmark's fleet workload (4 protocols, 3 graph families, 3 sizes and
// 3 adversaries, one of them a script).
func BenchmarkWriteJSON(b *testing.B) {
	rep, err := Run(Spec{
		Protocols:   []string{"build-forest", "bfs", "mis", "connectivity"},
		Graphs:      []string{"tree", "gnp", "path"},
		Adversaries: []string{"min", "rotor", "script:def stride(r) = mod(r * 7, len(candidates)); candidates[stride(round)]"},
		Sizes:       []int{32, 48, 64},
		Seeds:       5,
		P:           0.02,
	}, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := rep.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
