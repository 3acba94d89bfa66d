package testutil

import (
	"sync"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// RunConcurrently executes engine.Run of one shared protocol value on g
// under a stateless adversary from the given number of goroutines at once
// and returns their results. Callers compare each result with a
// sequential run; under -race this also checks that the protocol's
// callbacks keep no unsynchronized state, since any caller may share a
// protocol value across goroutines.
func RunConcurrently(p core.Protocol, g *graph.Graph, adv adversary.Adversary, goroutines int) []*core.Result {
	results := make([]*core.Result, goroutines)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = engine.Run(p, g, adv, engine.Options{})
		}()
	}
	wg.Wait()
	return results
}
