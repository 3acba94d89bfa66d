package engine

import (
	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
)

// Runner executes many runs while reusing every per-run allocation: the
// node-state and pending-message arrays, the candidate buffer, the board
// spine and the storage of what protocols fold from the board (core.Fold),
// the NodeView slice, and the Writes slice. It is the hot-loop entry
// point for batch drivers (internal/campaign): a sequential Run allocates
// afresh per execution, while a long-lived Runner amortizes that cost to
// near zero once its buffers reach the high-water mark of the workload.
//
// A Runner is not safe for concurrent use; give each worker goroutine its
// own.
type Runner struct {
	st    *state
	views []core.NodeView
	board *core.Board
	res   core.Result
}

// NewRunner returns a Runner with empty buffers; they grow on first use.
func NewRunner() *Runner {
	return &Runner{st: newState(0), board: core.NewBoard()}
}

// Run executes p on g under adv exactly like the package-level Run — same
// schedule, same Result — but reuses the Runner's buffers. The returned
// Result, including its Board and Writes, is owned by the Runner and valid
// only until the next call; callers that need to retain anything must copy
// it out first.
func (r *Runner) Run(p core.Protocol, g *graph.Graph, adv adversary.Adversary, opts Options) *core.Result {
	n := g.N()
	if cap(r.views) <= n {
		r.views = make([]core.NodeView, n+1)
	}
	views := r.views[:n+1]
	for v := 1; v <= n; v++ {
		views[v] = core.NodeView{ID: v, Neighbors: g.Neighbors(v), N: n}
	}
	r.st.reset(n)
	r.board.Reset()
	r.res = core.Result{Board: r.board, Writes: r.res.Writes[:0]}
	runInto(newMachine(p, views, opts), adv, r.st, &r.res)
	opts.Metrics.RunDone(len(r.res.Writes))
	return &r.res
}
