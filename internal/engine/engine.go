// Package engine executes whiteboard protocols on graphs under the four
// models of the paper.
//
// Three traversals share one transition kernel:
//
//   - Run (and the allocation-free Runner): deterministic sequential
//     execution under a given adversary.
//   - RunAll: exhaustive enumeration of every adversarial schedule as a
//     tree walk (the paper's worst-case quantifier made literal), for small
//     inputs; it hands each schedule's write order to its callback.
//   - RunAllMemo: the same exploration as a DAG over canonical
//     configurations with exact schedule multiplicities. Classes share
//     board prefixes, the successors of each parent board are deduped and
//     sorted as one group, keyed by the appended message and their node
//     states, and only the classes whose keys are new are kept.
//
// Round semantics (see DESIGN.md §1 for the rationale): in each round every
// awake node evaluates its activation predicate against the current board;
// newly active nodes in asynchronous models freeze their message
// immediately; then the adversary appends the pending message of any active
// unwritten node — including one that activated this round — and that node
// is marked written (it formally terminates next round, which no one can
// observe). A run succeeds when all n messages are on the board and
// deadlocks when unwritten nodes remain but no candidate exists.
package engine

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/telemetry"
)

// Options tunes a run.
type Options struct {
	// Model overrides the protocol's declared model; zero value (nil) uses
	// p.Model(). Running a protocol under a *weaker* model than it was
	// designed for (e.g. SYNC-BFS under ASYNC freezing) is allowed — that is
	// how the paper's separations are demonstrated.
	Model *core.Model
	// MaxRounds bounds the execution; 0 means 4n+16 (every run that makes
	// progress writes once per round, so this is generous).
	MaxRounds int
	// Metrics, when non-nil, receives one flush of accumulated totals per
	// run or exploration (telemetry.Nop — a nil group — disables this for
	// free). Totals are gathered in the engine's own loop variables first,
	// so the per-step hot path carries no atomic operations.
	Metrics *telemetry.EngineMetrics
}

// ModelPtr is a convenience for Options.Model.
func ModelPtr(m core.Model) *core.Model { return &m }

// Views precomputes the NodeViews of a graph.
func Views(g *graph.Graph) []core.NodeView {
	n := g.N()
	vs := make([]core.NodeView, n+1)
	for v := 1; v <= n; v++ {
		vs[v] = core.NodeView{ID: v, Neighbors: g.Neighbors(v), N: n}
	}
	return vs
}

// Run executes p on g under adv.
func Run(p core.Protocol, g *graph.Graph, adv adversary.Adversary, opts Options) *core.Result {
	res := &core.Result{Board: core.NewBoard()}
	runInto(newMachine(p, Views(g), opts), adv, newState(g.N()), res)
	opts.Metrics.RunDone(len(res.Writes))
	return res
}

// runInto executes the round loop into caller-owned storage: st must be
// reset for m's node count and res must be zeroed except for an empty
// res.Board (and a reusable res.Writes spine). This is the shared core of
// Run and Runner.Run; the latter reuses st, board, and the Writes slice
// across calls.
func runInto(m machine, adv adversary.Adversary, st *state, res *core.Result) {
	board := res.Board
	fail := func(err error) {
		res.Status = core.Failed
		res.Err = err
	}
	for round := 1; ; round++ {
		if round > m.maxRounds {
			fail(fmt.Errorf("engine: exceeded %d rounds (protocol or adversary livelock)", m.maxRounds))
			return
		}
		res.Rounds = round
		if err := m.settle(st, board); err != nil {
			fail(err)
			return
		}
		candidates := st.candidates()
		if len(candidates) == 0 {
			m.outcome(st, res)
			return
		}
		chosen := adv.Choose(round, candidates, board)
		if !slices.Contains(candidates, chosen) {
			// A faulting adversary (e.g. a scenario script over budget)
			// deliberately returns a non-candidate; surface its cause.
			if f, ok := adv.(adversary.Faulter); ok && f.Fault() != nil {
				fail(fmt.Errorf("engine: adversary failed: %w", f.Fault()))
				return
			}
			fail(fmt.Errorf("engine: adversary %q chose %d, not a candidate %v", adv.Name(), chosen, candidates))
			return
		}
		msg, err := m.message(st, board, chosen)
		if err != nil {
			fail(err)
			return
		}
		board.Append(msg)
		st.markWritten(chosen)
		res.Writes = append(res.Writes, core.WriteEvent{Round: round, Writer: chosen, Bits: msg.Bits})
		res.MaxBits = max(res.MaxBits, msg.Bits)
	}
}

// ErrBudget is returned by RunAll when the exploration budget is exhausted.
var ErrBudget = errors.New("engine: exhaustive exploration budget exhausted")

// AllStats summarizes an exhaustive exploration.
type AllStats struct {
	Schedules int // terminal schedules reached
	Steps     int // total writes simulated
}

// RunAll explores every adversarial schedule of p on g under the (possibly
// overridden) model and calls check on each terminal Result. It stops at the
// first check error (returning it) or when the budget of maxSteps simulated
// writes is exhausted (returning ErrBudget with stats.Steps == maxSteps:
// exactly maxSteps writes were simulated, the first over-budget write is
// never executed). check receives the write order alongside the result.
// opts.MaxRounds bounds each schedule exactly as in Run (0 means the 4n+16
// default); exceeding it aborts the exploration with an error, since a
// too-deep branch means every deeper branch is suspect too. RunAll is the
// plain tree walk — the differential reference for RunAllMemo, which
// explores the same space as a DAG over canonical configurations with exact
// multiplicities.
func RunAll(p core.Protocol, g *graph.Graph, opts Options, maxSteps int,
	check func(res *core.Result, order []int) error) (AllStats, error) {

	m := newMachine(p, Views(g), opts)
	stats := AllStats{}
	var explore func(st *state, board *core.Board, order []int, round int) error
	explore = func(st *state, board *core.Board, order []int, round int) error {
		if round > m.maxRounds {
			return fmt.Errorf("engine: RunAll exceeded %d rounds (order %v)", m.maxRounds, order)
		}
		if err := m.settle(st, board); err != nil {
			return err
		}
		candidates := st.candidates()
		if len(candidates) == 0 {
			res := &core.Result{Board: board, Rounds: round}
			m.outcome(st, res)
			stats.Schedules++
			return check(res, order)
		}
		for _, chosen := range candidates {
			if stats.Steps == maxSteps {
				return ErrBudget
			}
			stats.Steps++
			msg, err := m.message(st, board, chosen)
			if err != nil {
				return err
			}
			st2, board2 := st.clone(), board.Clone()
			board2.Append(msg)
			st2.markWritten(chosen)
			// The full slice expression makes append copy: every branch owns
			// its order.
			if err := explore(st2, board2, append(order[:len(order):len(order)], chosen), round+1); err != nil {
				return err
			}
		}
		return nil
	}

	err := explore(newState(m.n), core.NewBoard(), nil, 1)
	opts.Metrics.ExhaustiveDone(stats.Steps, 0, 0, 0)
	return stats, err
}
