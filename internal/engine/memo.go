package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/graph"
)

// ErrMultiplicityOverflow is returned when an exact schedule multiplicity
// does not fit the int tallies of a Spectrum or campaign cell. The memoized
// walk stays exact-or-error: it never saturates a tally silently.
var ErrMultiplicityOverflow = errors.New("engine: schedule multiplicity overflows int tally")

// MemoStats summarizes a memoized exhaustive exploration.
type MemoStats struct {
	// Classes counts distinct configuration classes visited (DAG nodes),
	// terminals included.
	Classes int
	// Steps counts unique simulated writes (DAG edges) — the quantity the
	// maxSteps budget bounds.
	Steps int
	// Schedules is the exact number of terminal schedules, i.e. the sum of
	// path multiplicities over terminal classes. It equals the naive walk's
	// schedule count whenever that walk fits its budget.
	Schedules *big.Int
	// NaiveSteps is the number of writes the naive tree walk would have
	// simulated: the multiplicity-weighted edge count of the DAG.
	NaiveSteps *big.Int
}

// StepsSaved is NaiveSteps − Steps as an int: the writes the collapse
// spared. It is a diagnostic, not a tally, so it saturates rather than
// failing a run whose exact counts all fit.
func (s MemoStats) StepsSaved() int {
	saved, err := IntFromBig(new(big.Int).Sub(s.NaiveSteps, big.NewInt(int64(s.Steps))))
	if err != nil {
		return math.MaxInt
	}
	return saved
}

// appendConfigKey appends an injective encoding of a configuration — the
// ordered board, the per-node states, and (for asynchronous models, where
// messages freeze at activation) the pending message of every active node —
// to buf and returns the extended slice. Every variable-length component is
// length-prefixed, so distinct configurations can never encode alike; the
// board's human-oriented Key() has no such guarantee (a message whose data
// embeds the separator can mimic two messages), which is why the memoizer
// must not use it. Message data is keyed verbatim, trailing padding bytes
// included: protocols may read Data beyond Bits, so two messages equal as
// bit strings but not as byte slices are distinguishable and must not be
// merged.
func appendConfigKey(buf []byte, board *core.Board, st *state, includePending bool) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(st.state)-1))
	buf = binary.AppendUvarint(buf, uint64(board.Len()))
	for i := 0; i < board.Len(); i++ {
		buf = appendMessage(buf, board.At(i))
	}
	for v := 1; v < len(st.state); v++ {
		buf = append(buf, byte(st.state[v]))
		if includePending && st.state[v] == active {
			buf = appendMessage(buf, st.pending[v])
		}
	}
	return buf
}

func appendMessage(buf []byte, m core.Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Bits))
	buf = binary.AppendUvarint(buf, uint64(len(m.Data)))
	return append(buf, m.Data...)
}

// memoClass is one node of the configuration DAG: a canonical configuration
// under its key, plus the exact number of schedules reaching it. The node
// states are held by value; an asynchronous class may share its pending
// vector with its parent (see keep), and no class ever writes to one.
type memoClass struct {
	key   string
	st    state
	board *core.Board
	mult  *big.Int
}

// load overwrites the scratch state s with parent's node states, and with
// its pending messages when they matter (asynchronous models), keeping s's
// own storage.
func (s *state) load(parent *state, pending bool) {
	copy(s.state, parent.state)
	if pending {
		copy(s.pending, parent.pending)
	}
	s.written = parent.written
}

// keep copies the scratch state s, a successor of parent, out into a new
// class. An asynchronous class shares parent's pending vector unless
// settle activated a node, freezing its message into s; a synchronous
// class keeps none, since message never reads it.
func (s *state) keep(parent *state, async bool) state {
	kept := state{state: slices.Clone(s.state), written: s.written}
	if async {
		kept.pending = parent.pending
		for v := 1; v < len(s.state); v++ {
			if parent.state[v] == awake && s.state[v] == active {
				kept.pending = slices.Clone(s.pending)
				break
			}
		}
	}
	return kept
}

// RunAllMemo explores every adversarial schedule of p on g like RunAll, but
// collapses write orders that reach identical configurations: the schedule
// tree becomes a DAG over canonical (board, node-state, pending-message)
// classes, each visited once, with exact big.Int path counts propagated
// along the edges. visit is called once per terminal class with the class's
// Result and its schedule multiplicity; summing multiplicities reproduces
// the naive walk's tallies exactly. The maxSteps budget counts unique
// simulated writes (DAG edges); exceeding it returns ErrBudget with
// stats.Steps == maxSteps. Classes at each depth are processed in a
// deterministic (sorted-key) order, so errors and budget cut-offs are
// reproducible.
//
// Each successor is built in one scratch state and board, reused for the
// whole walk, and keyed there; only a class whose key is new is copied out
// (its board as one exact-size clone), and a write that lands in a known
// class just adds its multiplicity. A class is dropped once expanded, so
// at most two levels are live.
//
// The collapse is sound because protocols are deterministic in (view,
// board) and the engine's future behaviour is a function of the
// configuration alone: which nodes are awake/active/done, what the active
// ones froze, and the full ordered board. No approximation is involved —
// only protocols whose message contents coincide across writers ever
// collapse, and for the rest the DAG degenerates to the naive tree.
func RunAllMemo(p core.Protocol, g *graph.Graph, opts Options, maxSteps int,
	visit func(res *core.Result, mult *big.Int) error) (MemoStats, error) {

	m := newMachine(p, Views(g), opts)
	async := m.model.Asynchronous()
	stats := MemoStats{Schedules: new(big.Int), NaiveSteps: new(big.Int)}
	// Telemetry totals accumulate in plain locals and flush once on every
	// return path; the per-step hot path stays free of atomics.
	memoHits, multAdds := 0, 0
	defer func() {
		opts.Metrics.ExhaustiveDone(stats.Steps, stats.Classes, memoHits, multAdds)
	}()

	// A class is keyed after its activation phase, so classes settle when
	// they are created rather than when they are expanded.
	root := &memoClass{st: *newState(m.n), board: core.NewBoard(), mult: big.NewInt(1)}
	if err := m.settle(&root.st, root.board); err != nil {
		return stats, err
	}
	level, next := []*memoClass{root}, []*memoClass(nil)
	index := map[string]*memoClass{} // the classes in next, by key
	scratch, scratchBoard := newState(m.n), core.NewBoard()
	var keyBuf []byte
	var cand []int
	// Every transition writes exactly one message, so the DAG is leveled by
	// board length and a level-by-level sweep visits each class exactly once.
	for depth := 0; len(level) > 0; depth++ {
		round := depth + 1
		if round > m.maxRounds {
			return stats, fmt.Errorf("engine: RunAllMemo exceeded %d rounds at %d written messages", m.maxRounds, depth)
		}
		for i, c := range level {
			stats.Classes++
			c.st.cand = cand // the walk's one candidates buffer
			cand = c.st.candidates()
			if len(cand) == 0 {
				res := &core.Result{Board: c.board, Rounds: round}
				m.outcome(&c.st, res)
				multAdds++
				stats.Schedules.Add(stats.Schedules, c.mult)
				if err := visit(res, c.mult); err != nil {
					return stats, err
				}
			}
			for _, chosen := range cand {
				if stats.Steps == maxSteps {
					return stats, ErrBudget
				}
				stats.Steps++
				multAdds++
				stats.NaiveSteps.Add(stats.NaiveSteps, c.mult)
				msg, err := m.message(&c.st, c.board, chosen)
				if err != nil {
					return stats, err
				}
				scratch.load(&c.st, async)
				scratch.markWritten(chosen)
				// Reset also empties the derived-state slot, which still
				// holds what the previous successor's board folded to.
				scratchBoard.Reset()
				for j := 0; j < c.board.Len(); j++ {
					scratchBoard.Append(c.board.At(j))
				}
				scratchBoard.Append(msg)
				if err := m.settle(scratch, scratchBoard); err != nil {
					return stats, err
				}
				keyBuf = appendConfigKey(keyBuf[:0], scratchBoard, scratch, async)
				if dup, ok := index[string(keyBuf)]; ok {
					memoHits++
					multAdds++
					dup.mult.Add(dup.mult, c.mult)
					continue
				}
				kept := &memoClass{key: string(keyBuf), st: scratch.keep(&c.st, async),
					board: scratchBoard.Clone(), mult: new(big.Int).Set(c.mult)}
				index[kept.key] = kept
				next = append(next, kept)
			}
			level[i] = nil
		}
		clear(index)
		slices.SortFunc(next, func(a, b *memoClass) int { return strings.Compare(a.key, b.key) })
		level, next = next, level[:0]
	}
	return stats, nil
}

// IntFromBig converts an exact multiplicity to the int tallies used by
// Spectrum and campaign cells, or fails with ErrMultiplicityOverflow.
func IntFromBig(v *big.Int) (int, error) {
	if !v.IsInt64() {
		return 0, fmt.Errorf("%w: %s", ErrMultiplicityOverflow, v.String())
	}
	x := v.Int64()
	if int64(int(x)) != x {
		return 0, fmt.Errorf("%w: %s", ErrMultiplicityOverflow, v.String())
	}
	return int(x), nil
}
