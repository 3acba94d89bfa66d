package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/bits"
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

// appendSuccessorKey appends the memo key of a successor configuration to
// buf: the rank of its parent's board among the distinct boards of the
// parent's level, as a width-byte big-endian integer, then the message the
// write appended, then the node states (appendStates). Within a level every
// board has the same length, every message encoding is prefix-free and the
// ranks follow the order of the parents' boards, so these keys sort and
// collide exactly as the configurations' full encodings (the whole board
// message by message, then the states) would, at O(n + message) bytes
// instead of O(board).
func appendSuccessorKey(buf []byte, rank uint64, width int, msg core.Message, st *state, includePending bool) []byte {
	for shift := 8 * (width - 1); shift >= 0; shift -= 8 {
		buf = append(buf, byte(rank>>shift))
	}
	return appendStates(appendMessage(buf, msg), st, includePending)
}

// appendStates appends each node's state and, when includePending
// (asynchronous models, where messages freeze at activation), the pending
// message of every active node.
func appendStates(buf []byte, st *state, includePending bool) []byte {
	for v := 1; v < len(st.state); v++ {
		buf = append(buf, byte(st.state[v]))
		if includePending && st.state[v] == active {
			buf = appendMessage(buf, st.pending[v])
		}
	}
	return buf
}

// appendMessage appends a prefix-free encoding of m: its bit count, its
// data length and its data. Data is keyed verbatim, trailing padding bytes
// included: protocols may read Data beyond Bits, so two messages equal as
// bit strings but not as byte slices are distinguishable and must not be
// merged.
func appendMessage(buf []byte, m core.Message) []byte {
	buf = binary.AppendUvarint(buf, uint64(m.Bits))
	buf = binary.AppendUvarint(buf, uint64(len(m.Data)))
	return append(buf, m.Data...)
}

// boardNode is one board of the configuration DAG, shared by every class
// on it: its parent's board plus the message the last write appended. The
// root (nil parent) is the empty board. rank is the board's place among
// the distinct boards of its level, set once that level is sorted.
type boardNode struct {
	parent *boardNode
	msg    core.Message
	rank   uint64
}

// build makes b the board nd stands for, using spine (returned for reuse)
// to put the messages in write order. Reset also empties b's derived-state
// slot, which holds what the previous board folded to.
func (nd *boardNode) build(b *core.Board, spine []core.Message) []core.Message {
	spine = spine[:0]
	for x := nd; x.parent != nil; x = x.parent {
		spine = append(spine, x.msg)
	}
	b.Reset()
	for i := len(spine) - 1; i >= 0; i-- {
		b.Append(spine[i])
	}
	return spine
}

// memoClass is one node of the configuration DAG: a canonical configuration
// under its key, its board, and the exact number of schedules reaching it.
// The node states are held by value; an asynchronous class may share its
// pending vector with its parent (see keep), and no class ever writes to
// one. mult starts out in words, so a multiplicity of up to two words
// never allocates.
type memoClass struct {
	key   string
	st    state
	board *boardNode
	mult  big.Int
	words [2]big.Word
}

// slabChunk is the length of a slab's chunks, in values.
const slabChunk = 1024

// slab hands out zeroed values of T from fixed-size chunks. A chunk is never
// reused: what the walk drops is collected with its chunk, and a value that
// visit keeps stays valid.
type slab[T any] struct {
	free []T
}

// take returns k values with capacity k, so appending to them never writes
// into a neighbour.
func (s *slab[T]) take(k int) []T {
	if len(s.free) < k {
		s.free = make([]T, max(slabChunk, k))
	}
	v := s.free[:k:k]
	s.free = s.free[k:]
	return v
}

// memoSlabs holds one walk's slabs: class records, board nodes, node-state
// vectors and the pending vectors of asynchronous classes.
type memoSlabs struct {
	classes slab[memoClass]
	boards  slab[boardNode]
	states  slab[nodeState]
	pending slab[core.Message]
}

// class returns a new class record holding key, st, board and a copy of
// mult.
func (sl *memoSlabs) class(key string, st state, board *boardNode, mult *big.Int) *memoClass {
	c := &sl.classes.take(1)[0]
	c.key, c.st, c.board = key, st, board
	c.mult.SetBits(c.words[:0]).Set(mult)
	return c
}

// child returns the node of parent's board with msg appended. made lists
// the nodes made so far on parent; every class on one board is expanded in
// one run, so this makes exactly one node per distinct board.
func (sl *memoSlabs) child(parent *boardNode, msg core.Message, made *[]*boardNode) *boardNode {
	for _, nd := range *made {
		if nd.msg.Bits == msg.Bits && bytes.Equal(nd.msg.Data, msg.Data) {
			return nd
		}
	}
	nd := &sl.boards.take(1)[0]
	nd.parent, nd.msg = parent, msg
	*made = append(*made, nd)
	return nd
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

// keep copies the scratch state s, a successor of parent, out into slab
// storage for a new class. An asynchronous class shares parent's pending
// vector unless settle activated a node, freezing its message into s; a
// synchronous class keeps none, since the walk never reads it.
func (sl *memoSlabs) keep(s, parent *state, async bool) state {
	kept := state{state: sl.states.take(len(s.state)), written: s.written}
	copy(kept.state, s.state)
	if async {
		kept.pending = parent.pending
		for v := 1; v < len(s.state); v++ {
			if parent.state[v] == awake && s.state[v] == active {
				kept.pending = sl.pending.take(len(s.pending))
				copy(kept.pending, s.pending)
				break
			}
		}
	}
	return kept
}

// rankBoards numbers the distinct boards of a sorted level densely, in
// order, and returns the bytes a rank takes in the keys of the level's
// successors. Classes on one board sit next to each other, since their
// keys begin alike. It also drops the level's keys, which nothing reads
// once the level is sorted.
func rankBoards(level []*memoClass) (width int) {
	var rank uint64
	for i, c := range level {
		if i > 0 && c.board != level[i-1].board {
			rank++
		}
		c.board.rank = rank
		c.key = ""
	}
	return (bits.Len64(rank) + 7) / 8
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
// Boards are hash-consed: a class holds a board node, its parent's node
// plus the appended message, and classes on equal boards share one node.
// A successor is keyed by its parent board's rank, the message and its
// node states (appendSuccessorKey), in the order its full encoding would
// sort in. Classes on one board are expanded one after another on a single
// board rebuilt from the node chain, so they share its derived-state fold
// and, in synchronous models, each writer's composed message. Each
// successor is settled in one scratch state and one scratch board, reused
// for the whole walk; a write that lands in a known class just adds its
// multiplicity, and a new class takes its record, node states and board
// node from slabs. Only a terminal class's Result gets a board of its own,
// since visit may keep it.
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

	var sl memoSlabs
	// board is the board of the classes being expanded, built from their
	// node; succ is the scratch board a successor settles on.
	board, succ := core.NewBoard(), core.NewBoard()
	// A class is keyed after its activation phase, so classes settle when
	// they are created rather than when they are expanded.
	root := sl.class("", *newState(m.n), &sl.boards.take(1)[0], big.NewInt(1))
	if err := m.settle(&root.st, board); err != nil {
		return stats, err
	}
	level, next := []*memoClass{root}, []*memoClass(nil)
	index := map[string]*memoClass{} // the classes in next, by key
	scratch := newState(m.n)
	var (
		keyBuf []byte
		cand   []int
		spine  []core.Message
		cur    *boardNode   // the node board was last built from
		made   []*boardNode // the nodes of cur's successor boards
		width  int          // bytes of a board rank in the level's successor keys
	)
	// In synchronous models a writer composes its message from the board
	// at write time, so the classes on one board share it: composed[v] is
	// what v writes on the board of node composedOn[v]. An asynchronous
	// writer's message is the one its class froze, read afresh each write.
	composed, composedOn := make([]core.Message, m.n+1), make([]*boardNode, m.n+1)
	// Every transition writes exactly one message, so the DAG is leveled by
	// board length and a level-by-level sweep visits each class exactly once.
	for depth := 0; len(level) > 0; depth++ {
		round := depth + 1
		if round > m.maxRounds {
			return stats, fmt.Errorf("engine: RunAllMemo exceeded %d rounds at %d written messages", m.maxRounds, depth)
		}
		for _, c := range level {
			stats.Classes++
			if c.board != cur {
				cur, made = c.board, made[:0]
				spine = cur.build(board, spine)
			}
			c.st.cand = cand // the walk's one candidates buffer
			cand = c.st.candidates()
			if len(cand) == 0 {
				res := &core.Result{Board: board.Clone(), Rounds: round}
				m.outcome(&c.st, res)
				multAdds++
				stats.Schedules.Add(stats.Schedules, &c.mult)
				if err := visit(res, &c.mult); err != nil {
					return stats, err
				}
			}
			for _, chosen := range cand {
				if stats.Steps == maxSteps {
					return stats, ErrBudget
				}
				stats.Steps++
				multAdds++
				stats.NaiveSteps.Add(stats.NaiveSteps, &c.mult)
				if async || composedOn[chosen] != cur {
					var err error
					if composed[chosen], err = m.message(&c.st, board, chosen); err != nil {
						return stats, err
					}
					composedOn[chosen] = cur
				}
				msg := composed[chosen]
				scratch.load(&c.st, async)
				scratch.markWritten(chosen)
				// Reset also empties the derived-state slot, which still
				// holds what the previous successor's board folded to.
				succ.Reset()
				for j := 0; j < board.Len(); j++ {
					succ.Append(board.At(j))
				}
				succ.Append(msg)
				if err := m.settle(scratch, succ); err != nil {
					return stats, err
				}
				keyBuf = appendSuccessorKey(keyBuf[:0], cur.rank, width, msg, scratch, async)
				if dup, ok := index[string(keyBuf)]; ok {
					memoHits++
					multAdds++
					dup.mult.Add(&dup.mult, &c.mult)
					continue
				}
				kept := sl.class(string(keyBuf), sl.keep(scratch, &c.st, async), sl.child(cur, msg, &made), &c.mult)
				index[kept.key] = kept
				next = append(next, kept)
			}
		}
		clear(level) // drop the expanded classes
		clear(index)
		slices.SortFunc(next, func(a, b *memoClass) int { return strings.Compare(a.key, b.key) })
		width = rankBoards(next)
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
