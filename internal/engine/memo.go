package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/big"
	"slices"

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

// appendSuccessorKey appends the key of a successor configuration within
// its parent board's group to buf: the message the write appended, then
// the node states (appendStates). Successors of one parent board share
// every message before the last, and every message encoding is
// prefix-free, so these keys sort and collide exactly as the
// configurations' full encodings (the whole board message by message, then
// the states) would, at O(n + message) bytes instead of O(board).
func appendSuccessorKey(buf []byte, msg core.Message, st *state, includePending bool) []byte {
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
// root (nil parent) is the empty board.
type boardNode struct {
	parent *boardNode
	msg    core.Message
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
// (its board and node states) and the exact number of schedules reaching
// it. It carries no key: a class is looked up only among the successors of
// its parent board, by a key kept in that board's group (memoGroup). The
// node states are held by value; an asynchronous class may share its
// pending vector with its parent (see keep), and no class ever writes to
// one. mult starts out in words, so a multiplicity of up to two words
// never allocates.
type memoClass struct {
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

// class returns a new class record holding st, board and a copy of mult.
func (sl *memoSlabs) class(st state, board *boardNode, mult *big.Int) *memoClass {
	c := &sl.classes.take(1)[0]
	c.st, c.board = st, board
	c.mult.SetBits(c.words[:0]).Set(mult)
	return c
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

// memoGroup holds the new successors of the classes on one parent board.
// Two successors can be equal only if they share a parent board, so a
// successor is looked up in its parent's group alone, by its group key
// (appendSuccessorKey). Sorted by that key, a group's classes are in the
// order of their full encodings, and every one of them sorts after each
// class of the groups of earlier boards; appending each group in turn to
// the next level keeps that level sorted. Keys, records and hash slots live
// in buffers reused from group to group.
type memoGroup struct {
	keys    []byte       // the group keys of classes, back to back
	classes []groupClass // the group's classes, in the order they were made
	kids    []*boardNode // the boards the group's classes lie on
	// slots is an open-addressing hash of the classes by key: a slot of an
	// earlier group's generation is free.
	slots []groupSlot
	gen   uint32
	seed  maphash.Seed
}

// groupClass is a class of a group: its record and its key (keys[off:end]).
type groupClass struct {
	c        *memoClass
	off, end int
}

// groupSlot is a hash slot: the generation of the group that filled it and
// the index of its class in that group.
type groupSlot struct {
	gen   uint32
	class int32
}

// child returns parent's board with msg appended, making its node the first
// time a class lands on it. A group has one child board per distinct
// message, at most one per writer.
func (grp *memoGroup) child(sl *memoSlabs, parent *boardNode, msg core.Message) *boardNode {
	for _, nd := range grp.kids {
		if nd.msg.Bits == msg.Bits && bytes.Equal(nd.msg.Data, msg.Data) {
			return nd
		}
	}
	nd := &sl.boards.take(1)[0]
	nd.parent, nd.msg = parent, msg
	grp.kids = append(grp.kids, nd)
	return nd
}

// key returns the group key of class i.
func (grp *memoGroup) key(i int) []byte {
	return grp.keys[grp.classes[i].off:grp.classes[i].end]
}

// find returns the group's class whose key is keys[off:], or nil and the
// free slot that a new class with this key takes (add). It first doubles
// the slots if one more class would fill more than half of them.
func (grp *memoGroup) find(off int) (*memoClass, *groupSlot) {
	if 2*(len(grp.classes)+1) > len(grp.slots) {
		old := grp.slots
		grp.slots = make([]groupSlot, max(64, 2*len(old)))
		for _, s := range old {
			if s.gen == grp.gen {
				*grp.slot(grp.key(int(s.class))) = s
			}
		}
	}
	s := grp.slot(grp.keys[off:])
	if s.gen == grp.gen {
		return grp.classes[s.class].c, nil
	}
	return nil, s
}

// slot returns the hash slot that holds the class with key, or the free
// slot where it belongs.
func (grp *memoGroup) slot(key []byte) *groupSlot {
	mask := len(grp.slots) - 1
	for i := int(maphash.Bytes(grp.seed, key)) & mask; ; i = (i + 1) & mask {
		if s := &grp.slots[i]; s.gen != grp.gen || bytes.Equal(grp.key(int(s.class)), key) {
			return s
		}
	}
}

// add files c, a new class whose key is keys[off:], in the free slot s that
// find returned for it.
func (grp *memoGroup) add(s *groupSlot, off int, c *memoClass) {
	*s = groupSlot{gen: grp.gen, class: int32(len(grp.classes))}
	grp.classes = append(grp.classes, groupClass{c: c, off: off, end: len(grp.keys)})
}

// flush appends the group's classes to next in key order and empties the
// group for the next parent board.
func (grp *memoGroup) flush(next []*memoClass) []*memoClass {
	slices.SortFunc(grp.classes, func(a, b groupClass) int {
		return bytes.Compare(grp.keys[a.off:a.end], grp.keys[b.off:b.end])
	})
	for _, gc := range grp.classes {
		next = append(next, gc.c)
	}
	grp.keys, grp.classes, grp.kids = grp.keys[:0], grp.classes[:0], grp.kids[:0]
	// A new generation frees every slot; should the count wrap, clearing
	// them does.
	if grp.gen++; grp.gen == 0 {
		clear(grp.slots)
		grp.gen = 1
	}
	return next
}

// RunAllMemo explores every adversarial schedule of p on g like RunAll, but
// collapses write orders that reach identical configurations: the schedule
// tree becomes a DAG over canonical (board, node-state, pending-message)
// classes, each visited once, with exact big.Int path counts propagated
// along the edges. visit is called once per terminal class with the class's
// Result and its schedule multiplicity; summing multiplicities reproduces
// the naive walk's tallies exactly. The maxSteps budget counts unique
// simulated writes (DAG edges); exceeding it returns ErrBudget with
// stats.Steps == maxSteps. Classes at each depth are processed in the order
// of their full (board, states) encodings, so errors and budget cut-offs
// are reproducible.
//
// Boards are hash-consed: a class holds a board node, its parent's node
// plus the appended message, and classes on equal boards share one node.
// Classes on one board are expanded one after another on a single board
// rebuilt from the node chain, so they share its derived-state fold and, in
// synchronous models, each writer's composed message. Their successors form
// one group: two successors can be equal only if they share a parent
// board, so a successor is deduped against its group alone, keyed by the
// message and its node states (appendSuccessorKey), and each group, sorted
// by that key, follows the previous board's in the next level. Each successor
// is settled in one scratch state and one scratch board, reused for the
// whole walk; a write that lands in a known class just adds its
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
	root := sl.class(*newState(m.n), &sl.boards.take(1)[0], big.NewInt(1))
	if err := m.settle(&root.st, board); err != nil {
		return stats, err
	}
	level, next := []*memoClass{root}, []*memoClass(nil)
	grp := memoGroup{gen: 1, seed: maphash.MakeSeed()} // the successors of cur's classes
	scratch := newState(m.n)
	var (
		cand  []int
		spine []core.Message
		cur   *boardNode // the node board was last built from
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
				next = grp.flush(next)
				cur = c.board
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
				off := len(grp.keys)
				grp.keys = appendSuccessorKey(grp.keys, msg, scratch, async)
				dup, free := grp.find(off)
				if dup != nil {
					grp.keys = grp.keys[:off]
					memoHits++
					multAdds++
					dup.mult.Add(&dup.mult, &c.mult)
					continue
				}
				grp.add(free, off, sl.class(sl.keep(scratch, &c.st, async), grp.child(&sl, cur, msg), &c.mult))
			}
		}
		next = grp.flush(next)
		clear(level) // drop the expanded classes
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
