package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"math/big"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
)

// ErrMultiplicityOverflow is returned when an exact schedule multiplicity,
// or a Spectrum count or sum it feeds, does not fit its integer tally.
// Spectra, and the campaign cells built from them, stay exact-or-error:
// no tally saturates or wraps silently.
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

// tableChunk is the size, in values, that a walk's tables, level chunks and
// message arena are allocated in.
const tableChunk = 1 << 12

// errTooManyClasses is returned when a walk would make a class past the
// uint32 indexes of its board and pending-vector tables.
var errTooManyClasses = errors.New("engine: RunAllMemo needs more than 2^32-1 configuration classes")

// table is an append-only table of rows, each width values of T, kept in
// chunks of a fixed power-of-two number of rows. It grows without copying,
// so a row keeps its index, and a slice of it stays valid, for the whole
// walk.
type table[T any] struct {
	width, shift int // a chunk holds 1<<shift rows
	chunks       [][]T
	rows         uint32
}

func newTable[T any](width int) table[T] {
	return table[T]{width: width, shift: max(0, bits.Len(uint(tableChunk/width))-1)}
}

// add appends a zeroed row and returns its index and the row.
func (t *table[T]) add() (uint32, []T) {
	if t.rows&(1<<t.shift-1) == 0 {
		t.chunks = append(t.chunks, make([]T, t.width<<t.shift))
	}
	i := t.rows
	t.rows++
	return i, t.row(i)
}

// row returns row i.
func (t *table[T]) row(i uint32) []T {
	off := int(i&(1<<t.shift-1)) * t.width
	return t.chunks[i>>t.shift][off : off+t.width : off+t.width]
}

// messages interns a walk's messages: each distinct one, by bit count and
// data bytes, gets an id, and its data is copied once into an arena. The
// arena only grows and is never overwritten, so boards built from ids lend
// protocols, and visit, Data that stays valid for good.
type messages struct {
	byID  []core.Message
	arena []byte
	// slots is an open-addressing hash of the messages by content: a
	// message's id plus one, or 0 in a free slot.
	slots []uint32
	seed  maphash.Seed
}

// id returns m's id, interning m the first time it is seen.
func (t *messages) id(m core.Message) uint32 {
	if 2*(len(t.byID)+1) > len(t.slots) {
		t.slots = make([]uint32, max(64, 2*len(t.slots)))
		for i, old := range t.byID {
			*t.slot(old) = uint32(i + 1)
		}
	}
	s := t.slot(m)
	if *s == 0 {
		if len(m.Data) > cap(t.arena)-len(t.arena) {
			t.arena = make([]byte, 0, max(tableChunk, len(m.Data)))
		}
		start := len(t.arena)
		t.arena = append(t.arena, m.Data...)
		t.byID = append(t.byID, core.Message{Data: t.arena[start:len(t.arena):len(t.arena)], Bits: m.Bits})
		*s = uint32(len(t.byID))
	}
	return *s - 1
}

// slot returns the hash slot that holds m's id, or the free slot where it
// belongs.
func (t *messages) slot(m core.Message) *uint32 {
	mask := len(t.slots) - 1
	h := maphash.Bytes(t.seed, m.Data) ^ uint64(m.Bits)*0x9e3779b97f4a7c15
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if *s == 0 {
			return s
		}
		if old := t.byID[*s-1]; old.Bits == m.Bits && bytes.Equal(old.Data, m.Data) {
			return s
		}
	}
}

// boardRec is a row of the walk's board table: the board at row parent
// with message msg appended. Row 0 is the empty board.
type boardRec struct{ parent, msg uint32 }

// noBoard is a board index no board takes.
const noBoard = math.MaxUint32

// promoted marks a multiplicity word whose other bits index its level's
// big.Int side table, where a multiplicity of 2^63 or more lives.
const promoted = 1 << 63

// mults holds the multiplicity side tables of the level being expanded
// (cur) and of the next one (next).
type mults struct {
	cur, next []big.Int
	scratch   big.Int
}

// value returns the expanded level's multiplicity m as a big.Int, valid
// until the next call.
func (t *mults) value(m uint64) *big.Int {
	if m&promoted != 0 {
		return &t.cur[m&^promoted]
	}
	return t.scratch.SetUint64(m)
}

// carry returns the next level's word for the multiplicity m of the
// expanded level.
func (t *mults) carry(m uint64) uint64 {
	if m&promoted == 0 {
		return m
	}
	return t.promote(&t.cur[m&^promoted])
}

// promote files a copy of x in the next level's side table and returns its
// word.
func (t *mults) promote(x *big.Int) uint64 {
	i := len(t.next)
	if i < cap(t.next) {
		t.next = t.next[:i+1]
	} else {
		t.next = append(t.next, big.Int{})
	}
	t.next[i].Set(x)
	return promoted | uint64(i)
}

// add returns the word of the next level's multiplicity d plus the
// expanded level's m, promoting the sum once it reaches 2^63.
func (t *mults) add(d, m uint64) uint64 {
	if (d|m)&promoted == 0 && d+m < promoted {
		return d + m
	}
	if d&promoted == 0 {
		d = t.promote(t.scratch.SetUint64(d))
	}
	sum := &t.next[d&^promoted]
	sum.Add(sum, t.value(m))
	return d
}

// exactSum is an exact running total of the expanded levels'
// multiplicities: a uint64 while it fits, spilled into total when it
// would not.
type exactSum struct {
	small uint64
	total *big.Int
}

func (s *exactSum) add(m uint64, t *mults) {
	if m&promoted != 0 {
		s.total.Add(s.total, &t.cur[m&^promoted])
		return
	}
	if s.small+m < s.small {
		s.flush()
	}
	s.small += m
}

// flush moves the uint64 part into total.
func (s *exactSum) flush() {
	var x big.Int
	s.total.Add(s.total, x.SetUint64(s.small))
	s.small = 0
}

// level is a run of class records in fixed-size chunks. A record is stride
// uint64 words:
//
//	[0, words)   the node states, 2 bits per node: node v at bit 2(v%32)
//	             of word v/32
//	words        the board index in the low 32 bits, and the pending
//	             vector's in the high 32 (asynchronous models)
//	words+1      the multiplicity word
type level struct {
	chunks [][]uint64
}

// memoWalk holds the columns of one memoized walk. Nothing in a level, the
// board table or the pending table is a pointer, so the garbage collector
// never scans them.
type memoWalk struct {
	n, words, stride int
	async            bool
	kept             uint32 // classes made, which bounds both tables' rows
	boards           table[boardRec]
	// pending holds the asynchronous models' pending-message vectors: per
	// node, the id of the message it froze, read only while it is active.
	// Vector 0 is all zero, the root's parent's.
	pending table[uint32]
	msgs    messages
	mults   mults
	// spare holds the expanded chunks of the current level, for the next
	// level to fill.
	spare      [][]uint64
	chunkWords int
	spine      []uint32
	// board is the board of the classes being expanded, built from its
	// index; succ is the scratch board a successor settles on.
	board, succ *core.Board
}

func newMemoWalk(n int, async bool) *memoWalk {
	words := n/32 + 1 // ⌈(n+1)/32⌉
	w := &memoWalk{
		n: n, words: words, stride: words + 2, async: async,
		boards:  newTable[boardRec](1),
		pending: newTable[uint32](n + 1),
		msgs:    messages{seed: maphash.MakeSeed()},
		board:   core.NewBoard(), succ: core.NewBoard(),
	}
	w.chunkWords = max(1, tableChunk/w.stride) * w.stride
	w.boards.add()
	if async {
		w.pending.add()
	}
	return w
}

// build makes w.board the board at index b. Reset also starts over the
// board's derived-state slot, which holds what the previous board folded
// to, in the storage it already holds.
func (w *memoWalk) build(b uint32) {
	w.spine = w.spine[:0]
	for b != 0 {
		r := w.boards.row(b)[0]
		w.spine = append(w.spine, r.msg)
		b = r.parent
	}
	w.board.Reset()
	for i := len(w.spine) - 1; i >= 0; i-- {
		w.board.Append(w.msgs.byID[w.spine[i]])
	}
}

// unpack loads record r into st: the node states, how many are done and,
// in asynchronous models, the messages the active ones froze. It reports
// whether a node is still awake, that is, whether a successor's activation
// phase reads its board.
func (w *memoWalk) unpack(st *state, r []uint64) bool {
	awakeLeft := false
	st.written = 0
	for v := 1; v <= w.n; v++ {
		s := nodeState(r[v/32] >> (2 * (v % 32)) & 3)
		st.state[v] = s
		awakeLeft = awakeLeft || s == awake
		if s == done {
			st.written++
		}
	}
	if w.async {
		vec := w.pending.row(uint32(r[w.words] >> 32))
		for v := 1; v <= w.n; v++ {
			if st.state[v] == active {
				st.pending[v] = w.msgs.byID[vec[v]]
			}
		}
	}
	return awakeLeft
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

// pack writes into rec the record of a new class: st, settled from the
// class from whose pending vector is pend, on board b and reached by
// multiplicity word mult. An asynchronous class shares pend unless settle
// activated a node, freezing its message into st. Each class adds at most
// one board and one pending vector, so pack fails before either table
// needs an index past uint32, or a board takes noBoard.
func (w *memoWalk) pack(rec []uint64, st, from *state, pend, b uint32, mult uint64) error {
	if w.kept == math.MaxUint32-1 {
		return errTooManyClasses
	}
	w.kept++
	clear(rec[:w.words])
	for v, s := range st.state {
		rec[v/32] |= uint64(s) << (2 * (v % 32))
	}
	if w.async {
		var vec []uint32
		for v := 1; v <= w.n; v++ {
			if from.state[v] != awake || st.state[v] != active {
				continue
			}
			if vec == nil {
				i, row := w.pending.add()
				copy(row, w.pending.row(pend))
				pend, vec = i, row
			}
			vec[v] = w.msgs.id(st.pending[v])
		}
	}
	rec[w.words] = uint64(b) | uint64(pend)<<32
	rec[w.words+1] = mult
	return nil
}

// push appends record rec to l, in a spare chunk when one is free.
func (w *memoWalk) push(l *level, rec []uint64) {
	k := len(l.chunks) - 1
	if k < 0 || len(l.chunks[k]) == cap(l.chunks[k]) {
		var ch []uint64
		if s := len(w.spare); s > 0 {
			ch, w.spare = w.spare[s-1], w.spare[:s-1]
		} else {
			ch = make([]uint64, 0, w.chunkWords)
		}
		l.chunks = append(l.chunks, ch)
		k++
	}
	l.chunks[k] = append(l.chunks[k], rec...)
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
	recs    []uint64     // their records, stride words each, in that order
	stride  int
	kids    []kid // the boards the group's classes lie on
	// slots is an open-addressing hash of the classes by key: a slot of an
	// earlier group's generation is free.
	slots []groupSlot
	gen   uint32
	seed  maphash.Seed
}

// groupClass is a class of a group: its key (keys[off:end]) and the index
// of its record.
type groupClass struct {
	off, end, rec int
}

// kid is a child board of a group's parent board: its index, and the id of
// the message it appends.
type kid struct{ msg, board uint32 }

// groupSlot is a hash slot: the generation of the group that filled it and
// the index of its class in that group.
type groupSlot struct {
	gen   uint32
	class int32
}

// child returns the index of parent's board with message msg appended,
// adding the board to boards the first time a class lands on it. A group
// has one child board per distinct message, at most one per writer.
func (grp *memoGroup) child(boards *table[boardRec], parent, msg uint32) uint32 {
	for _, k := range grp.kids {
		if k.msg == msg {
			return k.board
		}
	}
	i, row := boards.add()
	row[0] = boardRec{parent: parent, msg: msg}
	grp.kids = append(grp.kids, kid{msg: msg, board: i})
	return i
}

// key returns the group key of class i.
func (grp *memoGroup) key(i int) []byte {
	return grp.keys[grp.classes[i].off:grp.classes[i].end]
}

// rec returns the record of the class made i-th.
func (grp *memoGroup) rec(i int) []uint64 {
	return grp.recs[i*grp.stride : (i+1)*grp.stride]
}

// find returns the index of the group's class whose key is keys[off:], or
// -1 and the free slot that a new class with this key takes (add). It first
// doubles the slots if one more class would fill more than half of them.
func (grp *memoGroup) find(off int) (int, *groupSlot) {
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
		return int(s.class), nil
	}
	return -1, s
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

// add files a new class whose key is keys[off:] in the free slot s that
// find returned for it, and returns the class's record for the caller to
// fill.
func (grp *memoGroup) add(s *groupSlot, off int) []uint64 {
	i := len(grp.classes)
	*s = groupSlot{gen: grp.gen, class: int32(i)}
	grp.classes = append(grp.classes, groupClass{off: off, end: len(grp.keys), rec: i})
	grp.recs = slices.Grow(grp.recs, grp.stride)[:len(grp.recs)+grp.stride]
	return grp.rec(i)
}

// flush appends the group's classes to next in key order and empties the
// group for the next parent board.
func (grp *memoGroup) flush(w *memoWalk, next *level) {
	slices.SortFunc(grp.classes, func(a, b groupClass) int {
		return bytes.Compare(grp.keys[a.off:a.end], grp.keys[b.off:b.end])
	})
	for _, gc := range grp.classes {
		w.push(next, grp.rec(gc.rec))
	}
	grp.keys, grp.classes, grp.recs, grp.kids = grp.keys[:0], grp.classes[:0], grp.recs[:0], grp.kids[:0]
	// A new generation frees every slot; should the count wrap, clearing
	// them does.
	if grp.gen++; grp.gen == 0 {
		clear(grp.slots)
		grp.gen = 1
	}
}

// RunAllMemo explores every adversarial schedule of p on g like RunAll, but
// collapses write orders that reach identical configurations: the schedule
// tree becomes a DAG over canonical (board, node-state, pending-message)
// classes, each visited once, with exact path counts propagated along the
// edges. visit is called once per terminal class with the class's Result
// and its schedule multiplicity; summing multiplicities reproduces the
// naive walk's tallies exactly. The maxSteps budget counts unique
// simulated writes (DAG edges); exceeding it returns ErrBudget with
// stats.Steps == maxSteps. Classes at each depth are processed in the
// order of their full (board, states) encodings, so errors and budget
// cut-offs are reproducible.
//
// The walk (walkMemo) keeps its state in pointer-free columns. A level is
// a run of fixed-size class records: the node states at 2 bits per node,
// a board index, a pending-vector index and a uint64 multiplicity, which
// moves to a big.Int side table only once it reaches 2^63. A board is a
// row of one table, its parent board plus the id of the appended message,
// and classes on equal boards share it; each distinct message is stored
// once, in an append-only arena. An asynchronous class's pending messages
// are a vector of message ids, shared with its parent unless its
// activation phase froze a new one. Levels grow in fixed-size chunks, and
// each chunk a level has expanded is reused for the next.
//
// Classes on one board are expanded one after another on a single board
// rebuilt from the table, so they share its derived-state fold and, in
// synchronous models, each writer's composed message. Their successors form
// one group: two successors can be equal only if they share a parent
// board, so a successor is deduped against its group alone, keyed by the
// message and its node states (appendSuccessorKey), and each group, sorted
// by that key, follows the previous board's in the next level. Each
// successor is settled in one scratch state, and on one scratch board when
// some node is still awake to read it; a write that lands in a known class
// just adds its multiplicity. Both boards keep their derived-state storage
// from one rebuild to the next (core.Board.Reset). RunAllMemo classifies
// each terminal on the walk's board (Output included) and hands visit a
// copy of its Result, board and multiplicity, since visit may keep them.
//
// The collapse is sound because protocols are deterministic in (view,
// board) and the engine's future behaviour is a function of the
// configuration alone: which nodes are awake/active/done, what the active
// ones froze, and the full ordered board. No approximation is involved —
// only protocols whose message contents coincide across writers ever
// collapse, and for the rest the DAG degenerates to the naive tree.
func RunAllMemo(p core.Protocol, g *graph.Graph, opts Options, maxSteps int,
	visit func(res *core.Result, mult *big.Int) error) (MemoStats, error) {

	return walkMemo(p, g, opts, maxSteps, func(t *terminal, mult *big.Int) error {
		k := &keptTerminal{res: core.Result{Board: t.board, Rounds: t.round}}
		t.m.outcome(t.st, &k.res)
		k.res.Board = t.board.Clone()
		k.mult.SetBits(k.words[:0]).Set(mult)
		return visit(&k.res, &k.mult)
	})
}

// keptTerminal is what RunAllMemo hands visit to keep: copies of a
// terminal's Result and multiplicity in one allocation, with room for a
// multiplicity of up to two words.
type keptTerminal struct {
	res   core.Result
	mult  big.Int
	words [2]big.Word
}

// terminal is a terminal class as walkMemo lends it to visit, not yet
// classified: the walk's machine, the class's node states, its final board
// and the round its schedules end in. The caller classifies it by
// machine.outcome for the output's value or machine.outcomeKey for its key
// alone.
type terminal struct {
	m     *machine
	st    *state
	board *core.Board
	round int
}

// walkMemo is RunAllMemo's walk. It lends visit each terminal class and its
// multiplicity: one terminal reused for every class, whose state and board
// the walk rebuilds for later classes, and a big.Int the walk reuses or a
// level's side table holds. All are valid only during the call; the Data
// of the board's messages stays valid for good.
func walkMemo(p core.Protocol, g *graph.Graph, opts Options, maxSteps int,
	visit func(t *terminal, mult *big.Int) error) (MemoStats, error) {

	m := newMachine(p, Views(g), opts)
	async := m.model.Asynchronous()
	stats := MemoStats{Schedules: new(big.Int), NaiveSteps: new(big.Int)}
	schedules, naive := exactSum{total: stats.Schedules}, exactSum{total: stats.NaiveSteps}
	// Telemetry totals accumulate in plain locals and flush once on every
	// return path, as do the uint64 parts of the exact sums; the per-step
	// hot path stays free of atomics.
	memoHits, multAdds := 0, 0
	defer func() {
		schedules.flush()
		naive.flush()
		opts.Metrics.ExhaustiveDone(stats.Steps, stats.Classes, memoHits, multAdds)
	}()

	w := newMemoWalk(m.n, async)
	// parent holds the class being expanded, scratch the successor being
	// settled. A class is keyed after its activation phase, so classes
	// settle when they are created rather than when they are expanded: the
	// root settles on the empty board from parent, still all awake.
	parent, scratch := newState(m.n), newState(m.n)
	if err := m.settle(scratch, w.board); err != nil {
		return stats, err
	}
	var cur, next level
	root := make([]uint64, w.stride)
	if err := w.pack(root, scratch, parent, 0, 0, 1); err != nil {
		return stats, err
	}
	w.push(&cur, root)
	// grp gathers the successors of the classes on board curBoard, the
	// board w.board was last built from; term is lent to visit for each
	// terminal class.
	grp := memoGroup{stride: w.stride, gen: 1, seed: maphash.MakeSeed()}
	curBoard := uint32(noBoard)
	term := terminal{m: &m, st: parent, board: w.board}
	// In synchronous models a writer composes its message from the board
	// at write time, so the classes on one board share it: composed[v] is
	// the id of what v writes on board composedOn[v]. An asynchronous
	// writer's message is the one its class froze.
	composed, composedOn := make([]uint32, m.n+1), make([]uint32, m.n+1)
	for v := range composedOn {
		composedOn[v] = noBoard
	}
	// Every transition writes exactly one message, so the DAG is leveled by
	// board length and a level-by-level sweep visits each class exactly once.
	for depth := 0; len(cur.chunks) > 0; depth++ {
		round := depth + 1
		if round > m.maxRounds {
			return stats, fmt.Errorf("engine: RunAllMemo exceeded %d rounds at %d written messages", m.maxRounds, depth)
		}
		for _, chunk := range cur.chunks {
			for at := 0; at < len(chunk); at += w.stride {
				r := chunk[at : at+w.stride]
				stats.Classes++
				b, pend, mult := uint32(r[w.words]), uint32(r[w.words]>>32), r[w.words+1]
				if b != curBoard {
					grp.flush(w, &next)
					curBoard = b
					w.build(b)
				}
				awakeLeft := w.unpack(parent, r)
				cand := parent.candidates()
				if len(cand) == 0 {
					term.round = round
					multAdds++
					schedules.add(mult, &w.mults)
					if err := visit(&term, w.mults.value(mult)); err != nil {
						return stats, err
					}
				}
				for _, chosen := range cand {
					if stats.Steps == maxSteps {
						return stats, ErrBudget
					}
					stats.Steps++
					multAdds++
					naive.add(mult, &w.mults)
					var id uint32
					if async {
						id = w.pending.row(pend)[chosen]
					} else {
						if composedOn[chosen] != curBoard {
							msg, err := m.compose(chosen, w.board)
							if err != nil {
								return stats, err
							}
							composed[chosen], composedOn[chosen] = w.msgs.id(msg), curBoard
						}
						id = composed[chosen]
					}
					msg := w.msgs.byID[id]
					scratch.load(parent, async)
					scratch.markWritten(chosen)
					if awakeLeft {
						// Reset also starts over the derived-state slot,
						// which still holds what the previous successor's
						// board folded to.
						w.succ.Reset()
						for j := 0; j < w.board.Len(); j++ {
							w.succ.Append(w.board.At(j))
						}
						w.succ.Append(msg)
						if err := m.settle(scratch, w.succ); err != nil {
							return stats, err
						}
					}
					off := len(grp.keys)
					grp.keys = appendSuccessorKey(grp.keys, msg, scratch, async)
					dup, free := grp.find(off)
					if dup >= 0 {
						grp.keys = grp.keys[:off]
						memoHits++
						multAdds++
						d := grp.rec(dup)
						d[w.words+1] = w.mults.add(d[w.words+1], mult)
						continue
					}
					kid := grp.child(&w.boards, curBoard, id)
					if err := w.pack(grp.add(free, off), scratch, parent, pend, kid, w.mults.carry(mult)); err != nil {
						return stats, err
					}
				}
			}
			// Every class of the chunk is expanded: the next level may
			// fill it.
			w.spare = append(w.spare, chunk[:0])
		}
		grp.flush(w, &next)
		cur, next = next, level{chunks: cur.chunks[:0]}
		w.mults.cur, w.mults.next = w.mults.next, w.mults.cur[:0]
	}
	return stats, nil
}

// IntFromBig converts an exact multiplicity to the int a Spectrum tallies
// it as, or fails with ErrMultiplicityOverflow.
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
