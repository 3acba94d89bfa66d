// Package core defines the shared-whiteboard computation model of the paper:
// the four synchronization models (Table 1), the whiteboard, node views,
// the protocol interface, and run results.
//
// A protocol supplies three functions, mirroring the paper's act/msg/out:
//
//   - Activate: should this awake node raise its hand, given the board?
//   - Compose:  the one message the node wants to write, given the board.
//   - Output:   decode the final board into the protocol's answer.
//
// The engine (package engine) owns the state machine: which nodes are awake,
// active or terminated, when Compose is evaluated (at activation for
// asynchronous models, at write time for synchronous ones), and the
// adversarial choice of writer. This split keeps protocols purely functional
// in (view, board), which is what the model demands: a node's behaviour may
// depend only on its identifier, its neighborhood, n, and the whiteboard.
package core

import (
	"fmt"
	"strings"
)

// Model identifies one of the four synchronization models of Table 1.
type Model int

const (
	// SimAsync: all nodes activate on the empty board, and each node's
	// message is computed from its local knowledge only (frozen at
	// activation, when the board is still empty).
	SimAsync Model = iota
	// SimSync: all nodes activate on the empty board; the written message is
	// composed from the board contents at write time.
	SimSync
	// Async: nodes choose when to activate; the message is frozen at
	// activation time.
	Async
	// Sync: nodes choose when to activate; the message is composed at write
	// time. The strongest model.
	Sync
)

// Simultaneous reports whether all nodes must activate on the empty board.
func (m Model) Simultaneous() bool { return m == SimAsync || m == SimSync }

// Asynchronous reports whether messages are frozen at activation time.
func (m Model) Asynchronous() bool { return m == SimAsync || m == Async }

// AtLeast reports whether model m is at least as strong as w in the paper's
// lattice (Lemma 4): SIMASYNC ⊆ SIMSYNC ⊆ SYNC and SIMASYNC ⊆ ASYNC ⊆ SYNC.
// A protocol designed for w runs correctly under any m with m.AtLeast(w).
func (m Model) AtLeast(w Model) bool {
	switch w {
	case SimAsync:
		return true
	case SimSync:
		return m == SimSync || m == Sync
	case Async:
		return m == Async || m == Sync
	case Sync:
		return m == Sync
	}
	return false
}

func (m Model) String() string {
	switch m {
	case SimAsync:
		return "SIMASYNC"
	case SimSync:
		return "SIMSYNC"
	case Async:
		return "ASYNC"
	case Sync:
		return "SYNC"
	}
	return fmt.Sprintf("Model(%d)", int(m))
}

// AllModels lists the four models in increasing synchronization power
// (the partial order is SimAsync < SimSync < Sync and SimAsync < Async <
// Sync; SimSync and Async are ordered by Theorem 4 as PSIMSYNC ⊊ PASYNC).
var AllModels = []Model{SimAsync, SimSync, Async, Sync}

// Message is one whiteboard entry: a binary word of Bits bits packed into
// Data (most significant bit first, zero padded).
type Message struct {
	Data []byte
	Bits int
}

// Key returns a string key identifying the message content exactly.
func (m Message) Key() string {
	return fmt.Sprintf("%d:%s", m.Bits, m.Data)
}

func (m Message) String() string {
	var sb strings.Builder
	for i := 0; i < m.Bits; i++ {
		if m.Data[i/8]>>(7-uint(i%8))&1 == 1 {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Board is the shared whiteboard: the ordered sequence of messages written
// so far. Protocols may read every entry and the order in which entries
// appeared (the models make the order observable), but writer identities are
// only knowable if the messages themselves encode them.
//
// A board also carries one derived-state slot (see Fold), where a protocol
// keeps what it has decoded from the messages so far.
type Board struct {
	msgs []Message
	// derived is the *slot of the last Fold, nil until the first; stale
	// says Reset has emptied the board since, so the slot's state must
	// start over.
	derived any
	stale   bool
}

// slot is a board's derived-state slot as Fold keeps it: the state st
// folded from the first covered messages under key, or the error that
// stopped the fold.
type slot[K comparable, S any] struct {
	key     K
	st      S
	covered int
	err     error
}

// NewBoard returns an empty whiteboard.
func NewBoard() *Board { return &Board{} }

// Len returns the number of messages written.
func (b *Board) Len() int { return len(b.msgs) }

// Empty reports whether nothing has been written.
func (b *Board) Empty() bool { return len(b.msgs) == 0 }

// At returns the i-th message (0-based, in write order).
func (b *Board) At(i int) Message { return b.msgs[i] }

// Last returns the most recent message; it panics on an empty board.
func (b *Board) Last() Message {
	if len(b.msgs) == 0 {
		panic("core: Last on empty board")
	}
	return b.msgs[len(b.msgs)-1]
}

// Append writes a message. Only the engine should call this.
func (b *Board) Append(m Message) { b.msgs = append(b.msgs, m) }

// Reset empties the board in place, keeping the spine's capacity and the
// storage of its derived-state slot: the next Fold starts the state over
// in that storage (see Fold). Only the engine's reusable Runner and its
// walks should call this; boards handed out in Results must not be reset
// while still referenced.
func (b *Board) Reset() {
	b.msgs = b.msgs[:0]
	b.stale = true
}

// TotalBits returns the total number of bits on the board — the quantity
// Lemma 3 bounds by O(n·f(n)).
func (b *Board) TotalBits() int {
	t := 0
	for _, m := range b.msgs {
		t += m.Bits
	}
	return t
}

// Clone returns a deep copy (messages are immutable once appended, so only
// the spine is copied). The copy starts with an empty derived-state slot.
func (b *Board) Clone() *Board {
	return &Board{msgs: append([]Message(nil), b.msgs...)}
}

// Truncate returns a board containing only the first k messages (sharing
// storage; the prefix is immutable), with an empty derived-state slot.
func (b *Board) Truncate(k int) *Board {
	return &Board{msgs: b.msgs[:k:k]}
}

// Fold returns the state derived under key from every message on b. The
// whiteboard is append-only within a run, so state derived from a prefix
// stays true as the board grows: Fold keeps the state in b's derived-state
// slot and folds in only the messages appended since the previous call
// under key. key names what the decode depends on (say the protocol variant
// and n); give it a type of the reader's own package, so that two readers
// never share a slot by accident. When the slot is empty, holds another
// key or was emptied by Reset, fresh(st, key) starts the state over in
// place and every message is folded again: fresh must leave st as a new
// state would be, and may keep the storage st already holds (a slice's
// capacity, say), so a board reset and refilled run after run decodes
// without allocating. step folds message i into st; once it fails, the
// slot keeps its error and every later Fold under key returns that error,
// whatever is appended after.
//
// The slot belongs to the board: Reset starts it over, Clone and Truncate
// return boards without one, and Append keeps it. It takes no lock, since a
// run reads its board from one goroutine. The returned state is shared
// with every later reader of b: callers must not change it outside step.
// It is valid until the next Reset of b, or the next Fold of b under
// another key, which reuse its storage; a reader that hands out what it
// decoded copies it out first.
func Fold[K comparable, S any](b *Board, key K, fresh func(st *S, key K), step func(st *S, i int, m Message) error) (*S, error) {
	d, ok := b.derived.(*slot[K, S])
	if !ok {
		d = new(slot[K, S])
		b.derived = d
	}
	if !ok || b.stale || d.key != key {
		d.key, d.covered, d.err, b.stale = key, 0, nil, false
		fresh(&d.st, key)
	}
	for d.err == nil && d.covered < len(b.msgs) {
		if d.err = step(&d.st, d.covered, b.msgs[d.covered]); d.err == nil {
			d.covered++
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	return &d.st, nil
}

// Key returns a string identifying the full ordered board content.
func (b *Board) Key() string {
	var sb strings.Builder
	for _, m := range b.msgs {
		sb.WriteString(m.Key())
		sb.WriteByte('|')
	}
	return sb.String()
}

// ContentKey returns a string identifying the board content as a multiset
// (order erased). Used when checking order-insensitivity of SIMASYNC
// outputs and when counting distinct boards for Lemma 3.
func (b *Board) ContentKey() string {
	keys := make([]string, len(b.msgs))
	for i, m := range b.msgs {
		keys[i] = m.Key()
	}
	sortStrings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('|')
	}
	return sb.String()
}

func sortStrings(s []string) {
	// insertion sort; boards are small and this avoids importing sort for
	// a single call site.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NodeView is everything a node knows a priori: its identifier, the sorted
// identifiers of its neighbors, and the total number of nodes.
type NodeView struct {
	ID        int
	Neighbors []int // sorted ascending; read-only
	N         int
}

// HasNeighbor reports whether id is a neighbor (binary search).
func (v NodeView) HasNeighbor(id int) bool {
	lo, hi := 0, len(v.Neighbors)
	for lo < hi {
		mid := (lo + hi) / 2
		if v.Neighbors[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(v.Neighbors) && v.Neighbors[lo] == id
}

// Degree returns the node's degree.
func (v NodeView) Degree() int { return len(v.Neighbors) }

// Protocol is the algorithm run identically at every node plus the final
// decoding step.
type Protocol interface {
	// Name identifies the protocol in reports.
	Name() string
	// Model returns the weakest model the protocol is designed for. The
	// engine validates the corresponding structural constraints (e.g. a
	// simultaneous protocol must activate every node on the empty board).
	Model() Model
	// MaxMessageBits returns the message-size budget f(n) in bits. The
	// engine fails the run if any composed message exceeds it.
	MaxMessageBits(n int) int
	// Activate reports whether an awake node raises its hand given the
	// current board. It must be deterministic in (view, board).
	Activate(v NodeView, b *Board) bool
	// Compose returns the single message the node writes. For asynchronous
	// models the engine calls it exactly once, at activation; for
	// synchronous models, at write time.
	Compose(v NodeView, b *Board) Message
	// Output decodes the final board. It is only called on successful runs
	// (all n messages written).
	Output(n int, b *Board) (any, error)
}

// OutputAppender is an optional Protocol method for callers that keep only
// an output's text, such as exhaustive spectra, which count each distinct
// output under its key.
type OutputAppender interface {
	// AppendOutput appends to buf the text of the value Output(n, b)
	// returns, without building that value: the text its AppendString
	// method appends when it has one, its fmt %v text otherwise. When
	// Output fails, AppendOutput returns buf unchanged and Output's error.
	AppendOutput(buf []byte, n int, b *Board) ([]byte, error)
}

// Status classifies how a run ended.
type Status int

const (
	// Success: every node wrote its message and the output was computed.
	Success Status = iota
	// Deadlock: unwritten nodes remain but no node is or becomes active —
	// the paper's corrupted configuration.
	Deadlock
	// Failed: the run violated a model constraint (message over budget,
	// simultaneous protocol refusing to activate, adversary misbehaviour)
	// or Output returned an error.
	Failed
)

func (s Status) String() string {
	switch s {
	case Success:
		return "success"
	case Deadlock:
		return "deadlock"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// WriteEvent records one whiteboard append for traces.
type WriteEvent struct {
	Round  int // 1-based round in which the write happened
	Writer int // node identifier
	Bits   int
}

// Result describes a finished run.
type Result struct {
	Status  Status
	Err     error // non-nil iff Status == Failed
	Board   *Board
	Output  any
	Rounds  int
	Writes  []WriteEvent // in board order
	MaxBits int          // largest single message, in bits
}

// WriterOrder returns the node identifiers in write order.
func (r *Result) WriterOrder() []int {
	out := make([]int, len(r.Writes))
	for i, w := range r.Writes {
		out[i] = w.Writer
	}
	return out
}
