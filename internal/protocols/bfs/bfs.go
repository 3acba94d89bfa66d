// Package bfs implements the paper's breadth-first-search protocols:
//
//   - General (Theorem 10): BFS forests of arbitrary graphs in SYNC[log n].
//     Messages carry (ID, layer, parent, d−1, d0, d+1) where d0 counts
//     already-written same-layer neighbors; composing at write time is what
//     makes d0 truthful, and is exactly the synchronous power the model
//     grants.
//   - EOB (Theorem 7): BFS forests of even-odd-bipartite graphs in
//     ASYNC[log n], with local detection and rejection of invalid inputs.
//   - Bipartite (Corollary 4): BFS forests of arbitrary bipartite graphs in
//     ASYNC[log n] — the EOB protocol minus the parity check; on
//     non-bipartite inputs it may deadlock (Open Problem 3 conjectures no
//     ASYNC protocol can avoid this).
//
// All variants share the layered activation discipline. A node joins layer
// l+1 once layer l is certifiably complete; the certificate counts edges:
// layer l is complete when Σ_{u∈L_l} d−1(u) equals the number of edges
// promised from layer l−1, namely Σ_{u∈L_{l−1}} d+1(u) − 2·Σ_{u∈L_{l−1}}
// d0(u). When the deepest layer is complete and announces no forward edges,
// the smallest unwritten identifier starts the next component as a new
// root. Layer numbers restart per component, so certificates are evaluated
// over the board suffix that starts at the most recent root message — an
// implementation detail the paper leaves implicit (writes are strictly
// component by component, so the suffix is exactly the active component).
//
// A node reads the board through the state folded from it (see Protocol),
// which answers each question without a scan or a map: a table indexed by
// identifier finds each node's latest message, three tables indexed by
// layer hold the active component's edge sums, and a cursor holds the
// smallest unwritten identifier, which only moves forward as messages
// arrive. Identifiers and layers travel in ⌈log₂(n+1)⌉-bit fields, so a
// table of 2^width slots takes any value a message can carry, valid or not.
//
// One deliberate fix over the paper's prose: the parent is the minimum-ID
// written neighbor in the previous layer, not in all of N*v, since at write
// time N*v can contain same-layer nodes.
package bfs

import (
	"fmt"
	"slices"

	"repro/internal/bitio"
	"repro/internal/core"
)

// Variant selects the protocol flavor.
type Variant int

const (
	// General is Theorem 10: SYNC[log n], arbitrary graphs.
	General Variant = iota
	// EOB is Theorem 7: ASYNC[log n], even-odd-bipartite graphs with
	// invalid-input detection.
	EOB
	// Bipartite is Corollary 4: ASYNC[log n], bipartite graphs, no
	// validity detection (deadlocks on odd cycles).
	Bipartite
)

func (v Variant) String() string {
	switch v {
	case General:
		return "general"
	case EOB:
		return "eob"
	case Bipartite:
		return "bipartite"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Forest is the protocol output: the BFS forest (parents and layers,
// 1-based, parent 0 for roots) or Valid=false when the EOB variant
// detected a non-even-odd-bipartite input.
type Forest struct {
	Valid  bool
	Parent []int
	Layer  []int
	Roots  []int
}

// Protocol implements core.Protocol for the selected variant. It holds no
// state of its own: what a node derives from the whiteboard is folded into
// the board's derived-state slot (core.Fold), one message at a time, so a
// run decodes each message once however often nodes read the board.
type Protocol struct {
	V Variant
}

// New returns the protocol for a variant.
func New(v Variant) Protocol { return Protocol{V: v} }

// Name implements core.Protocol.
func (p Protocol) Name() string { return "bfs-" + p.V.String() }

// Model implements core.Protocol.
func (p Protocol) Model() core.Model {
	if p.V == General {
		return core.Sync
	}
	return core.Async
}

// MaxMessageBits: ≤ 1 flag + 6 identifier-width fields — O(log n).
func (p Protocol) MaxMessageBits(n int) int {
	w := bitio.WidthID(n)
	fields := 5 // id, layer, parent, dPrev, dNext
	if p.V == General {
		fields = 6 // + dSame
	}
	bits := fields * w
	if p.V == EOB {
		bits++ // invalid flag
	}
	return bits
}

// entry is a decoded whiteboard message.
type entry struct {
	id      int
	layer   int
	parent  int // 0 = ROOT
	dPrev   int
	dSame   int // only meaningful for General
	dNext   int
	invalid bool // only possible for EOB
}

// foldKey is what decoding a board depends on: the message layout (the
// variant) and the identifier width (n).
type foldKey struct {
	v Variant
	n int
}

// boardState is everything a node derives from the whiteboard. Its tables
// are indexed by identifiers and layers, which messages carry in w-bit
// fields (w = bitio.WidthID(n)), so each table has 1<<w slots: every value
// a message can decode to, valid or not, indexes in range.
type boardState struct {
	key        foldKey
	entries    []entry // one per message, in board order
	anyInvalid bool
	// tables holds at and the three layer sums, back to back.
	tables []int
	// at[id] is 1 + the index in entries of id's latest message, 0 while
	// id has written none.
	at []int
	// next is the smallest identifier in 1..n that has written nothing,
	// n+1 once every one has: addEntry only ever moves it forward.
	next int
	// Current component, from the latest root on: last is 1 + the index in
	// entries of its latest BFS entry (0 before the first), and layerPrev,
	// layerSame and layerNext sum d−1, d0 and d+1 per layer. Only the first
	// layers slots of the sums can be nonzero.
	last                            int
	layerPrev, layerSame, layerNext []int
	layers                          int
}

// reset starts st over for key k, reusing its entries and tables when they
// are large enough (the fresh of core.Fold).
func (st *boardState) reset(k foldKey) {
	size := 1 << bitio.WidthID(k.n)
	tables := st.tables
	if cap(tables) < 4*size {
		tables = make([]int, 4*size)
	} else {
		tables = tables[:4*size]
		clear(tables)
	}
	*st = boardState{
		key:       k,
		entries:   slices.Grow(st.entries[:0], max(k.n, 0)),
		tables:    tables,
		at:        tables[:size:size],
		next:      1,
		layerPrev: tables[size : 2*size : 2*size],
		layerSame: tables[2*size : 3*size : 3*size],
		layerNext: tables[3*size:],
	}
}

// addEntry folds one decoded message into the state: a fresh root resets
// the current-component view (layer numbers restart per component).
func (st *boardState) addEntry(e entry) {
	st.entries = append(st.entries, e)
	st.at[e.id] = len(st.entries)
	for st.next <= st.key.n && st.at[st.next] != 0 {
		st.next++
	}
	if e.invalid {
		st.anyInvalid = true
		return
	}
	if e.parent == 0 {
		clear(st.layerPrev[:st.layers])
		clear(st.layerSame[:st.layers])
		clear(st.layerNext[:st.layers])
		st.layers = 0
	}
	st.last = len(st.entries)
	st.layers = max(st.layers, e.layer+1)
	st.layerPrev[e.layer] += e.dPrev
	st.layerSame[e.layer] += e.dSame
	st.layerNext[e.layer] += e.dNext
}

// add decodes message i and folds it into the state (the step of
// core.Fold).
func (st *boardState) add(i int, m core.Message) error {
	e, err := decodeEntry(st.key, m)
	if err != nil {
		return fmt.Errorf("bfs: message %d: %w", i, err)
	}
	st.addEntry(e)
	return nil
}

// decodeEntry decodes one whiteboard message.
func decodeEntry(k foldKey, m core.Message) (entry, error) {
	w := bitio.WidthID(k.n)
	r := bitio.NewReader(m.Data, m.Bits)
	var e entry
	var err error
	if k.v == EOB {
		if e.invalid, err = r.ReadBool(); err != nil {
			return e, err
		}
	}
	if e.id, err = readField(r, w); err != nil || e.invalid {
		return e, err
	}
	if e.layer, err = readField(r, w); err != nil {
		return e, err
	}
	if e.parent, err = readField(r, w); err != nil {
		return e, err
	}
	if e.dPrev, err = readField(r, w); err != nil {
		return e, err
	}
	if k.v == General {
		if e.dSame, err = readField(r, w); err != nil {
			return e, err
		}
	}
	e.dNext, err = readField(r, w)
	return e, err
}

// readField reads one w-bit field of a message.
func readField(r *bitio.Reader, w int) (int, error) {
	x, err := r.ReadUint(w)
	return int(x), err
}

// parse returns the decoded board state for n nodes, folding in only the
// messages appended since the board was last read under the same variant
// and n. The state is shared by every reader of b and valid until b's
// next Reset or its next read under another variant or n: read it, never
// change it. A malformed message fails this and every later call on b.
func (p Protocol) parse(b *core.Board, n int) (*boardState, error) {
	return core.Fold(b, foldKey{p.V, n}, (*boardState).reset, (*boardState).add)
}

// layerComplete reports whether every node of layer k in the current
// component has written: the edge-count certificate of Theorems 7/10.
func (st *boardState) layerComplete(k int) bool {
	if k == 0 {
		return st.last != 0
	}
	return st.layerPrev[k] == st.layerNext[k-1]-2*st.layerSame[k-1]
}

// forwardEdges returns the number of edges announced from layer k toward
// layer k+1 of the current component.
func (st *boardState) forwardEdges(k int) int {
	return st.layerNext[k] - 2*st.layerSame[k]
}

// minUnwritten returns the smallest identifier in 1..n with no message on
// the board, 0 if every one has written.
func (st *boardState) minUnwritten() int {
	if st.next > st.key.n {
		return 0
	}
	return st.next
}

// writtenNeighbor returns the BFS entry node u wrote, or nil if it wrote
// none (invalid markers carry no layer information). The entry is valid
// until the next message is folded in.
func (st *boardState) writtenNeighbor(u int) *entry {
	if u < 0 || u >= len(st.at) || st.at[u] == 0 {
		return nil
	}
	if e := &st.entries[st.at[u]-1]; !e.invalid {
		return e
	}
	return nil
}

// minWrittenLayer returns the smallest layer among v's written neighbors;
// ok is false when none has written.
func (st *boardState) minWrittenLayer(v core.NodeView) (k int, ok bool) {
	for _, u := range v.Neighbors {
		if e := st.writtenNeighbor(u); e != nil && (!ok || e.layer < k) {
			k, ok = e.layer, true
		}
	}
	return k, ok
}

// hasSameParityNeighbor is the EOB variant's local validity check.
func hasSameParityNeighbor(v core.NodeView) bool {
	for _, u := range v.Neighbors {
		if (u+v.ID)%2 == 0 {
			return true
		}
	}
	return false
}

// Activate implements core.Protocol.
func (p Protocol) Activate(v core.NodeView, b *core.Board) bool {
	st, err := p.parse(b, v.N)
	if err != nil {
		return false
	}
	if p.V == EOB && (hasSameParityNeighbor(v) || st.anyInvalid) {
		return true
	}
	if k, ok := st.minWrittenLayer(v); ok {
		// v would write layer k+1, which its w-bit field holds only below
		// 1<<w, the size of every table.
		return k+1 < len(st.at) && st.layerComplete(k)
	}
	// No written neighbor: root rules.
	if len(st.entries) == 0 {
		return v.ID == 1
	}
	if v.ID != st.minUnwritten() {
		return false
	}
	if st.last == 0 {
		// Board holds only invalid markers (EOB rejection in flight); the
		// BFS part has not started. Start it at the min unwritten node so
		// every node still writes exactly once.
		return true
	}
	k := st.entries[st.last-1].layer
	return st.layerComplete(k) && st.forwardEdges(k) == 0
}

// Compose implements core.Protocol.
func (p Protocol) Compose(v core.NodeView, b *core.Board) core.Message {
	st, err := p.parse(b, v.N)
	if err != nil {
		return core.Message{}
	}
	w := bitio.WidthID(v.N)
	var bw bitio.Writer
	if p.V == EOB {
		if hasSameParityNeighbor(v) || st.anyInvalid {
			bw.WriteBool(true)
			bw.WriteUint(uint64(v.ID), w)
			return core.Message{Data: bw.Bytes(), Bits: bw.Bits()}
		}
		bw.WriteBool(false)
	}
	var e entry
	e.id = v.ID
	if k, ok := st.minWrittenLayer(v); !ok {
		e.layer, e.parent, e.dPrev, e.dSame = 0, 0, 0, 0
		e.dNext = v.Degree()
	} else if k+1 >= len(st.at) {
		// Layer k+1 does not fit its field (see Activate); only a
		// malformed board gets here, e.g. under SYNC, where v may have
		// activated as a root before the bad layer was written.
		return core.Message{}
	} else {
		e.layer = k + 1
		e.parent = 0
		for _, u := range v.Neighbors {
			x := st.writtenNeighbor(u)
			if x == nil {
				continue
			}
			if x.layer == k {
				e.dPrev++
				if e.parent == 0 || x.id < e.parent {
					e.parent = x.id
				}
			}
			if x.layer == e.layer {
				e.dSame++
			}
		}
		e.dNext = v.Degree() - e.dPrev
	}
	bw.WriteUint(uint64(e.id), w)
	bw.WriteUint(uint64(e.layer), w)
	bw.WriteUint(uint64(e.parent), w)
	bw.WriteUint(uint64(e.dPrev), w)
	if p.V == General {
		bw.WriteUint(uint64(e.dSame), w)
	}
	bw.WriteUint(uint64(e.dNext), w)
	return core.Message{Data: bw.Bytes(), Bits: bw.Bits()}
}

// Output implements core.Protocol.
func (p Protocol) Output(n int, b *core.Board) (any, error) {
	st, err := p.parse(b, n)
	if err != nil {
		return nil, err
	}
	if st.anyInvalid {
		return Forest{Valid: false}, nil
	}
	out := Forest{
		Valid:  true,
		Parent: make([]int, n+1),
		Layer:  make([]int, n+1),
	}
	seen := make([]bool, n+1)
	for _, e := range st.entries {
		if e.id < 1 || e.id > n || seen[e.id] {
			return nil, fmt.Errorf("bfs: bad or duplicate id %d", e.id)
		}
		seen[e.id] = true
		out.Parent[e.id] = e.parent
		out.Layer[e.id] = e.layer
		if e.parent == 0 {
			out.Roots = append(out.Roots, e.id)
		}
	}
	for v := 1; v <= n; v++ {
		if !seen[v] {
			return nil, fmt.Errorf("bfs: no message from node %d", v)
		}
	}
	return out, nil
}

var _ core.Protocol = Protocol{}
