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
// One deliberate fix over the paper's prose (see DESIGN.md): the parent is
// the minimum-ID written neighbor in the previous layer, not in all of N*v,
// since at write time N*v can contain same-layer nodes.
package bfs

import (
	"fmt"

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

// boardState is everything a node derives from the whiteboard.
type boardState struct {
	key        foldKey
	entries    []entry
	byID       map[int]entry
	anyInvalid bool
	writtenN   int // number of messages (= written nodes)
	// Current component: suffix of BFS entries starting at the latest root.
	comp      []entry
	layerPrev map[int]int
	layerSame map[int]int
	layerNext map[int]int
}

func newBoardState(k foldKey) boardState {
	return boardState{
		key:       k,
		byID:      map[int]entry{},
		layerPrev: map[int]int{},
		layerSame: map[int]int{},
		layerNext: map[int]int{},
	}
}

// addEntry folds one decoded message into the state: a fresh root resets
// the current-component view (layer numbers restart per component).
func (st *boardState) addEntry(e entry) {
	st.entries = append(st.entries, e)
	st.byID[e.id] = e
	st.writtenN++
	if e.invalid {
		st.anyInvalid = true
		return
	}
	if e.parent == 0 {
		st.comp = st.comp[:0]
		clear(st.layerPrev)
		clear(st.layerSame)
		clear(st.layerNext)
	}
	st.comp = append(st.comp, e)
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
	if k.v == EOB {
		inv, err := r.ReadBool()
		if err != nil {
			return e, err
		}
		e.invalid = inv
	}
	id, err := r.ReadUint(w)
	if err != nil {
		return e, err
	}
	e.id = int(id)
	if e.invalid {
		return e, nil
	}
	fields := []*int{&e.layer, &e.parent, &e.dPrev}
	if k.v == General {
		fields = append(fields, &e.dSame)
	}
	fields = append(fields, &e.dNext)
	for _, f := range fields {
		x, err := r.ReadUint(w)
		if err != nil {
			return e, err
		}
		*f = int(x)
	}
	return e, nil
}

// parse returns the decoded board state for n nodes, folding in only the
// messages appended since the board was last read under the same variant
// and n. The state is shared by every reader of b: read it, never change
// it. A malformed message fails this and every later call on b.
func (p Protocol) parse(b *core.Board, n int) (*boardState, error) {
	return core.Fold(b, foldKey{p.V, n}, newBoardState, (*boardState).add)
}

// layerComplete reports whether every node of layer k in the current
// component has written: the edge-count certificate of Theorems 7/10.
func (st *boardState) layerComplete(k int) bool {
	if k == 0 {
		return len(st.comp) > 0
	}
	return st.layerPrev[k] == st.layerNext[k-1]-2*st.layerSame[k-1]
}

// forwardEdges returns the number of edges announced from layer k toward
// layer k+1 of the current component.
func (st *boardState) forwardEdges(k int) int {
	return st.layerNext[k] - 2*st.layerSame[k]
}

// minUnwritten returns the smallest identifier with no message on the board.
func (st *boardState) minUnwritten(n int) int {
	for v := 1; v <= n; v++ {
		if _, ok := st.byID[v]; !ok {
			return v
		}
	}
	return 0
}

// writtenNeighbor returns the BFS entry node u wrote, if it wrote one
// (invalid markers carry no layer information).
func (st *boardState) writtenNeighbor(u int) (entry, bool) {
	e, ok := st.byID[u]
	return e, ok && !e.invalid
}

// minWrittenLayer returns the smallest layer among v's written neighbors;
// ok is false when none has written.
func (st *boardState) minWrittenLayer(v core.NodeView) (k int, ok bool) {
	for _, u := range v.Neighbors {
		if e, w := st.writtenNeighbor(u); w && (!ok || e.layer < k) {
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
		return st.layerComplete(k)
	}
	// No written neighbor: root rules.
	if st.writtenN == 0 {
		return v.ID == 1
	}
	if v.ID != st.minUnwritten(v.N) {
		return false
	}
	if len(st.comp) == 0 {
		// Board holds only invalid markers (EOB rejection in flight); the
		// BFS part has not started. Start it at the min unwritten node so
		// every node still writes exactly once.
		return true
	}
	last := st.comp[len(st.comp)-1]
	return st.layerComplete(last.layer) && st.forwardEdges(last.layer) == 0
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
	} else {
		e.layer = k + 1
		e.parent = 0
		for _, u := range v.Neighbors {
			x, w := st.writtenNeighbor(u)
			if !w {
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
