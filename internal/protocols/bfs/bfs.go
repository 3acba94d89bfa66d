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
	"sync"

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

// Protocol implements core.Protocol for the selected variant.
type Protocol struct {
	V Variant
	// cache, when non-nil, holds the incrementally parsed board state so
	// that each Activate/Compose call costs O(new entries) instead of
	// O(board). Created by NewCached; nil for New.
	cache *parseCache
}

// New returns the protocol for a variant.
func New(v Variant) Protocol { return Protocol{V: v} }

// NewCached returns the protocol with the incremental board-parse cache
// enabled. Semantically identical to New(v); the whiteboard is append-only
// within a run, so re-decoding the prefix every call is pure overhead. The
// cache is keyed on the board's identity and is safe for concurrent use:
// runs sharing one cached protocol from several goroutines serialize on
// its mutex and re-parse whenever they interleave boards, so sharing is
// correct but gains little. See BenchmarkParseCache for the ablation.
func NewCached(v Variant) Protocol { return Protocol{V: v, cache: &parseCache{}} }

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

// boardState is everything a node derives from the whiteboard.
type boardState struct {
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

// parseCache incrementally tracks the parsed state of one board. All use
// is serialized by mu, which callers (Activate/Compose/Output) hold for
// their entire body so the shared state cannot change under them.
type parseCache struct {
	mu     sync.Mutex
	board  *core.Board // identity of the cached board
	n      int
	parsed int // entries decoded so far
	st     *boardState
}

// lock acquires the cache mutex when caching is enabled; the returned
// function releases it (a no-op otherwise).
func (p Protocol) lock() func() {
	if p.cache == nil {
		return func() {}
	}
	p.cache.mu.Lock()
	return p.cache.mu.Unlock
}

func newBoardState() *boardState {
	return &boardState{
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
		st.layerPrev = map[int]int{}
		st.layerSame = map[int]int{}
		st.layerNext = map[int]int{}
	}
	st.comp = append(st.comp, e)
	st.layerPrev[e.layer] += e.dPrev
	st.layerSame[e.layer] += e.dSame
	st.layerNext[e.layer] += e.dNext
}

// decodeEntry decodes one whiteboard message.
func (p Protocol) decodeEntry(m core.Message, n int) (entry, error) {
	w := bitio.WidthID(n)
	r := bitio.NewReader(m.Data, m.Bits)
	var e entry
	if p.V == EOB {
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
	if p.V == General {
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

// parse returns the decoded board state, incrementally when the cache is
// enabled and the board is the one already being tracked. Callers must
// hold the cache lock (see lock).
func (p Protocol) parse(b *core.Board, n int) (*boardState, error) {
	if p.cache == nil {
		st := newBoardState()
		for i := 0; i < b.Len(); i++ {
			e, err := p.decodeEntry(b.At(i), n)
			if err != nil {
				return nil, fmt.Errorf("bfs: message %d: %w", i, err)
			}
			st.addEntry(e)
		}
		return st, nil
	}
	c := p.cache
	if c.st == nil || c.board != b || c.n != n || b.Len() < c.parsed {
		c.st = newBoardState()
		c.board = b
		c.n = n
		c.parsed = 0
	}
	for i := c.parsed; i < b.Len(); i++ {
		e, err := p.decodeEntry(b.At(i), n)
		if err != nil {
			c.st = nil
			return nil, fmt.Errorf("bfs: message %d: %w", i, err)
		}
		c.st.addEntry(e)
	}
	c.parsed = b.Len()
	return c.st, nil
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

// writtenNeighbors returns the BFS entries of v's written neighbors
// (ignoring invalid markers, which carry no layer information).
func (st *boardState) writtenNeighbors(v core.NodeView) []entry {
	var out []entry
	for _, u := range v.Neighbors {
		if e, ok := st.byID[u]; ok && !e.invalid {
			out = append(out, e)
		}
	}
	return out
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
	defer p.lock()()
	st, err := p.parse(b, v.N)
	if err != nil {
		return false
	}
	if p.V == EOB && (hasSameParityNeighbor(v) || st.anyInvalid) {
		return true
	}
	wn := st.writtenNeighbors(v)
	if len(wn) > 0 {
		k := wn[0].layer
		for _, e := range wn[1:] {
			if e.layer < k {
				k = e.layer
			}
		}
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
	defer p.lock()()
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
	wn := st.writtenNeighbors(v)
	if len(wn) == 0 {
		e.layer, e.parent, e.dPrev, e.dSame = 0, 0, 0, 0
		e.dNext = v.Degree()
	} else {
		k := wn[0].layer
		for _, x := range wn[1:] {
			if x.layer < k {
				k = x.layer
			}
		}
		e.layer = k + 1
		e.parent = 0
		for _, x := range wn {
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
	defer p.lock()()
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
