package bfs

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
)

// The folded board state keeps identifiers and per-layer sums in dense
// tables and the smallest unwritten identifier in a cursor. mapState below
// is the state as it was before: maps keyed by identifier and layer, and a
// scan for the smallest unwritten identifier. FuzzStateMatchesMaps checks
// that the protocol answers the same on either.

// mapState is the reference board state.
type mapState struct {
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

func newMapState(k foldKey) mapState {
	return mapState{
		key:       k,
		byID:      map[int]entry{},
		layerPrev: map[int]int{},
		layerSame: map[int]int{},
		layerNext: map[int]int{},
	}
}

func (st *mapState) addEntry(e entry) {
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

// mapDecodeEntry is the reference decoder, one field at a time.
func mapDecodeEntry(k foldKey, m core.Message) (entry, error) {
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

func (st *mapState) layerComplete(k int) bool {
	if k == 0 {
		return len(st.comp) > 0
	}
	return st.layerPrev[k] == st.layerNext[k-1]-2*st.layerSame[k-1]
}

func (st *mapState) forwardEdges(k int) int {
	return st.layerNext[k] - 2*st.layerSame[k]
}

func (st *mapState) minUnwritten(n int) int {
	for v := 1; v <= n; v++ {
		if _, ok := st.byID[v]; !ok {
			return v
		}
	}
	return 0
}

func (st *mapState) writtenNeighbor(u int) (entry, bool) {
	e, ok := st.byID[u]
	return e, ok && !e.invalid
}

func (st *mapState) minWrittenLayer(v core.NodeView) (k int, ok bool) {
	for _, u := range v.Neighbors {
		if e, w := st.writtenNeighbor(u); w && (!ok || e.layer < k) {
			k, ok = e.layer, true
		}
	}
	return k, ok
}

// mapProtocol answers Activate, Compose and Output from a mapState that
// append folds each message into, keeping the first decode error for
// every later call.
type mapProtocol struct {
	v   Variant
	st  mapState
	err error
}

func newMapProtocol(v Variant, n int) *mapProtocol {
	return &mapProtocol{v: v, st: newMapState(foldKey{v, n})}
}

func (p *mapProtocol) append(i int, m core.Message) {
	if p.err != nil {
		return
	}
	e, err := mapDecodeEntry(p.st.key, m)
	if err != nil {
		p.err = fmt.Errorf("bfs: message %d: %w", i, err)
		return
	}
	p.st.addEntry(e)
}

func (p *mapProtocol) activate(v core.NodeView) bool {
	if p.err != nil {
		return false
	}
	st := &p.st
	if p.v == EOB && (hasSameParityNeighbor(v) || st.anyInvalid) {
		return true
	}
	if k, ok := st.minWrittenLayer(v); ok {
		return k+1 < 1<<bitio.WidthID(v.N) && st.layerComplete(k)
	}
	if st.writtenN == 0 {
		return v.ID == 1
	}
	if v.ID != st.minUnwritten(v.N) {
		return false
	}
	if len(st.comp) == 0 {
		return true
	}
	last := st.comp[len(st.comp)-1]
	return st.layerComplete(last.layer) && st.forwardEdges(last.layer) == 0
}

func (p *mapProtocol) compose(v core.NodeView) core.Message {
	if p.err != nil {
		return core.Message{}
	}
	st := &p.st
	w := bitio.WidthID(v.N)
	var bw bitio.Writer
	if p.v == EOB {
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
		e.dNext = v.Degree()
	} else if k+1 >= 1<<w {
		return core.Message{}
	} else {
		e.layer = k + 1
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
	if p.v == General {
		bw.WriteUint(uint64(e.dSame), w)
	}
	bw.WriteUint(uint64(e.dNext), w)
	return core.Message{Data: bw.Bytes(), Bits: bw.Bits()}
}

func (p *mapProtocol) output(n int) (any, error) {
	if p.err != nil {
		return nil, p.err
	}
	st := &p.st
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

// fuzzSizes sit on both sides of two identifier-width steps: 7 and 8 read
// 3- and 4-bit fields, 63 and 64 read 6- and 7-bit ones.
var fuzzSizes = []int{7, 8, 63, 64}

// fuzzField maps a fuzz byte to a w-bit field value: bytes below 0x80 to
// the small values that real layers, parents and degrees mostly take,
// bytes from 0x80 up to anywhere in 0..2^w−1.
func fuzzField(b byte, w int) uint64 {
	if b < 0x80 {
		return uint64(b) % 4
	}
	return uint64(b) % (1 << w)
}

// fuzzMessageBytes is how many fuzz bytes make one message.
const fuzzMessageBytes = 7

// fuzzMessage builds one message of variant v at width w from
// fuzzMessageBytes bytes: a control byte, then the identifier (anywhere in
// 0..2^w−1), layer, parent, d−1, d0 and d+1 fields. The control byte's low
// bit is EOB's invalid flag, and a control byte from 0xf0 up cuts the
// message short, which may leave it malformed.
func fuzzMessage(v Variant, w int, b []byte) core.Message {
	var bw bitio.Writer
	invalid := v == EOB && b[0]&1 == 1
	if v == EOB {
		bw.WriteBool(invalid)
	}
	bw.WriteUint(uint64(b[1])%(1<<w), w)
	if !invalid {
		for i, x := range b[2:fuzzMessageBytes] {
			if i == 3 && v != General {
				continue // d0 is General's alone
			}
			bw.WriteUint(fuzzField(x, w), w)
		}
	}
	m := core.Message{Data: bw.Bytes(), Bits: bw.Bits()}
	if b[0] >= 0xf0 {
		m.Bits = int(b[0]&0x0f) % m.Bits
	}
	return m
}

// fuzzInstance is one size's fixed graph, its node views and, per variant,
// the board a Rotor run writes on it.
type fuzzInstance struct {
	views []core.NodeView
	runs  map[Variant]*core.Board
}

func newFuzzInstance(n int) fuzzInstance {
	g := graph.RandomGNP(n, 2.5/float64(n), rand.New(rand.NewSource(int64(n))))
	in := fuzzInstance{views: engine.Views(g), runs: map[Variant]*core.Board{}}
	for _, v := range []Variant{General, EOB, Bipartite} {
		in.runs[v] = engine.Run(New(v), g, adversary.Rotor{}, engine.Options{}).Board
	}
	return in
}

// FuzzStateMatchesMaps builds a board from a prefix of a real run followed
// by fuzzed messages (identifiers and layers anywhere in 0..2^w−1,
// duplicate identifiers, EOB invalid markers, several roots, messages cut
// short) and, after every append, requires every node's Activate and
// Compose and the Output, or its error, to match the map-based reference,
// for all three variants. No call may panic, on either state. Unless renew
// is 0, the board first folds the whole run at size renew−1 (modulo the
// sizes) and is Reset, and the state its fold renews in place must equal
// a fresh one.
func FuzzStateMatchesMaps(f *testing.F) {
	instances := map[int]fuzzInstance{}
	for _, n := range fuzzSizes {
		instances[n] = newFuzzInstance(n)
	}
	f.Add(uint8(0), uint8(0), uint8(255), []byte{})
	f.Add(uint8(3), uint8(0), uint8(255), []byte{})
	f.Add(uint8(2), uint8(0), uint8(10), []byte{})
	// Renewed from a larger and a smaller size's tables, and from its own.
	f.Add(uint8(0), uint8(4), uint8(255), []byte{})
	f.Add(uint8(3), uint8(1), uint8(255), []byte{})
	f.Add(uint8(2), uint8(3), uint8(10), []byte{})
	// Roots at 1, 2 and 3; 2 written twice; an out-of-range identifier.
	f.Add(uint8(1), uint8(0), uint8(0), []byte{
		0, 1, 0, 0, 0, 0, 1,
		0, 2, 0, 0, 0, 0, 0,
		0, 2, 1, 1, 1, 0, 0,
		0, 3, 0, 0, 0, 0, 2,
		0, 15, 1, 3, 1, 0, 1,
	})
	// EOB invalid markers between BFS entries; at n = 64, a layer of 127,
	// the largest a 7-bit field holds, which no neighbour may write past.
	f.Add(uint8(3), uint8(0), uint8(5), []byte{
		1, 9, 0, 0, 0, 0, 0,
		0, 6, 0xff, 1, 1, 0, 3,
		1, 7, 0, 0, 0, 0, 0,
		0, 127, 0, 0, 0, 0, 0,
	})
	// A message cut short after a real prefix.
	f.Add(uint8(2), uint8(0), uint8(20), []byte{0xf5, 1, 2, 3, 4, 5, 6, 0, 4, 0, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, size, renew, prefix uint8, data []byte) {
		n := fuzzSizes[int(size)%len(fuzzSizes)]
		in := instances[n]
		w := bitio.WidthID(n)
		for _, variant := range []Variant{General, EOB, Bipartite} {
			run := in.runs[variant]
			msgs := make([]core.Message, 0, run.Len()+len(data)/fuzzMessageBytes)
			for i := 0; i < min(int(prefix), run.Len()); i++ {
				msgs = append(msgs, run.At(i))
			}
			for b := data; len(b) >= fuzzMessageBytes; b = b[fuzzMessageBytes:] {
				msgs = append(msgs, fuzzMessage(variant, w, b))
			}
			p, ref, board := New(variant), newMapProtocol(variant, n), core.NewBoard()
			if renew > 0 {
				before := fuzzSizes[int(renew-1)%len(fuzzSizes)]
				old := instances[before].runs[variant]
				for i := 0; i < old.Len(); i++ {
					board.Append(old.At(i))
				}
				if _, err := p.parse(board, before); err != nil {
					t.Fatalf("%v n=%d: folding the run: %v", variant, before, err)
				}
				board.Reset()
				var fresh boardState
				fresh.reset(foldKey{variant, n})
				if st, err := p.parse(board, n); err != nil || !reflect.DeepEqual(*st, fresh) {
					t.Fatalf("%v: state renewed from n=%d to n=%d is %+v (%v), want %+v", variant, before, n, st, err, fresh)
				}
			}
			for i := 0; ; i++ {
				for _, v := range in.views[1:] {
					if got, want := p.Activate(v, board), ref.activate(v); got != want {
						t.Fatalf("%v n=%d after %d messages: node %d Activate %v, reference %v", variant, n, i, v.ID, got, want)
					}
					if got, want := p.Compose(v, board), ref.compose(v); got.Bits != want.Bits || !bytes.Equal(got.Data, want.Data) {
						t.Fatalf("%v n=%d after %d messages: node %d composes %s, reference %s",
							variant, n, i, v.ID, got.Key(), want.Key())
					}
				}
				out, err := p.Output(n, board)
				wantOut, wantErr := ref.output(n)
				if !reflect.DeepEqual(out, wantOut) || fmt.Sprint(err) != fmt.Sprint(wantErr) {
					t.Fatalf("%v n=%d after %d messages: Output %+v %v, reference %+v %v", variant, n, i, out, err, wantOut, wantErr)
				}
				if i == len(msgs) {
					break
				}
				board.Append(msgs[i])
				ref.append(i, msgs[i])
			}
		}
	})
}

// TestRunnerRunAllocs pins the allocations of one reused-runner run of bfs
// on a sparse G(n,p) at n = 64, as a campaign worker makes them: one per
// composed message and the Output's forest. The folded state's slot,
// entries and tables outlive the runner's Reset, which made them afresh
// (74); the map-based state, and a decode that moved each entry to the
// heap, made 231.
func TestRunnerRunAllocs(t *testing.T) {
	g := graph.RandomGNP(64, 0.05, rand.New(rand.NewSource(64)))
	r, p := engine.NewRunner(), New(General)
	run := func() {
		if res := r.Run(p, g, adversary.MinID{}, engine.Options{}); res.Status != core.Success {
			t.Fatalf("%v (%v)", res.Status, res.Err)
		}
	}
	run()
	allocs := testing.AllocsPerRun(20, run)
	const want = 71
	if allocs > want {
		t.Errorf("%.1f allocations per run, want at most %d", allocs, want)
	}
}
