package buildforest

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/graph"
)

// refNode is what referenceOutput knows of one node: its announced degree
// and neighbor-ID sum, less the leaves pruned from it so far.
type refNode struct {
	deg           int
	sum           uint64
	seen, removed bool
}

// referenceOutput is Output as it was before its per-node fields and leaf
// stack moved into one scratch array: a struct per node and a separate
// leaf queue. FuzzOutputMatchesReference checks Output against it.
func referenceOutput(n int, b *core.Board) (any, error) {
	nodes := make([]refNode, n+1)
	w := bitio.WidthID(n)
	sumW := bitio.Width(uint64(n) * uint64(n))
	for i := 0; i < b.Len(); i++ {
		m := b.At(i)
		r := bitio.NewReader(m.Data, m.Bits)
		id, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("buildforest: message %d: %w", i, err)
		}
		d, err := r.ReadUint(w)
		if err != nil {
			return nil, fmt.Errorf("buildforest: message %d: %w", i, err)
		}
		s, err := r.ReadUint(sumW)
		if err != nil {
			return nil, fmt.Errorf("buildforest: message %d: %w", i, err)
		}
		v := int(id)
		if v < 1 || v > n {
			return nil, fmt.Errorf("buildforest: message %d: id %d out of range", i, v)
		}
		if nodes[v].seen {
			return nil, fmt.Errorf("buildforest: duplicate message for node %d", v)
		}
		nodes[v] = refNode{deg: int(d), sum: s, seen: true}
	}
	for v := 1; v <= n; v++ {
		if !nodes[v].seen {
			return nil, fmt.Errorf("buildforest: no message from node %d", v)
		}
	}

	edges := make([][2]int, 0, max(n-1, 0))
	queue := make([]int, 0, n)
	for v := 1; v <= n; v++ {
		if nodes[v].deg <= 1 {
			queue = append(queue, v)
		}
	}
	left := n
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if nodes[v].removed {
			continue
		}
		nodes[v].removed = true
		left--
		if nodes[v].deg == 0 {
			continue
		}
		u := int(nodes[v].sum)
		if u < 1 || u > n || u == v || nodes[u].removed || nodes[u].deg < 1 {
			return nil, fmt.Errorf("buildforest: inconsistent messages: leaf %d names neighbor %d", v, u)
		}
		edges = append(edges, [2]int{v, u})
		nodes[u].deg--
		nodes[u].sum -= uint64(v)
		if nodes[u].deg <= 1 {
			queue = append(queue, u)
		}
	}
	if left > 0 {
		return Decoded{InClass: false}, nil
	}
	return Decoded{Forest: graph.FromEdges(n, edges), InClass: true}, nil
}

// fuzzSizes are the node counts the fuzz target decodes at: each side of
// the identifier field's steps from 3 to 4 bits (7, 8) and from 4 to 5
// (15, 16), and the smallest boards.
var fuzzSizes = []int{1, 2, 3, 7, 8, 15, 16}

// fuzzMessageBytes is the length of one fuzzed message: its identifier,
// degree, two bytes of neighbor-ID sum, and the bit count it is cut to.
const fuzzMessageBytes = 5

// fuzzMessage makes a message at n from b: each field takes the low bits
// of its bytes, so identifiers run over 0..2^w−1 and sums over the whole
// sum field, and a cut below the three fields' width shortens the message
// to that many bits.
func fuzzMessage(n int, b []byte) core.Message {
	w := bitio.WidthID(n)
	sumW := bitio.Width(uint64(n) * uint64(n))
	var bw bitio.Writer
	bw.WriteUint(uint64(b[0])&(1<<w-1), w)
	bw.WriteUint(uint64(b[1])&(1<<w-1), w)
	bw.WriteUint((uint64(b[2])<<8|uint64(b[3]))&(1<<sumW-1), sumW)
	m := core.Message{Data: bw.Bytes(), Bits: bw.Bits()}
	if int(b[4]) < m.Bits {
		m.Bits = int(b[4])
	}
	return m
}

// fuzzSeed encodes, in the fuzz target's format, the board g's nodes
// write in the order perm gives (a permutation of 0..n−1).
func fuzzSeed(g *graph.Graph, perm []int) []byte {
	var data []byte
	for _, i := range perm {
		v, sum := i+1, 0
		for _, u := range g.Neighbors(v) {
			sum += u
		}
		data = append(data, byte(v), byte(g.Degree(v)), byte(sum>>8), byte(sum), 0xff)
	}
	return data
}

// FuzzOutputMatchesReference decodes fuzzed boards (identifiers out of
// range and duplicated, nodes missing, arbitrary degree and sum fields,
// so cycles and leaves that name removed or absent neighbors, and
// messages cut short of their fields) with Output and with
// referenceOutput, and requires the same error text or the same InClass,
// an Equal forest and the same rendering. AppendOutput must append that
// rendering after what its buffer holds, or fail with Output's error text
// and leave the buffer as it was.
func FuzzOutputMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i, n := range fuzzSizes {
		graphs := []*graph.Graph{graph.Path(n), graph.Star(n), graph.RandomForest(n, 0.5, rng)}
		if n >= 3 {
			graphs = append(graphs, graph.Cycle(n))
		}
		for _, g := range graphs {
			f.Add(uint8(i), fuzzSeed(g, rng.Perm(n)))
		}
	}
	// On P3: a leaf naming itself, a duplicate, an out-of-range identifier
	// and a message cut inside its sum field.
	f.Add(uint8(2), []byte{1, 1, 0, 1, 0xff, 2, 2, 0, 4, 0xff, 3, 1, 0, 2, 0xff})
	f.Add(uint8(2), []byte{1, 1, 0, 2, 0xff, 1, 1, 0, 2, 0xff, 3, 1, 0, 2, 0xff})
	f.Add(uint8(4), []byte{0, 1, 0, 2, 0xff, 9, 1, 0, 2, 0xff})
	f.Add(uint8(6), []byte{1, 1, 0, 2, 11})
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := fuzzSizes[int(size)%len(fuzzSizes)]
		b := core.NewBoard()
		for ; len(data) >= fuzzMessageBytes; data = data[fuzzMessageBytes:] {
			b.Append(fuzzMessage(n, data))
		}
		got, gotErr := (Protocol{}).Output(n, b)
		want, wantErr := referenceOutput(n, b)
		text, textErr := (Protocol{}).AppendOutput([]byte("key:"), n, b)
		if gotErr != nil || wantErr != nil {
			if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
				t.Fatalf("n=%d: error %v, want %v", n, gotErr, wantErr)
			}
			if textErr == nil || textErr.Error() != gotErr.Error() || string(text) != "key:" {
				t.Fatalf("n=%d: AppendOutput %q, %v; want %q, %v", n, text, textErr, "key:", gotErr)
			}
			return
		}
		g, w := got.(Decoded), want.(Decoded)
		if g.InClass != w.InClass || (g.Forest == nil) != (w.Forest == nil) ||
			g.Forest != nil && !g.Forest.Equal(w.Forest) || g.String() != w.String() {
			t.Fatalf("n=%d: output %v, want %v", n, g, w)
		}
		if textErr != nil || string(text) != "key:"+g.String() {
			t.Fatalf("n=%d: AppendOutput %q, %v; want %q", n, text, textErr, "key:"+g.String())
		}
	})
}
