// Package twocliques implements the Section 5.1 protocol: deciding, in
// SIMSYNC[log n], whether an (n−1)-regular 2n-node graph is the disjoint
// union of two complete graphs on n nodes.
//
// The first node chosen writes (ID, 0). Every later node v looks at S_v,
// its neighbors that have already written: if S_v is empty it writes
// (ID, 1); if all of S_v announced the same clique c it writes (ID, c); and
// otherwise it writes "no".
//
// One fix over the paper's prose: the output cannot be "two cliques iff no
// 'no' appears". Under an adversarial
// schedule a no-instance can avoid every "no" — e.g. rewire one edge of
// each clique into a cross matching and schedule writes along the rewired
// edges, which floods both sides with class 0. What the absence of "no"
// does certify is that there is no edge between the final 0-class and
// 1-class; combined with the (n−1)-regularity promise, *balanced* classes
// (n and n) force both classes to be cliques. The output function therefore
// answers yes iff no "no" appeared and the classes have exactly n nodes
// each. TestAdversaryCanSuppressAllNoMessages builds such a schedule, and
// TestExhaustiveSchedulesYesAndNo checks the output against every one.
package twocliques

import (
	"fmt"
	"sort"

	"repro/internal/bitio"
	"repro/internal/core"
)

// Output is the decision plus, for yes answers, the discovered partition.
type Output struct {
	TwoCliques bool
	Clique0    []int // sorted; nil when TwoCliques is false
	Clique1    []int
}

// Protocol is the SIMSYNC[log n] 2-CLIQUES protocol. The input promise is
// that the graph is (n−1)-regular on 2n nodes; outside the promise any
// answer may come, yes included: the single edge {1,2} on 4 nodes reads
// yes on 12 of its 24 schedules.
type Protocol struct{}

// Name implements core.Protocol.
func (Protocol) Name() string { return "two-cliques" }

// Model implements core.Protocol.
func (Protocol) Model() core.Model { return core.SimSync }

// MaxMessageBits: identifier plus a 2-bit tag (clique 0, clique 1, "no").
func (Protocol) MaxMessageBits(n int) int { return bitio.WidthID(n) + 2 }

// Activate implements core.Protocol: simultaneous.
func (Protocol) Activate(core.NodeView, *core.Board) bool { return true }

const (
	tagClique0 = 0
	tagClique1 = 1
	tagNo      = 2
)

// Compose implements core.Protocol.
func (Protocol) Compose(v core.NodeView, b *core.Board) core.Message {
	tag := tagNo
	if b.Empty() {
		tag = tagClique0
	} else {
		sawClique := [2]bool{}
		sawNo := false
		empty := true
		for i := 0; i < b.Len(); i++ {
			id, t, err := parse(b.At(i), v.N)
			if err != nil {
				continue
			}
			if !v.HasNeighbor(id) {
				continue
			}
			empty = false
			if t == tagNo {
				sawNo = true
			} else {
				sawClique[t] = true
			}
		}
		switch {
		case empty:
			tag = tagClique1
		case sawNo || (sawClique[0] && sawClique[1]):
			tag = tagNo
		case sawClique[0]:
			tag = tagClique0
		default:
			tag = tagClique1
		}
	}
	var w bitio.Writer
	w.WriteUint(uint64(v.ID), bitio.WidthID(v.N))
	w.WriteUint(uint64(tag), 2)
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

func parse(m core.Message, n int) (id, tag int, err error) {
	r := bitio.NewReader(m.Data, m.Bits)
	rawID, err := r.ReadUint(bitio.WidthID(n))
	if err != nil {
		return 0, 0, err
	}
	rawTag, err := r.ReadUint(2)
	if err != nil {
		return 0, 0, err
	}
	return int(rawID), int(rawTag), nil
}

// Output implements core.Protocol: yes iff no "no" message appeared and the
// two announced classes are balanced (n nodes each on a 2n-node input).
func (Protocol) Output(n int, b *core.Board) (any, error) {
	var c0, c1 []int
	for i := 0; i < b.Len(); i++ {
		id, tag, err := parse(b.At(i), n)
		if err != nil {
			return nil, fmt.Errorf("twocliques: message %d: %w", i, err)
		}
		switch tag {
		case tagClique0:
			c0 = append(c0, id)
		case tagClique1:
			c1 = append(c1, id)
		default:
			return Output{TwoCliques: false}, nil
		}
	}
	if n%2 != 0 || len(c0) != n/2 || len(c1) != n/2 {
		return Output{TwoCliques: false}, nil
	}
	sort.Ints(c0)
	sort.Ints(c1)
	return Output{TwoCliques: true, Clique0: c0, Clique1: c1}, nil
}

var _ core.Protocol = Protocol{}
