// Package mis implements the paper's Theorem 5: the rooted MAXIMAL
// INDEPENDENT SET problem in SIMSYNC[log n].
//
// The problem takes a graph and a distinguished node x (known to every node
// as part of the input, like n) and asks for an inclusion-maximal
// independent set containing x. The protocol is the greedy one: when the
// adversary picks v, it writes its identifier ("I am in the set") if v = x,
// or if v is not a neighbor of x and no neighbor of v has written its
// identifier yet; otherwise it writes "no". Because messages are composed
// at write time from the current board, this needs the synchronous side of
// the lattice; Theorem 6 proves no SIMASYNC[o(n)] protocol can do it.
package mis

import (
	"fmt"
	"slices"

	"repro/internal/bitio"
	"repro/internal/core"
)

// Protocol is the SIMSYNC[log n] rooted-MIS protocol.
type Protocol struct {
	// Root is the distinguished node x the output set must contain.
	Root int
}

// Name implements core.Protocol.
func (p Protocol) Name() string { return fmt.Sprintf("rooted-mis(x=%d)", p.Root) }

// Model implements core.Protocol.
func (Protocol) Model() core.Model { return core.SimSync }

// MaxMessageBits: one membership bit plus, for members, the identifier.
func (Protocol) MaxMessageBits(n int) int { return 1 + bitio.WidthID(n) }

// Activate implements core.Protocol: simultaneous.
func (Protocol) Activate(core.NodeView, *core.Board) bool { return true }

// Compose implements core.Protocol: the greedy rule, evaluated against the
// whiteboard at write time.
func (p Protocol) Compose(v core.NodeView, b *core.Board) core.Message {
	inSet := false
	switch {
	case v.ID == p.Root:
		inSet = true
	case v.HasNeighbor(p.Root):
		inSet = false
	default:
		inSet = true
		for _, id := range membersOn(b, v.N) {
			if v.HasNeighbor(id) {
				inSet = false
				break
			}
		}
	}
	var w bitio.Writer
	w.WriteBool(inSet)
	if inSet {
		w.WriteUint(uint64(v.ID), bitio.WidthID(v.N))
	}
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

// foldKey is what decoding a board depends on: n, which sets the
// identifier width.
type foldKey struct{ n int }

// members is what the protocol derives from a board: the identifiers that
// have announced membership, in board order.
type members struct {
	width int
	ids   []int
}

func newMembers(k foldKey) members { return members{width: bitio.WidthID(k.n)} }

// add folds one message in (the step of core.Fold); a message that does
// not decode as an announcement adds nothing.
func (ms *members) add(_ int, m core.Message) error {
	r := bitio.NewReader(m.Data, m.Bits)
	in, err := r.ReadBool()
	if err != nil || !in {
		return nil
	}
	if id, err := r.ReadUint(ms.width); err == nil {
		ms.ids = append(ms.ids, int(id))
	}
	return nil
}

// membersOn returns the identifiers that have announced membership, folding
// in only the messages appended since the board was last read for n. The
// slice is the board's derived state, shared by every reader: never change
// it.
func membersOn(b *core.Board, n int) []int {
	ms, _ := core.Fold(b, foldKey{n}, newMembers, (*members).add) // add never fails
	return ms.ids
}

// Output implements core.Protocol: the sorted member identifiers.
func (Protocol) Output(n int, b *core.Board) (any, error) {
	ids := slices.Clone(membersOn(b, n))
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return nil, fmt.Errorf("mis: node %d wrote twice", ids[i])
		}
	}
	return ids, nil
}

var _ core.Protocol = Protocol{}
