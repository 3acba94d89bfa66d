package bounds

import (
	"fmt"

	"repro/internal/bitio"
	"repro/internal/core"
)

// Strawman protocols: plausible-looking SIMASYNC protocols with small
// message budgets. They exist to be defeated — FindCollision exhibits pairs
// of graphs they cannot distinguish, turning the "no SIMASYNC[o(n)]
// protocol" theorems into concrete counterexamples for each candidate a
// practitioner might try. A third, the first B columns of each adjacency
// row, is SUBGRAPH_f's protocol with the constant f(n) = B (registry name
// "subgraph" with k = B).

// DegreeOnly writes only (ID, degree): the degree sequence cannot decide
// TRIANGLE, MIS membership, or reconstruct graphs.
type DegreeOnly struct{}

// Name implements core.Protocol.
func (DegreeOnly) Name() string { return "strawman-degree" }

// Model implements core.Protocol.
func (DegreeOnly) Model() core.Model { return core.SimAsync }

// MaxMessageBits implements core.Protocol.
func (DegreeOnly) MaxMessageBits(n int) int { return 2 * bitio.WidthID(n) }

// Activate implements core.Protocol.
func (DegreeOnly) Activate(core.NodeView, *core.Board) bool { return true }

// Compose implements core.Protocol.
func (DegreeOnly) Compose(v core.NodeView, _ *core.Board) core.Message {
	var w bitio.Writer
	w.WriteUint(uint64(v.ID), bitio.WidthID(v.N))
	w.WriteUint(uint64(v.Degree()), bitio.WidthID(v.N))
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

// Output implements core.Protocol (never meaningfully used; the collision
// finder works on boards).
func (DegreeOnly) Output(int, *core.Board) (any, error) {
	return nil, fmt.Errorf("strawman: no decodable output")
}

// Sketch writes (ID, h(N(v)) mod 2^B): a B-bit neighborhood fingerprint —
// the natural "compress your neighborhood" attempt. For B = o(n) the
// pigeonhole forces collisions on every rich family.
type Sketch struct {
	Seed uint64
	B    int
}

// Name implements core.Protocol.
func (s Sketch) Name() string { return fmt.Sprintf("strawman-sketch(B=%d)", s.B) }

// Model implements core.Protocol.
func (Sketch) Model() core.Model { return core.SimAsync }

// MaxMessageBits implements core.Protocol.
func (s Sketch) MaxMessageBits(n int) int { return bitio.WidthID(n) + s.width() }

func (s Sketch) width() int {
	if s.B <= 0 || s.B > 64 {
		return 8
	}
	return s.B
}

// Activate implements core.Protocol.
func (Sketch) Activate(core.NodeView, *core.Board) bool { return true }

// Compose implements core.Protocol.
func (s Sketch) Compose(v core.NodeView, _ *core.Board) core.Message {
	h := s.Seed ^ 0x9e3779b97f4a7c15
	for _, u := range v.Neighbors {
		h ^= uint64(u)
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 27
	}
	if s.width() < 64 {
		h &= (1 << uint(s.width())) - 1
	}
	var w bitio.Writer
	w.WriteUint(uint64(v.ID), bitio.WidthID(v.N))
	w.WriteUint(h, s.width())
	return core.Message{Data: w.Bytes(), Bits: w.Bits()}
}

// Output implements core.Protocol.
func (Sketch) Output(int, *core.Board) (any, error) {
	return nil, fmt.Errorf("strawman: no decodable output")
}

var (
	_ core.Protocol = DegreeOnly{}
	_ core.Protocol = Sketch{}
)
