package engine

import (
	"fmt"
	"math/big"
	"reflect"
	"testing"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/registry"
)

// coldCheck wraps a protocol so that every Activate, Compose and Output
// call runs twice: on the board the engine passes, whose derived-state slot
// holds what earlier calls folded in (warm), and on a clone of it, whose
// slot is empty, so the protocol decodes the board from scratch (cold). The
// engine goes on with the warm answer; the first difference is kept.
type coldCheck struct {
	core.Protocol
	diff string
}

func (c *coldCheck) note(call string, b *core.Board, warm, cold any) {
	if c.diff == "" {
		c.diff = fmt.Sprintf("%s after %d messages: warm %v, cold %v", call, b.Len(), warm, cold)
	}
}

func (c *coldCheck) Activate(v core.NodeView, b *core.Board) bool {
	warm := c.Protocol.Activate(v, b)
	if cold := c.Protocol.Activate(v, b.Clone()); cold != warm {
		c.note(fmt.Sprintf("Activate(%d)", v.ID), b, warm, cold)
	}
	return warm
}

func (c *coldCheck) Compose(v core.NodeView, b *core.Board) core.Message {
	warm := c.Protocol.Compose(v, b)
	if cold := c.Protocol.Compose(v, b.Clone()); cold.Key() != warm.Key() {
		c.note(fmt.Sprintf("Compose(%d)", v.ID), b, warm, cold)
	}
	return warm
}

func (c *coldCheck) Output(n int, b *core.Board) (any, error) {
	warm, werr := c.Protocol.Output(n, b)
	cold, cerr := c.Protocol.Output(n, b.Clone())
	if !reflect.DeepEqual(warm, cold) || fmt.Sprint(werr) != fmt.Sprint(cerr) {
		c.note("Output", b, fmt.Sprint(warm, werr), fmt.Sprint(cold, cerr))
	}
	return warm, werr
}

// TestWarmMatchesColdAllRegistered is the differential test behind
// folding each message once (core.Fold): for every registered protocol,
// each callback answers on the board the engine hands it exactly as on a
// fresh copy of that board. It samples single runs on path, cycle, tree
// and G(n,p) graphs up to n = 24 under the min and rotor adversaries, and
// walks every schedule with RunAllMemo at n ≤ 5, which builds each
// successor on a reset scratch board and keeps each new class as a clone,
// so both start cold.
func TestWarmMatchesColdAllRegistered(t *testing.T) {
	graphs := []string{"path", "cycle", "tree", "gnp"}
	build := func(pname, gname string, n int) (*coldCheck, *graph.Graph) {
		t.Helper()
		params := registry.Params{N: n, K: 2, P: 0.3, Seed: int64(n)}
		p, err := registry.NewProtocol(registeredSpec(pname), params)
		if err != nil {
			t.Fatalf("%s: %v", pname, err)
		}
		g, err := registry.NewGraph(gname, params, nil)
		if err != nil {
			t.Fatalf("%s: %v", gname, err)
		}
		return &coldCheck{Protocol: p}, g
	}
	for _, pname := range registry.Protocols() {
		for _, gname := range graphs {
			for _, n := range []int{3, 8, 16, 24} {
				for _, adv := range []adversary.Adversary{adversary.MinID{}, adversary.Rotor{}} {
					c, g := build(pname, gname, n)
					Run(c, g, adv, Options{})
					if c.diff != "" {
						t.Errorf("%s/%s n=%d %s: %s", pname, gname, n, adv.Name(), c.diff)
					}
				}
			}
			for n := 3; n <= 5; n++ {
				c, g := build(pname, gname, n)
				// A walk a model rule aborts still checks every call it made.
				_, _ = RunAllMemo(c, g, Options{}, 1<<20, func(*core.Result, *big.Int) error { return nil })
				if c.diff != "" {
					t.Errorf("%s/%s n=%d memoized: %s", pname, gname, n, c.diff)
				}
			}
		}
	}
}
