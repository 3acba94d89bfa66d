package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/big"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
)

// memoCutoff is what a budget-stopped RunAllMemo has done when it returns.
type memoCutoff struct {
	Steps, Classes int
	NaiveSteps     string
	Terminals      int
	Schedules      string
}

func (c memoCutoff) String() string {
	return fmt.Sprintf("steps %d, classes %d, naive steps %s, %d terminals of %s schedules",
		c.Steps, c.Classes, c.NaiveSteps, c.Terminals, c.Schedules)
}

// TestMemoLevelOrderPinned pins where a budget stops RunAllMemo. Each
// level is expanded in sorted-key order, and a budget that runs out in the
// middle of a level leaves partial stats that depend on which classes came
// first: on mis/C6 the classes of one level differ in candidate count and
// multiplicity, so Classes and NaiveSteps move with the order. The values
// were recorded with the clone-per-edge walk, so they hold the scratch walk
// to its order.
func TestMemoLevelOrderPinned(t *testing.T) {
	cases := []struct {
		proto, graph string
		budget       int
		want         memoCutoff
	}{
		{"mis", "cycle", 300, memoCutoff{300, 86, "331", 0, "0"}},
		{"mis", "cycle", 700, memoCutoff{700, 261, "906", 0, "0"}},
		{"build-forest", "path", 1000, memoCutoff{1000, 400, "1000", 0, "0"}},
		{"build-forest", "path", 1500, memoCutoff{1500, 782, "1500", 0, "0"}},
	}
	for _, c := range cases {
		p, g := registeredInstance(t, c.proto, c.graph, 6)
		terminals, schedules := 0, new(big.Int)
		stats, err := RunAllMemo(p, g, Options{}, c.budget, func(_ *core.Result, mult *big.Int) error {
			terminals++
			schedules.Add(schedules, mult)
			return nil
		})
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("%s/%s budget %d: err %v, want ErrBudget", c.proto, c.graph, c.budget, err)
		}
		got := memoCutoff{stats.Steps, stats.Classes, stats.NaiveSteps.String(), terminals, schedules.String()}
		if got != c.want {
			t.Errorf("%s/%s budget %d: %v, want %v", c.proto, c.graph, c.budget, got, c.want)
		}
	}
}

// TestMemoVisitErrorStopsAtPinnedTerminal pins which terminal class a
// visit error stops the walk at: the k-th terminal in the last level's
// sorted-key order, named by its board, output and multiplicity. The
// values were recorded with the clone-per-edge walk.
func TestMemoVisitErrorStopsAtPinnedTerminal(t *testing.T) {
	stop := errors.New("stop")
	cases := []struct {
		proto, graph string
		k            int
		want         string
	}{
		{"mis", "cycle", 40, "0 1100 1010 0 1110 0: [2 4 6] ×4 (classes 652)"},
		{"build-forest", "path", 300, "011010000110 100010001000 010010000100 110001000101 101010001010 001001000010: " +
			"{G(n=6, m=5: 1-2 2-3 3-4 4-5 5-6) true} ×1 (classes 1537)"},
	}
	for _, c := range cases {
		p, g := registeredInstance(t, c.proto, c.graph, 6)
		seen, got := 0, ""
		stats, err := RunAllMemo(p, g, Options{}, 1<<20, func(res *core.Result, mult *big.Int) error {
			if seen++; seen == c.k {
				msgs := make([]string, res.Board.Len())
				for i := range msgs {
					msgs[i] = res.Board.At(i).String()
				}
				got = fmt.Sprintf("%s: %v ×%s", strings.Join(msgs, " "), res.Output, mult)
				return stop
			}
			return nil
		})
		if !errors.Is(err, stop) {
			t.Fatalf("%s/%s: err %v, want the visit error", c.proto, c.graph, err)
		}
		got = fmt.Sprintf("%s (classes %d)", got, stats.Classes)
		if got != c.want {
			t.Errorf("%s/%s: terminal %d is %q, want %q", c.proto, c.graph, c.k, got, c.want)
		}
	}
}

// TestMemoVisitsInLevelOrder checks the order in which terminals reach
// visit everywhere, not only at the points the two tests above pin: at one
// depth they arrive in non-decreasing full board encoding (appendConfigKey
// with no nodes), the order of the level they sit in. The walks are a
// collapsing one (mis/C7), one that never collapses (build-forest/P6), one
// with terminals at two depths (the ASYNC first-writer gate on P6) and one
// whose child boards hold up to 35 classes each (mis/K8).
func TestMemoVisitsInLevelOrder(t *testing.T) {
	misC7, c7 := registeredInstance(t, "mis", "cycle", 7)
	forestP6, p6 := registeredInstance(t, "build-forest", "path", 6)
	misK8, k8 := registeredInstance(t, "mis", "complete", 8)
	for _, c := range []struct {
		name string
		p    core.Protocol
		g    *graph.Graph
	}{
		{"mis/C7", misC7, c7},
		{"build-forest/P6", forestP6, p6},
		{"first-writer-gate/P6", firstWriterGate{}, graph.Path(6)},
		{"mis/K8", misK8, k8},
	} {
		last := map[int][]byte{} // the board last visited at each depth
		terminals, ascents := 0, 0
		if _, err := RunAllMemo(c.p, c.g, Options{}, 1<<22, func(res *core.Result, _ *big.Int) error {
			terminals++
			depth, enc := res.Board.Len(), appendConfigKey(nil, res.Board, newState(0), false)
			if prev, ok := last[depth]; ok {
				switch bytes.Compare(prev, enc) {
				case 1:
					t.Errorf("%s: terminal %d at depth %d has a board that sorts before the previous one there", c.name, terminals, depth)
				case -1:
					ascents++
				}
			}
			last[depth] = enc
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ascents == 0 {
			t.Errorf("%s: %d terminals, no two of them on distinct boards at one depth", c.name, terminals)
		}
	}
}

// TestMemoAllocsPerClass bounds the allocations RunAllMemo makes per
// configuration class, protocol callbacks included, on a collapsing walk
// (mis on C7, SIMSYNC: 2,511 of its 5,866 edges land in a known class)
// and on one that never collapses (build-forest on P6, SIMASYNC). A walk
// that clones each successor's state and board before keying it makes
// 21.7 and 20.6 allocations per class; building successors in scratch and
// materializing only new classes cut that to 12.6 and 14.8; sharing board
// prefixes, keying by parent rank and taking classes from slabs to 4.2 and
// 9.5; and deduping and sorting each parent board's successors as one
// group, with keys in reused buffers instead of a string per class, to 3.2
// and 8.5.
func TestMemoAllocsPerClass(t *testing.T) {
	for _, c := range []struct {
		proto, graph string
		n            int
		bound        float64
	}{
		{"mis", "cycle", 7, 4},
		{"build-forest", "path", 6, 9},
	} {
		p, g := registeredInstance(t, c.proto, c.graph, c.n)
		var stats MemoStats
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			stats, err = RunAllMemo(p, g, Options{}, 1<<22, func(*core.Result, *big.Int) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
		})
		perClass := allocs / float64(stats.Classes)
		t.Logf("%s/%s n=%d: %.1f allocations per class over %d classes", c.proto, c.graph, c.n, perClass, stats.Classes)
		if perClass > c.bound {
			t.Errorf("%s/%s n=%d: %.1f allocations per class, want at most %.0f", c.proto, c.graph, c.n, perClass, c.bound)
		}
	}
}
