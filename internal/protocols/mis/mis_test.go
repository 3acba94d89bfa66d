package mis

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adversary"
	"repro/internal/bitio"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/testutil"
)

func checkMIS(t *testing.T, g *graph.Graph, root int, set []int) {
	t.Helper()
	if !graph.IsMaximalIndependentSet(g, set) {
		t.Fatalf("root %d: %v is not a MIS of %v", root, set, g)
	}
	found := false
	for _, v := range set {
		if v == root {
			found = true
		}
	}
	if !found {
		t.Fatalf("root %d missing from %v", root, set)
	}
}

func TestGreedyMISUnderManyAdversaries(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []*graph.Graph{
		graph.Path(7),
		graph.Cycle(8),
		graph.Star(6),
		graph.Complete(5),
		graph.Grid(3, 3),
		graph.RandomGNP(15, 0.3, rng),
		graph.New(4),
	}
	for _, g := range cases {
		for root := 1; root <= g.N(); root += 3 {
			for _, adv := range adversary.Standard(2, 17) {
				res := engine.Run(Protocol{Root: root}, g, adv, engine.Options{})
				if res.Status != core.Success {
					t.Fatalf("%v root %d adv %s: %v (%v)", g, root, adv.Name(), res.Status, res.Err)
				}
				checkMIS(t, g, root, res.Output.([]int))
			}
		}
	}
}

func TestExhaustiveAllGraphsAllSchedules(t *testing.T) {
	// Theorem 5 made literal for n=4: every labeled graph, every root,
	// every adversarial schedule yields a maximal independent set
	// containing the root.
	graph.AllGraphs(4, func(g *graph.Graph) bool {
		for root := 1; root <= 4; root++ {
			gg := g // captured; engine never mutates
			_, err := engine.RunAll(Protocol{Root: root}, gg, engine.Options{}, 1<<20,
				func(res *core.Result, order []int) error {
					if res.Status != core.Success {
						return fmt.Errorf("%v root %d order %v: %v", gg, root, order, res.Status)
					}
					set := res.Output.([]int)
					if !graph.IsMaximalIndependentSet(gg, set) {
						return fmt.Errorf("%v root %d order %v: %v not a MIS", gg, root, order, set)
					}
					has := false
					for _, v := range set {
						has = has || v == root
					}
					if !has {
						return fmt.Errorf("%v root %d order %v: root missing from %v", gg, root, order, set)
					}
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
}

func TestAdversaryChangesTheSetButNotValidity(t *testing.T) {
	// Different schedules may produce different maximal sets — that is
	// allowed; the answer need only be *some* MIS containing the root.
	g := graph.Path(6)
	seen := map[string]bool{}
	_, err := engine.RunAll(Protocol{Root: 1}, g, engine.Options{}, 1<<22,
		func(res *core.Result, _ []int) error {
			seen[fmt.Sprint(res.Output)] = true
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) < 2 {
		t.Errorf("expected schedule-dependent sets on P6, saw %v", seen)
	}
}

func TestMessageBudget(t *testing.T) {
	g := graph.Complete(64)
	res := engine.Run(Protocol{Root: 5}, g, adversary.MaxID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	if res.MaxBits > 1+7 { // 1 flag + ⌈log₂ 65⌉ = 7 bits
		t.Errorf("message of %d bits", res.MaxBits)
	}
}

func TestRootAlwaysWins(t *testing.T) {
	// Even when the root is written last and all its neighbors "wanted" in.
	g := graph.Star(5) // center 1
	res := engine.Run(Protocol{Root: 1}, g, adversary.Stubborn{Victim: 1, Inner: adversary.MinID{}}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	set := res.Output.([]int)
	// Leaves wrote first; they are not neighbors of each other but all are
	// neighbors of the root... and the rule excludes N(x) regardless of
	// order, so the set must be exactly {1}? No: leaves are non-neighbors of
	// each other but ARE neighbors of x, so they all write "no" and only the
	// root is in the set — and {1} is maximal in a star.
	checkMIS(t, g, 1, set)
	if len(set) != 1 || set[0] != 1 {
		t.Errorf("star MIS = %v, want [1]", set)
	}
}

// TestOutputLeavesFoldedStateAlone pins that Output hands out a sorted
// copy of the members the board's fold holds: a caller that changes it
// changes neither a later Output nor what nodes compose on the board.
func TestOutputLeavesFoldedStateAlone(t *testing.T) {
	g := graph.Cycle(9)
	p := Protocol{Root: 4}
	res := engine.Run(p, g, adversary.MaxID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	views := engine.Views(g)
	b := res.Board.Truncate(6)
	composed := func(b *core.Board) string {
		var out []string
		for _, v := range views[1:] {
			out = append(out, p.Compose(v, b).String())
		}
		return fmt.Sprint(out)
	}
	want := composed(b.Clone())
	first, err := p.Output(g.N(), b)
	if err != nil {
		t.Fatal(err)
	}
	ids := first.([]int)
	wantIDs := fmt.Sprint(ids)
	for i := range ids {
		ids[i] = 0
	}
	if again, err := p.Output(g.N(), b); err != nil || fmt.Sprint(again) != wantIDs {
		t.Errorf("second Output %v (%v), want %s", again, err, wantIDs)
	}
	if got := composed(b); got != want {
		t.Errorf("Compose after changing Output's result:\n got %s\nwant %s", got, want)
	}
}

func TestConcurrentEngineAgrees(t *testing.T) {
	g := graph.Cycle(9)
	p := Protocol{Root: 4}
	seq := engine.Run(p, g, adversary.Rotor{}, engine.Options{})
	for _, con := range testutil.RunConcurrently(p, g, adversary.Rotor{}, 4) {
		if seq.Status != core.Success || con.Status != core.Success {
			t.Fatal("runs failed")
		}
		if fmt.Sprint(seq.Output) != fmt.Sprint(con.Output) {
			t.Errorf("outputs differ: %v vs %v", seq.Output, con.Output)
		}
	}
}

func TestUnderSimAsyncFreezingMISBreaks(t *testing.T) {
	// Running the same greedy protocol with SIMASYNC freezing (messages
	// composed on the empty board) makes every non-neighbor of the root
	// claim membership — on most graphs that is not independent. This is
	// the operational face of Theorem 6's separation.
	g := graph.Path(5) // root 1; nodes 3,4,5 all claim membership; 3-4 adjacent
	res := engine.Run(Protocol{Root: 1}, g, adversary.MinID{},
		engine.Options{Model: engine.ModelPtr(core.SimAsync)})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	set := res.Output.([]int)
	if graph.IsIndependentSet(g, set) {
		t.Errorf("expected broken independence under SIMASYNC, got %v", set)
	}
}

// TestAppendOutputAllocatesNothing pins the point of AppendOutput: on the
// folded final board of a run on C9, appending the sorted members' text
// to a buffer with room allocates nothing, where Output allocates the
// sorted copy it hands out.
func TestAppendOutputAllocatesNothing(t *testing.T) {
	g := graph.Cycle(9)
	p := Protocol{Root: 4}
	res := engine.Run(p, g, adversary.MaxID{}, engine.Options{})
	if res.Status != core.Success {
		t.Fatal(res.Err)
	}
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(20, func() {
		var err error
		if buf, err = p.AppendOutput(buf[:0], g.N(), res.Board); err != nil {
			t.Fatal(err)
		}
	})
	if want := fmt.Sprint(res.Output); string(buf) != want {
		t.Fatalf("AppendOutput = %q, want %q", buf, want)
	}
	if allocs != 0 {
		t.Errorf("%.1f allocations per AppendOutput, want 0", allocs)
	}
}

// fuzzSizes sit on both sides of identifier-width steps (3 to 4 bits at
// 7 and 8, 6 to 7 at 63 and 64), and at 100 a board can hold more members
// than AppendOutput sorts on the stack.
var fuzzSizes = []int{1, 2, 7, 8, 9, 63, 64, 100}

// fuzzMessageBytes is how many fuzz bytes make one message.
const fuzzMessageBytes = 3

// fuzzMessage builds one message at n from fuzzMessageBytes bytes: the low
// bit of the control byte is the membership flag, the next two bytes the
// identifier (anywhere in 0..2^w−1), and a control byte from 0xf0 up cuts
// the message short.
func fuzzMessage(n int, b []byte) core.Message {
	w := bitio.WidthID(n)
	var bw bitio.Writer
	bw.WriteBool(b[0]&1 == 1)
	bw.WriteUint((uint64(b[1])<<8|uint64(b[2]))&(1<<w-1), w)
	m := core.Message{Data: bw.Bytes(), Bits: bw.Bits()}
	if b[0] >= 0xf0 {
		m.Bits = int(b[0]&0x0f) % m.Bits
	}
	return m
}

// FuzzAppendOutputMatchesOutput builds a board from fuzzed messages
// (members and non-members, duplicate and out-of-range identifiers,
// messages cut short) one message at a time, on a board whose fold of the
// same bytes at the next size was Reset, and after every append requires
// AppendOutput to append exactly fmt's %v of Output's value after what its
// buffer holds, or to fail with Output's error text and leave the buffer
// as it was.
func FuzzAppendOutputMatchesOutput(f *testing.F) {
	seed := func(members ...int) []byte {
		var data []byte
		for _, id := range members {
			data = append(data, 1, byte(id>>8), byte(id))
		}
		return data
	}
	f.Add(uint8(4), seed(4, 2, 7))
	f.Add(uint8(4), append(seed(4, 2, 7, 2), 0, 0, 5))
	f.Add(uint8(2), []byte{0xf3, 0, 5, 1, 0, 9, 0, 0, 3})
	many := make([]int, 70)
	for i := range many {
		many[i] = 100 - i
	}
	f.Add(uint8(7), seed(many...))
	f.Add(uint8(7), seed(append(many, 31)...))
	f.Fuzz(func(t *testing.T, size uint8, data []byte) {
		n := fuzzSizes[int(size)%len(fuzzSizes)]
		other := fuzzSizes[(int(size)+1)%len(fuzzSizes)]
		p, b := Protocol{Root: 1}, core.NewBoard()
		for d := data; len(d) >= fuzzMessageBytes; d = d[fuzzMessageBytes:] {
			b.Append(fuzzMessage(other, d))
		}
		membersOn(b, other)
		b.Reset()
		for i := 0; ; i++ {
			out, err := p.Output(n, b)
			text, textErr := p.AppendOutput([]byte("key:"), n, b)
			if err != nil {
				if textErr == nil || textErr.Error() != err.Error() || string(text) != "key:" {
					t.Fatalf("n=%d after %d messages: AppendOutput %q, %v; want %q, %v", n, i, text, textErr, "key:", err)
				}
			} else if want := fmt.Sprintf("key:%v", out); textErr != nil || string(text) != want {
				t.Fatalf("n=%d after %d messages: AppendOutput %q, %v; want %q", n, i, text, textErr, want)
			}
			if len(data) < fuzzMessageBytes {
				break
			}
			b.Append(fuzzMessage(n, data))
			data = data[fuzzMessageBytes:]
		}
	})
}
