package engine

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"slices"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/registry"
)

func TestOutputSpectrumSimAsyncIsSingleton(t *testing.T) {
	// A SIMASYNC protocol with an order-insensitive output has a singleton
	// spectrum: the adversary can force nothing.
	s, err := OutputSpectrum(idEcho{}, graph.Path(4), Options{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if s.Schedules != 24 || s.Deadlocks != 0 || s.Failures != 0 {
		t.Fatalf("spectrum: %+v", s)
	}
	if len(s.Outputs) != 1 {
		t.Errorf("distinct outputs: %v", s.DistinctOutputs())
	}
	for _, count := range s.Outputs {
		if count != 24 {
			t.Errorf("output count %d, want 24", count)
		}
	}
}

func TestOutputSpectrumScheduleSensitiveProtocol(t *testing.T) {
	// lastWriterSees distinguishes nothing across orders (output is always
	// n−1 ones), but a protocol whose output depends on who wrote first
	// does. Build one inline: output = first writer's bit pattern length.
	s, err := OutputSpectrum(lastWriterSees{}, graph.Path(3), Options{}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Outputs) != 1 {
		t.Errorf("sees-board outputs: %v", s.DistinctOutputs())
	}
}

func TestOutputSpectrumCountsDeadlocks(t *testing.T) {
	s, err := OutputSpectrum(chainProto{stallAt: 2}, graph.Path(3), Options{}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if s.Deadlocks == 0 || len(s.Outputs) != 0 {
		t.Fatalf("expected pure-deadlock spectrum, got %+v", s)
	}
}

func TestOutputSpectrumDistinctSorted(t *testing.T) {
	s := &Spectrum{Outputs: map[string]int{"b": 1, "a": 2, "c": 3}}
	got := s.DistinctOutputs()
	if strings.Join(got, ",") != "a,b,c" {
		t.Errorf("DistinctOutputs = %v", got)
	}
}

// TestSpectrumTallyOverflows pins the exact-or-error rule: a schedule
// count or a multiplicity-weighted sum that would leave its integer range
// fails the tally with ErrMultiplicityOverflow instead of wrapping. Each
// case overflows one tally alone; every weight but the last must fit.
func TestSpectrumTallyOverflows(t *testing.T) {
	for _, c := range []struct {
		name         string
		rounds, bits int
		weights      []int
	}{
		{"schedules", 0, 0, []int{math.MaxInt/2 + 1, math.MaxInt/2 + 1}},
		{"round sum", 100, 0, []int{math.MaxInt64 / 50}},
		{"board-bit sum", 0, 100, []int{math.MaxInt64 / 50}},
	} {
		board := core.NewBoard()
		if c.bits > 0 {
			board.Append(core.Message{Data: make([]byte, (c.bits+7)/8), Bits: c.bits})
		}
		key := []byte("1")
		s := &Spectrum{Outputs: map[string]int{}}
		last := len(c.weights) - 1
		for _, w := range c.weights[:last] {
			if err := s.tally(core.Success, key, c.rounds, board, w); err != nil {
				t.Fatalf("%s: weight %d: %v", c.name, w, err)
			}
		}
		if err := s.tally(core.Success, key, c.rounds, board, c.weights[last]); !errors.Is(err, ErrMultiplicityOverflow) {
			t.Errorf("%s: weight %d after %d schedules: err %v, want ErrMultiplicityOverflow", c.name, c.weights[last], s.Schedules, err)
		}
	}
}

func TestOutputSpectrumPropagatesBudgetError(t *testing.T) {
	if _, err := OutputSpectrum(idEcho{}, graph.Path(6), Options{}, 5); err == nil {
		t.Error("budget exhaustion not reported")
	}
}

// The MIS spectrum on a path shows genuine adversary power: multiple valid
// maximal sets, all containing the root, none invalid.
func TestOutputSpectrumMISAdversaryPower(t *testing.T) {
	p := misLike{}
	s, err := OutputSpectrum(p, graph.Path(4), Options{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Outputs) < 2 {
		t.Errorf("expected adversary-dependent MIS sets, got %v", s.DistinctOutputs())
	}
	if s.Deadlocks+s.Failures > 0 {
		t.Errorf("spectrum has %d deadlocks, %d failures", s.Deadlocks, s.Failures)
	}
}

// misLike is a tiny greedy-membership protocol (first-written nodes claim
// membership if no neighbor has) used to exercise the spectrum.
type misLike struct{ idEcho }

func (misLike) Name() string             { return "mis-like" }
func (misLike) Model() core.Model        { return core.SimSync }
func (misLike) MaxMessageBits(n int) int { return 64 }
func (misLike) Compose(v core.NodeView, b *core.Board) core.Message {
	in := byte(1)
	for i := 0; i < b.Len(); i++ {
		m := b.At(i)
		if len(m.Data) >= 2 && m.Data[1] == 1 && v.HasNeighbor(int(m.Data[0])) {
			in = 0
		}
	}
	return core.Message{Data: []byte{byte(v.ID), in}, Bits: 16}
}
func (misLike) Output(n int, b *core.Board) (any, error) {
	var set []int
	for i := 0; i < b.Len(); i++ {
		m := b.At(i)
		if len(m.Data) >= 2 && m.Data[1] == 1 {
			set = append(set, int(m.Data[0]))
		}
	}
	sortInts(set)
	return set, nil
}

func sortInts(s []int) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// TestSpectrumKeysRenderLikeFmt checks that each output's key is its %v
// text, whether tally renders it through the output's AppendString (the
// graphs the BUILD reductions output, build-forest's Decoded) or through
// fmt (every other output type): for every registered protocol on the
// 5-node path and cycle, the keys are exactly fmt.Sprint of the outputs
// RunAllMemo hands visit for its successful terminals.
func TestSpectrumKeysRenderLikeFmt(t *testing.T) {
	for _, pname := range registry.Protocols() {
		for _, gname := range []string{"path", "cycle"} {
			p, g := registeredInstance(t, registeredSpec(pname), gname, 5)
			coord := fmt.Sprintf("%s/%s", pname, gname)
			s, err := OutputSpectrum(p, g, Options{}, 1<<20)
			if err != nil {
				t.Fatalf("%s: %v", coord, err)
			}
			var want []string
			if _, err := RunAllMemo(p, g, Options{}, 1<<20, func(res *core.Result, _ *big.Int) error {
				if res.Status == core.Success {
					want = append(want, fmt.Sprint(res.Output))
				}
				return nil
			}); err != nil {
				t.Fatalf("%s: %v", coord, err)
			}
			slices.Sort(want)
			if got := s.DistinctOutputs(); !slices.Equal(got, slices.Compact(want)) {
				t.Errorf("%s: keys %q, want %q", coord, got, want)
			}
		}
	}
}

// TestSpectrumAllocsPerClass bounds the allocations OutputSpectrum makes
// per configuration class on build-forest P6 (SIMASYNC, 1,957 classes,
// 720 terminals that all decode to P6) and on mis C8 (SIMSYNC, collapsing
// onto 17,396 classes). On P6, cloning each terminal's board and Result
// and rendering its output through fmt made 5.2; lending the tally the
// walk's board and rendering through AppendString made 2.6; decoding each
// forest with its scratch array and edge list on the stack made 1.88; and
// keying each terminal by AppendOutput, with no forest built, makes 0.04.
// On C8, where each rebuilt board folded its members into fresh storage
// and each terminal's sorted members rendered through fmt, 2.95 becomes
// 0.94 once the fold's storage outlives Reset and the key is appended.
func TestSpectrumAllocsPerClass(t *testing.T) {
	for _, c := range []struct {
		proto, graph string
		n            int
		bound        float64
	}{
		{"build-forest", "path", 6, 0.25},
		{"mis", "cycle", 8, 1.0},
	} {
		p, g := registeredInstance(t, c.proto, c.graph, c.n)
		var s *Spectrum
		allocs := testing.AllocsPerRun(5, func() {
			var err error
			if s, err = OutputSpectrum(p, g, Options{}, 1<<22); err != nil {
				t.Fatal(err)
			}
		})
		perClass := allocs / float64(s.Classes)
		t.Logf("%s/%s n=%d: %.2f allocations per class over %d classes", c.proto, c.graph, c.n, perClass, s.Classes)
		if perClass > c.bound {
			t.Errorf("%s/%s n=%d: %.2f allocations per class, want at most %.1f", c.proto, c.graph, c.n, perClass, c.bound)
		}
	}
}
