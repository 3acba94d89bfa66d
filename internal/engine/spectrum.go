package engine

import (
	"fmt"
	"math"
	"math/big"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Spectrum summarizes what a protocol can be forced to produce across all
// adversarial schedules of one input. Every count and range is over
// terminal schedules: a configuration class reached by k schedules counts k
// times.
type Spectrum struct {
	Schedules int
	// Outputs maps a rendered output value to the number of schedules
	// producing it (only successful runs contribute).
	Outputs map[string]int
	// Success counts schedules that ended successfully.
	Success int
	// Deadlocks counts schedules that ended in a corrupted configuration.
	Deadlocks int
	// Failures counts schedules that violated a model constraint.
	Failures int
	// Rounds and BoardBits range over the schedules' round counts and
	// final board sizes: Min is the best any schedule achieves, Max the
	// worst the adversary can force.
	Rounds, BoardBits Range
	// MaxMessageBits is the largest single message on any final board.
	MaxMessageBits int
	// Steps counts the simulated writes the exploration performed. Identical
	// configurations are simulated once, so Steps can be far below the
	// schedule tree's edge count.
	Steps int
	// Classes counts the distinct configuration classes visited.
	Classes int
	// StepsSaved is the number of writes the schedule-tree walk (RunAll)
	// would have simulated beyond Steps.
	StepsSaved int

	// keys holds each key of Outputs under itself, so tally finds the
	// string for a rendered key and only an output not seen before
	// becomes a new string.
	keys map[string]string
}

// Range is the least and greatest value of one figure over a spectrum's
// schedules, and its exact sum over them.
type Range struct {
	Min, Max int
	Sum      int64
}

// add folds v, reached by mult schedules, into r; first marks r's first
// value. A sum that would exceed int64 fails with ErrMultiplicityOverflow.
func (r *Range) add(v, mult int, first bool) error {
	if first || v < r.Min {
		r.Min = v
	}
	if first || v > r.Max {
		r.Max = v
	}
	if v > 0 && int64(mult) > (math.MaxInt64-r.Sum)/int64(v) {
		return ErrMultiplicityOverflow
	}
	r.Sum += int64(v) * int64(mult)
	return nil
}

// DistinctOutputs returns the rendered outputs sorted lexicographically.
func (s *Spectrum) DistinctOutputs() []string {
	out := make([]string, 0, len(s.Outputs))
	for k := range s.Outputs {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// appendOutputKey appends the key Outputs counts the output value out
// under, its %v text: through its own AppendString when it has one (which
// must append that text), through fmt otherwise.
func appendOutputKey(key []byte, out any) []byte {
	if a, ok := out.(interface{ AppendString([]byte) []byte }); ok {
		return a.AppendString(key)
	}
	return fmt.Appendf(key, "%v", out)
}

// tally folds one terminal schedule, reached by mult schedules, into the
// spectrum: its status, the key of its output (read on Success only), its
// round count and its final board. The tallies stay exact or fail: a count
// or sum that would leave its integer range returns
// ErrMultiplicityOverflow, and the walk stops there.
func (s *Spectrum) tally(status core.Status, key []byte, rounds int, board *core.Board, mult int) error {
	if s.Schedules > math.MaxInt-mult {
		return ErrMultiplicityOverflow
	}
	bits := 0
	for i := 0; i < board.Len(); i++ {
		m := board.At(i).Bits
		bits += m
		s.MaxMessageBits = max(s.MaxMessageBits, m)
	}
	first := s.Schedules == 0
	if err := s.Rounds.add(rounds, mult, first); err != nil {
		return err
	}
	if err := s.BoardBits.add(bits, mult, first); err != nil {
		return err
	}
	// Success, Deadlocks, Failures and each output's count sum parts of
	// Schedules, so none can overflow where Schedules does not.
	s.Schedules += mult
	switch status {
	case core.Success:
		s.Success += mult
		k, ok := s.keys[string(key)]
		if !ok {
			if s.keys == nil {
				s.keys = map[string]string{}
			}
			k = string(key)
			s.keys[k] = k
		}
		s.Outputs[k] += mult
	case core.Deadlock:
		s.Deadlocks += mult
	default:
		s.Failures += mult
	}
	return nil
}

// OutputSpectrum explores every adversarial schedule of p on g (within a
// budget of maxSteps simulated writes) and tallies the outcomes. It
// answers, for small inputs, the question behind the model's ∀-adversary
// quantifier: which answers can the adversary force, and can it force a
// deadlock? When the step budget runs out, the tallies cover the
// schedules visited before it did.
//
// The exploration is memoized (RunAllMemo): write orders that reach
// identical configurations are simulated once and their exact schedule
// multiplicities propagated, so the tallies are bit-for-bit what the tree
// walk (RunAll) produces while the step budget stretches orders of
// magnitude further on collapsing protocols. The tally keeps only counts
// and output keys, so it reads each terminal on the walk's own board,
// without RunAllMemo's copy, and classifies it by the rule RunAllMemo
// applies, asking only for its output's key (machine.outcomeKey): a
// protocol with AppendOutput renders the key without building the output
// value, and any other renders the value Output returns.
func OutputSpectrum(p core.Protocol, g *graph.Graph, opts Options, maxSteps int) (*Spectrum, error) {
	s := &Spectrum{Outputs: map[string]int{}}
	var key []byte
	stats, err := walkMemo(p, g, opts, maxSteps, func(t *terminal, mult *big.Int) error {
		w, err := IntFromBig(mult)
		if err != nil {
			return err
		}
		var status core.Status
		status, key = t.m.outcomeKey(t.st, t.board, key[:0])
		return s.tally(status, key, t.round, t.board, w)
	})
	s.Steps, s.Classes, s.StepsSaved = stats.Steps, stats.Classes, stats.StepsSaved()
	return s, err
}
