package engine

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/core"
	"repro/internal/graph"
)

// Spectrum summarizes what a protocol can be forced to produce across all
// adversarial schedules of one input.
type Spectrum struct {
	Schedules int
	// Outputs maps a rendered output value to the number of schedules
	// producing it (only successful runs contribute).
	Outputs map[string]int
	// Deadlocks counts schedules that ended in a corrupted configuration.
	Deadlocks int
	// Failures counts schedules that violated a model constraint.
	Failures int
	// Steps counts the simulated writes the exploration performed. Identical
	// configurations are simulated once, so Steps can be far below the
	// schedule tree's edge count.
	Steps int
	// Classes counts the distinct configuration classes visited.
	Classes int
	// StepsSaved is the number of writes the schedule-tree walk (RunAll)
	// would have simulated beyond Steps.
	StepsSaved int

	// tally renders each output into render and finds the key Outputs
	// holds for it in keys, so only an output not seen before becomes a
	// key string.
	render []byte
	keys   map[string]string
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

// tally folds one terminal outcome, reached by mult schedules, into the
// spectrum.
func (s *Spectrum) tally(res *core.Result, mult int) {
	switch res.Status {
	case core.Success:
		s.render = fmt.Appendf(s.render[:0], "%v", res.Output)
		key, ok := s.keys[string(s.render)]
		if !ok {
			if s.keys == nil {
				s.keys = map[string]string{}
			}
			key = string(s.render)
			s.keys[key] = key
		}
		s.Outputs[key] += mult
	case core.Deadlock:
		s.Deadlocks += mult
	default:
		s.Failures += mult
	}
}

// OutputSpectrum explores every adversarial schedule of p on g (within a
// budget of maxSteps simulated writes) and tallies the outcomes. It
// answers, for small inputs, the question behind the model's ∀-adversary
// quantifier: which answers can the adversary force, and can it force a
// deadlock?
//
// The exploration is memoized (RunAllMemo): write orders that reach
// identical configurations are simulated once and their exact schedule
// multiplicities propagated, so the tallies are bit-for-bit what the tree
// walk (RunAll) produces while the step budget stretches orders of
// magnitude further on collapsing protocols.
func OutputSpectrum(p core.Protocol, g *graph.Graph, opts Options, maxSteps int) (*Spectrum, error) {
	s := &Spectrum{Outputs: map[string]int{}}
	stats, err := RunAllMemo(p, g, opts, maxSteps, func(res *core.Result, mult *big.Int) error {
		w, convErr := IntFromBig(mult)
		if convErr != nil {
			return convErr
		}
		s.tally(res, w)
		return nil
	})
	s.Steps = stats.Steps
	s.Classes = stats.Classes
	if sched, convErr := IntFromBig(stats.Schedules); convErr == nil {
		s.Schedules = sched
	} else if err == nil {
		err = convErr
	}
	s.StepsSaved = stats.StepsSaved()
	return s, err
}
