package campaign

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/jsonindent"
)

// Dist summarizes an integer distribution. Mean is sum/count computed from
// exact integer accumulators, so it is identical for any execution order.
type Dist struct {
	Min  int     `json:"min"`
	Max  int     `json:"max"`
	Mean float64 `json:"mean"`
	sum  int64
	n    int64
}

// merge folds a batch of n values with the given min, max and sum into
// the distribution: a sampled job is a batch of one, an exhaustive job
// the batch of its schedules. The first batch is taken as-is, so a Dist
// nothing was merged into stays zero, and the mean is recomputed from
// exact integer accumulators.
func (d *Dist) merge(min, max int, sum, n int64) {
	if n == 0 {
		return
	}
	if d.n == 0 || min < d.Min {
		d.Min = min
	}
	if d.n == 0 || max > d.Max {
		d.Max = max
	}
	d.sum += sum
	d.n += n
	d.Mean = float64(d.sum) / float64(d.n)
}

// Cell aggregates all trials of one (protocol, graph, n, adversary, model)
// coordinate. In an exhaustive cell (adversary "exhaustive") the Rounds and
// BoardBits distributions range over every terminal schedule of every
// trial — the min/max are the best and worst the adversary can force — and
// Exhaustive carries the schedule-level tallies.
type Cell struct {
	Protocol       string          `json:"protocol"`
	Graph          string          `json:"graph"`
	N              int             `json:"n"`
	Adversary      string          `json:"adversary"`
	Model          string          `json:"model"`
	Runs           int             `json:"runs"`
	Success        int             `json:"success"`
	Deadlock       int             `json:"deadlock"`
	Failed         int             `json:"failed"`
	Rounds         Dist            `json:"rounds"`
	BoardBits      Dist            `json:"board_bits"`
	MaxMessageBits int             `json:"max_message_bits"`
	FirstError     string          `json:"first_error,omitempty"`
	Exhaustive     *ExhaustiveCell `json:"exhaustive,omitempty"`
}

// ExhaustiveCell tallies the schedule enumeration of an exhaustive cell,
// summed over the cell's trials. Success/Deadlock/Failed count schedules
// (the Cell's own counters count trials, where one bad schedule taints the
// whole trial); DistinctOutputs counts distinct successful outputs, summed
// per trial since different trials may enumerate different random graphs.
// Steps counts only unique simulated writes of the memoized walk, Classes
// the configuration classes visited, and StepsSaved the writes the
// schedule-tree walk would have added. Reports stored by the retired
// tree walk (spec memoize:false) count its writes in Steps and carry no
// Classes or StepsSaved; the schedule tallies are exact either way.
type ExhaustiveCell struct {
	Schedules       int  `json:"schedules"`
	Steps           int  `json:"steps"`
	Success         int  `json:"success"`
	Deadlock        int  `json:"deadlock"`
	Failed          int  `json:"failed"`
	DistinctOutputs int  `json:"distinct_outputs"`
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
	Classes         int  `json:"classes,omitempty"`
	StepsSaved      int  `json:"steps_saved,omitempty"`
}

// Totals sums outcome counts across all cells.
type Totals struct {
	Runs     int `json:"runs"`
	Success  int `json:"success"`
	Deadlock int `json:"deadlock"`
	Failed   int `json:"failed"`
}

// Report is a finished campaign. Every JSON-visible field is a pure
// function of the spec — wall time and worker count are deliberately
// excluded (json:"-") so that reports from different machines and worker
// counts are byte-identical and diffable.
type Report struct {
	Spec   Spec   `json:"spec"`
	Jobs   int    `json:"jobs"`
	Cells  []Cell `json:"cells"`
	Totals Totals `json:"totals"`

	Elapsed time.Duration `json:"-"`
	Workers int           `json:"-"`
}

// WriteJSON emits the report as indented JSON with a trailing newline.
func (r *Report) WriteJSON(w io.Writer) error {
	data, err := jsonindent.Marshal(r)
	if err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	_, err = w.Write(data)
	return err
}

// WriteCSV emits one row per cell in matrix order. Fields containing
// commas (e.g. adversary "scripted:3,1,2") are quoted per RFC 4180. The
// schedules/classes/steps_saved columns are 0 for sampled cells (and the
// latter two for naive exhaustive cells).
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"protocol", "graph", "n", "adversary", "model",
		"runs", "success", "deadlock", "failed",
		"rounds_min", "rounds_mean", "rounds_max",
		"board_bits_min", "board_bits_mean", "board_bits_max", "max_message_bits",
		"schedules", "classes", "steps_saved"}
	if err := cw.Write(header); err != nil {
		return err
	}
	for i := range r.Cells {
		c := &r.Cells[i]
		schedules, classes, stepsSaved := 0, 0, 0
		if c.Exhaustive != nil {
			schedules = c.Exhaustive.Schedules
			classes = c.Exhaustive.Classes
			stepsSaved = c.Exhaustive.StepsSaved
		}
		row := []string{c.Protocol, c.Graph, itoa(c.N), c.Adversary, c.Model,
			itoa(c.Runs), itoa(c.Success), itoa(c.Deadlock), itoa(c.Failed),
			itoa(c.Rounds.Min), FormatFloat(c.Rounds.Mean), itoa(c.Rounds.Max),
			itoa(c.BoardBits.Min), FormatFloat(c.BoardBits.Mean), itoa(c.BoardBits.Max),
			itoa(c.MaxMessageBits), itoa(schedules), itoa(classes), itoa(stepsSaved)}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func itoa(v int) string { return strconv.Itoa(v) }

// Render writes the report in the named representation — "json" (or "")
// and "csv" — through the same emitters the CLI uses, so an HTTP server
// and a local file land byte-identical bodies for the same report.
func (r *Report) Render(w io.Writer, format string) error {
	switch format {
	case "", "json":
		return r.WriteJSON(w)
	case "csv":
		return r.WriteCSV(w)
	default:
		return fmt.Errorf("campaign: unknown report format %q (want json or csv)", format)
	}
}

// Summary returns a one-line human summary for CLI output.
func (r *Report) Summary() string {
	rate := 0.0
	if r.Totals.Runs > 0 {
		rate = 100 * float64(r.Totals.Success) / float64(r.Totals.Runs)
	}
	return fmt.Sprintf("%d jobs over %d cells: %d success (%s%%), %d deadlock, %d failed (%d workers, %v)",
		r.Totals.Runs, len(r.Cells), r.Totals.Success, FormatFloat(rate), r.Totals.Deadlock, r.Totals.Failed,
		r.Workers, r.Elapsed.Round(time.Millisecond))
}
