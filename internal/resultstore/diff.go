package resultstore

import (
	"fmt"
	"io"
	"strconv"

	"repro/internal/campaign"
	"repro/internal/jsonindent"
)

// FieldDelta is one changed statistic of one cell. Values are pre-rendered
// strings (floats through campaign.FormatFloat), so two deltas are equal
// exactly when their renderings are — formatting can never manufacture or
// mask a difference.
type FieldDelta struct {
	Field string `json:"field"`
	Old   string `json:"old"`
	New   string `json:"new"`
}

// CellDelta is one cell that differs between two reports, identified by
// its full coordinate. OnlyIn marks cells present in just one report
// (changed sweep axes); otherwise Fields lists the changed statistics.
type CellDelta struct {
	Protocol  string       `json:"protocol"`
	Graph     string       `json:"graph"`
	N         int          `json:"n"`
	Adversary string       `json:"adversary"`
	Model     string       `json:"model"`
	OnlyIn    string       `json:"only_in,omitempty"` // "old" or "new"
	Fields    []FieldDelta `json:"fields,omitempty"`
}

// coord renders the cell coordinate for text output.
func (c *CellDelta) coord() string {
	return fmt.Sprintf("%s/%s n=%d %s %s", c.Protocol, c.Graph, c.N, c.Adversary, c.Model)
}

// Diff is the cell-by-cell comparison of two reports of the same spec.
type Diff struct {
	OldRef        string      `json:"old_ref,omitempty"`
	NewRef        string      `json:"new_ref,omitempty"`
	CellsCompared int         `json:"cells_compared"`
	Deltas        []CellDelta `json:"deltas"`
}

// Empty reports whether the two reports agree on every shared cell and
// share every cell.
func (d *Diff) Empty() bool { return len(d.Deltas) == 0 }

// cellKey matches cells across reports by coordinate, not position, so a
// reordered or extended sweep still lines up.
func cellKey(c *campaign.Cell) string {
	return fmt.Sprintf("%s\x00%s\x00%d\x00%s\x00%s", c.Protocol, c.Graph, c.N, c.Adversary, c.Model)
}

// DiffReports compares two campaign reports cell by cell. Deltas follow the
// new report's cell order, with old-only cells appended in the old order;
// the result is deterministic for deterministic inputs.
func DiffReports(old, new *campaign.Report) *Diff {
	d := &Diff{Deltas: []CellDelta{}}
	oldByKey := make(map[string]*campaign.Cell, len(old.Cells))
	for i := range old.Cells {
		oldByKey[cellKey(&old.Cells[i])] = &old.Cells[i]
	}
	matched := make(map[string]bool, len(new.Cells))
	for i := range new.Cells {
		nc := &new.Cells[i]
		key := cellKey(nc)
		oc, ok := oldByKey[key]
		if !ok {
			d.Deltas = append(d.Deltas, CellDelta{
				Protocol: nc.Protocol, Graph: nc.Graph, N: nc.N,
				Adversary: nc.Adversary, Model: nc.Model, OnlyIn: "new",
			})
			continue
		}
		matched[key] = true
		d.CellsCompared++
		if fields := diffCell(oc, nc); len(fields) > 0 {
			d.Deltas = append(d.Deltas, CellDelta{
				Protocol: nc.Protocol, Graph: nc.Graph, N: nc.N,
				Adversary: nc.Adversary, Model: nc.Model, Fields: fields,
			})
		}
	}
	for i := range old.Cells {
		oc := &old.Cells[i]
		if !matched[cellKey(oc)] {
			d.Deltas = append(d.Deltas, CellDelta{
				Protocol: oc.Protocol, Graph: oc.Graph, N: oc.N,
				Adversary: oc.Adversary, Model: oc.Model, OnlyIn: "old",
			})
		}
	}
	return d
}

// diffCell lists the statistics on which two matched cells disagree.
func diffCell(o, n *campaign.Cell) []FieldDelta {
	var out []FieldDelta
	ints := func(field string, ov, nv int) {
		if ov != nv {
			out = append(out, FieldDelta{field, strconv.Itoa(ov), strconv.Itoa(nv)})
		}
	}
	floats := func(field string, ov, nv float64) {
		os, ns := campaign.FormatFloat(ov), campaign.FormatFloat(nv)
		if os != ns {
			out = append(out, FieldDelta{field, os, ns})
		}
	}
	ints("runs", o.Runs, n.Runs)
	ints("success", o.Success, n.Success)
	ints("deadlock", o.Deadlock, n.Deadlock)
	ints("failed", o.Failed, n.Failed)
	ints("rounds_min", o.Rounds.Min, n.Rounds.Min)
	floats("rounds_mean", o.Rounds.Mean, n.Rounds.Mean)
	ints("rounds_max", o.Rounds.Max, n.Rounds.Max)
	ints("board_bits_min", o.BoardBits.Min, n.BoardBits.Min)
	floats("board_bits_mean", o.BoardBits.Mean, n.BoardBits.Mean)
	ints("board_bits_max", o.BoardBits.Max, n.BoardBits.Max)
	ints("max_message_bits", o.MaxMessageBits, n.MaxMessageBits)
	if o.FirstError != n.FirstError {
		out = append(out, FieldDelta{"first_error", o.FirstError, n.FirstError})
	}
	oe, ne := o.Exhaustive, n.Exhaustive
	switch {
	case oe == nil && ne == nil:
	case oe == nil || ne == nil:
		out = append(out, FieldDelta{"exhaustive", strconv.FormatBool(oe != nil), strconv.FormatBool(ne != nil)})
	default:
		ints("schedules", oe.Schedules, ne.Schedules)
		ints("steps", oe.Steps, ne.Steps)
		ints("sched_success", oe.Success, ne.Success)
		ints("sched_deadlock", oe.Deadlock, ne.Deadlock)
		ints("sched_failed", oe.Failed, ne.Failed)
		ints("distinct_outputs", oe.DistinctOutputs, ne.DistinctOutputs)
		ints("classes", oe.Classes, ne.Classes)
		ints("steps_saved", oe.StepsSaved, ne.StepsSaved)
		if oe.BudgetExhausted != ne.BudgetExhausted {
			out = append(out, FieldDelta{"budget_exhausted",
				strconv.FormatBool(oe.BudgetExhausted), strconv.FormatBool(ne.BudgetExhausted)})
		}
	}
	return out
}

// WriteText renders the diff for terminals: a header, then one block per
// changed cell with aligned old → new lines. An empty diff renders a
// single reassuring line.
func (d *Diff) WriteText(w io.Writer) error {
	if d.Empty() {
		_, err := fmt.Fprintf(w, "no differences across %d cells (%s → %s)\n",
			d.CellsCompared, orDash(d.OldRef), orDash(d.NewRef))
		return err
	}
	if _, err := fmt.Fprintf(w, "%d of %d cells differ (%s → %s)\n",
		len(d.Deltas), d.CellsCompared+onlyCount(d.Deltas), orDash(d.OldRef), orDash(d.NewRef)); err != nil {
		return err
	}
	for i := range d.Deltas {
		c := &d.Deltas[i]
		if c.OnlyIn != "" {
			if _, err := fmt.Fprintf(w, "  %s: only in %s report\n", c.coord(), c.OnlyIn); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "  %s:\n", c.coord()); err != nil {
			return err
		}
		for _, f := range c.Fields {
			if _, err := fmt.Fprintf(w, "    %-18s %s -> %s\n", f.Field, f.Old, f.New); err != nil {
				return err
			}
		}
	}
	return nil
}

// onlyCount counts the deltas that are whole-cell additions/removals; they
// are not part of CellsCompared but belong in the denominator shown.
func onlyCount(deltas []CellDelta) int {
	n := 0
	for i := range deltas {
		if deltas[i].OnlyIn != "" {
			n++
		}
	}
	return n
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Render writes the diff in the named representation — "text" (or "") and
// "json" — mirroring campaign.Report.Render so every consumer shares the
// CLI's emitters.
func (d *Diff) Render(w io.Writer, format string) error {
	switch format {
	case "", "text":
		return d.WriteText(w)
	case "json":
		return d.WriteJSON(w)
	default:
		return fmt.Errorf("resultstore: unknown diff format %q (want text or json)", format)
	}
}

// WriteJSON emits the diff as indented JSON with a trailing newline.
func (d *Diff) WriteJSON(w io.Writer) error {
	data, err := jsonindent.Marshal(d)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	_, err = w.Write(data)
	return err
}
