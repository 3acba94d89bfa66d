// Package campaign is the public SDK for batch whiteboard simulation: a
// declarative Spec — protocol set × graph family × size sweep × adversary
// set × model override × seed range — expanded into a job matrix and
// executed on a sharded worker pool. It is the stable facade over
// repro/internal/campaign, in the style of the root whiteboard package:
// the CLI (cmd/wbcampaign), the HTTP job API (cmd/wbserve) and library
// consumers are three clients of this one API.
//
// Run produces the whole Report. Options.OnCellDone observes each cell
// the moment its last job finishes — in completion order, from the worker
// that finished it — so callers can render progress or fan results out
// while the sweep runs, and cancel it mid-sweep through RunContext's
// context:
//
//	rep, err := campaign.RunContext(ctx, spec, campaign.Options{
//		OnCellDone: func(cell campaign.CellResult) {
//			fmt.Println(cell.Index, cell.Cell.Protocol) // must be safe for concurrent use
//		},
//	})
//
// Reports are deterministic: the same spec produces byte-identical JSON
// and CSV regardless of worker count or completion order, because every
// job's seed derives from its coordinates, not scheduling order.
package campaign

import (
	"context"

	internal "repro/internal/campaign"
)

// Spec declares a campaign; see the field docs for the axes. The zero
// values of Seeds and Models are normalized to 1 and ["native"].
type Spec = internal.Spec

// Job is one simulation of the expanded matrix: a cell coordinate plus a
// trial index and the seed derived from them.
type Job = internal.Job

// Options tunes campaign execution: worker count, metrics, and the
// per-cell hook OnCellDone, which fires in completion order the moment a
// cell's last job retires (the realtime hook the server's SSE event
// stream is built on). The zero value runs with GOMAXPROCS workers.
type Options = internal.Options

// Runner executes sweeps; its Run returns the whole Report. Safe for
// concurrent use.
type Runner = internal.Runner

// CellResult is one completed cell of a sweep, as OnCellDone delivers it.
type CellResult = internal.CellResult

// CellRange is a half-open [Start, End) slice of a spec's cell matrix in
// matrix order; setting Spec.Cells to one restricts execution to that
// shard, with cells byte-identical to the same slice of a full run.
type CellRange = internal.CellRange

// Report is a finished campaign: the normalized spec, per-cell statistics
// and outcome totals, with deterministic JSON/CSV emitters.
type Report = internal.Report

// Cell aggregates all trials of one (protocol, graph, n, adversary,
// model) coordinate.
type Cell = internal.Cell

// Dist summarizes an integer distribution with exact accumulators.
type Dist = internal.Dist

// ExhaustiveCell tallies the schedule enumeration of an exhaustive cell.
type ExhaustiveCell = internal.ExhaustiveCell

// Totals sums outcome counts across all cells.
type Totals = internal.Totals

// ModeExhaustive is the Spec.Mode value requesting full schedule
// enumeration per cell instead of sampled adversaries.
const ModeExhaustive = internal.ModeExhaustive

// DefaultMaxSteps is the per-job write budget used when an exhaustive
// spec leaves MaxSteps at zero.
const DefaultMaxSteps = internal.DefaultMaxSteps

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner { return internal.NewRunner(opts) }

// Run expands the spec and executes every job, returning the whole
// report.
func Run(spec Spec, opts Options) (*Report, error) { return internal.Run(spec, opts) }

// RunContext is Run with a context: canceling ctx stops the sweep
// between jobs and returns the cancellation cause.
func RunContext(ctx context.Context, spec Spec, opts Options) (*Report, error) {
	return internal.NewRunner(opts).Run(ctx, spec)
}

// LoadSpec reads a Spec from a JSON file, rejecting unknown fields.
func LoadSpec(path string) (Spec, error) { return internal.LoadSpec(path) }

// AssembleReport builds a whole-campaign report from externally produced
// cells in matrix order — the merge step of a sharded (cell-range) run.
func AssembleReport(spec Spec, cells []Cell) (*Report, error) {
	return internal.AssembleReport(spec, cells)
}

// FormatFloat renders a float the way reports and diffs do, so external
// tooling can compare values without formatting churn.
func FormatFloat(v float64) string { return internal.FormatFloat(v) }
