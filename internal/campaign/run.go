package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/telemetry"
)

// Options tunes campaign execution. The zero value runs with GOMAXPROCS
// workers and no progress reporting.
type Options struct {
	// Workers is the number of worker goroutines; 0 means GOMAXPROCS.
	Workers int
	// OnCellDone, if set, is called once per cell the moment its last job
	// completes — from the completing worker's goroutine, so calls arrive in
	// completion order (not matrix order) and may be concurrent across
	// cells; the hook must be safe for concurrent use. The CellResult's Cell
	// is the one the report carries at the same Index, so a realtime
	// consumer (e.g. an event stream) and the report can never disagree. A
	// canceled sweep may have fired OnCellDone for cells it never reports.
	OnCellDone func(CellResult)
	// Metrics, when non-nil, receives worker occupancy, per-job counts, a
	// per-cell wall-time histogram, and (through its engine group) the
	// engine's run/exploration totals. telemetry.Nop disables all of it.
	Metrics *telemetry.CampaignMetrics
}

// CellResult is one completed cell of a sweep, as OnCellDone delivers it:
// the fully aggregated cell plus its coordinates in the spec's matrix
// order. The JSON tags are its wire shape on the server's per-cell event
// stream, where index/total are the consumer's matrix-position cursor.
type CellResult struct {
	// Index is the cell's position in matrix order (protocol → graph →
	// size → adversary → model), 0-based; Total is the sweep's cell count.
	Index int `json:"index"`
	Total int `json:"total"`
	// Jobs is the number of jobs (trials) aggregated into this cell.
	Jobs int `json:"jobs"`
	// Cell carries the aggregated statistics, identical to the cell the
	// report holds at this index.
	Cell Cell `json:"cell"`
}

// Runner executes campaign sweeps. The zero value is ready to use; NewRunner
// attaches Options. A Runner is stateless between sweeps and safe for
// concurrent use — each Run call owns its worker pool.
type Runner struct {
	opts Options
}

// NewRunner returns a Runner with the given options.
func NewRunner(opts Options) *Runner { return &Runner{opts: opts} }

// jobResult is the per-job record a worker hands to the aggregator. It is
// deliberately small: the worker copies these few ints out of the runner's
// reused Result before the next run overwrites it.
type jobResult struct {
	status    core.Status
	rounds    int
	boardBits int
	maxBits   int
	err       string
	// spectrum holds an exhaustive job's schedule tallies, nil if the job
	// died before its walk; budgetHit says the walk ran out of steps.
	spectrum  *engine.Spectrum
	budgetHit bool

	// start/dur time the job on its worker; cell spans and the cell
	// wall-time histogram are assembled from them after the fact.
	start time.Time
	dur   time.Duration
}

// Run expands the spec and executes every job on a sharded worker pool,
// returning the whole report; see Runner.Run for the contract.
func Run(spec Spec, opts Options) (*Report, error) {
	return NewRunner(opts).Run(context.Background(), spec)
}

// Run executes the sweep to completion and returns the whole report.
// Workers pull job indices from a shared atomic counter and write results
// into a slice indexed by job position; the worker that retires a cell's
// last job aggregates the cell in matrix order, stores it at its index and
// fires OnCellDone, so the report is identical for any worker count. Each
// worker owns one engine.Runner and one RNG, reused across all its jobs,
// and re-checks ctx between jobs: canceling ctx never interrupts a job
// mid-simulation but stops the sweep within one job per worker. A ctx
// canceled before the pool drains makes Run return the cancellation
// cause; no partial report is produced.
func (r *Runner) Run(ctx context.Context, spec Spec) (*Report, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	jobs := spec.Expand()
	numCells := spec.NumCells()
	// Expand lays jobs out with trials innermost, so every cell is one
	// contiguous job range [cellStart[c], cellStart[c+1]).
	cellStart := make([]int, numCells+1)
	for i, job := range jobs {
		cellStart[job.Cell+1] = i + 1
	}
	workers := r.opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	start := time.Now()
	results := make([]jobResult, len(jobs))
	remaining := make([]atomic.Int64, numCells)
	for c := range remaining {
		remaining[c].Store(int64(cellStart[c+1] - cellStart[c]))
	}
	cells := make([]Cell, numCells)
	var next, finished atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker is one "shard" span; the engine spans of its
			// exhaustive jobs nest under it.
			wctx, shard := telemetry.StartSpan(ctx, "shard")
			shard.SetAttr("worker", w)
			defer shard.End()
			ran := 0
			defer func() { shard.SetAttr("jobs", ran) }()
			m := r.opts.Metrics
			runner := engine.NewRunner()
			rng := rand.New(rand.NewSource(1)) // reseeded per job
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				jobStart := time.Now()
				results[i] = runJob(wctx, runner, rng, spec, jobs[i], m)
				results[i].start = jobStart
				results[i].dur = time.Since(jobStart)
				m.JobDone()
				ran++
				// The worker that retires a cell's last job sees every result
				// of the cell through the atomic remaining-counter chain. The
				// cell span is recorded under the sweep's context, not the
				// worker's, so its parent is the job span.
				c := jobs[i].Cell
				if remaining[c].Add(-1) != 0 {
					continue
				}
				lo, hi := cellStart[c], cellStart[c+1]
				cells[c] = aggregateCell(spec, jobs[lo:hi], results[lo:hi])
				recordCell(ctx, m, c, cells[c], results[lo:hi])
				finished.Add(1)
				if r.opts.OnCellDone != nil {
					r.opts.OnCellDone(CellResult{Index: c, Total: numCells, Jobs: hi - lo, Cell: cells[c]})
				}
			}
		}(w)
	}
	wg.Wait()
	// A canceled sweep has no partial result, only an error — also when the
	// cancellation raced the last cells to completion. A sweep that was not
	// canceled ran every job, so no cell is missing.
	if err := context.Cause(ctx); err != nil {
		return nil, fmt.Errorf("campaign: canceled after %d of %d cells: %w",
			finished.Load(), numCells, err)
	}

	rep := assembleReport(spec, len(jobs), cells)
	rep.Elapsed = time.Since(start)
	rep.Workers = workers
	return rep, nil
}

// recordCell emits one completed cell into the wall-time histogram and, if
// ctx carries a trace, a retroactive "cell" span. The cell's jobs ran spread
// over the pool, so its wall interval is min job start → max job end; the
// span is assembled after the fact rather than measured live. memo_hit_rate
// is the fraction of naive writes the configuration DAG collapsed away:
// stepsSaved / (steps + stepsSaved).
func recordCell(ctx context.Context, m *telemetry.CampaignMetrics, index int, cell Cell, results []jobResult) {
	start, end := time.Time{}, time.Time{}
	for i := range results {
		if results[i].start.IsZero() {
			continue
		}
		if start.IsZero() || results[i].start.Before(start) {
			start = results[i].start
		}
		if e := results[i].start.Add(results[i].dur); e.After(end) {
			end = e
		}
	}
	if start.IsZero() {
		return
	}
	wall := end.Sub(start).Seconds()
	m.CellDone(wall)
	attrs := map[string]any{
		"index":    index,
		"protocol": cell.Protocol,
		"graph":    cell.Graph,
		"n":        cell.N,
		"jobs":     len(results),
		"wall":     wall,
	}
	if e := cell.Exhaustive; e != nil {
		attrs["schedules"] = e.Schedules
		attrs["steps"] = e.Steps
		attrs["classes"] = e.Classes
		if total := e.Steps + e.StepsSaved; total > 0 {
			attrs["memo_hit_rate"] = float64(e.StepsSaved) / float64(total)
		}
	}
	telemetry.RecordSpan(ctx, "cell", start, end, attrs)
}

// runJob constructs the job's components from the registry and runs it:
// every schedule of an exhaustive job (runExhaustiveJob), or else one run
// against the job's adversary on the worker's reusable runner. The run
// records into m's engine group, and the scripts the job compiles into
// its scenario group. Construction errors (which Validate should have
// ruled out) and panics surface as Failed results rather than tearing
// down the pool.
func runJob(ctx context.Context, runner *engine.Runner, rng *rand.Rand, spec Spec, job Job, m *telemetry.CampaignMetrics) (jr jobResult) {
	defer func() {
		if r := recover(); r != nil {
			jr = jobResult{status: core.Failed, err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	// Each component gets its own salted sub-seed: a randomized protocol or
	// a "random" adversary seeded with the graph's seed would replay the
	// very PRNG stream that drew the graph's edges, correlating schedule
	// with structure.
	params := registry.Params{N: job.N, K: spec.K, P: spec.P, Seed: job.Seed, Script: spec.Script, Scenario: m.ScenarioMetrics()}
	rng.Seed(job.Seed)
	g, err := registry.NewGraph(job.Graph, params, rng)
	if err != nil {
		return jobResult{status: core.Failed, err: err.Error()}
	}
	// Some families adjust n (grid, polarity, two-cliques); protocols that
	// clamp against n (mis root) must see the real node count, as wbrun does.
	params.N = g.N()
	params.Seed = subSeed(job.Seed, 0x70726F746F636F6C) // "protocol"
	proto, err := registry.NewProtocol(job.Protocol, params)
	if err != nil {
		return jobResult{status: core.Failed, err: err.Error()}
	}
	model, err := registry.ParseModel(job.Model)
	if err != nil {
		return jobResult{status: core.Failed, err: err.Error()}
	}
	opts := engine.Options{Model: model, MaxRounds: spec.MaxRounds, Metrics: m.EngineMetrics()}
	if spec.Exhaustive() {
		return runExhaustiveJob(ctx, proto, g, opts, spec, job)
	}
	params.Seed = subSeed(job.Seed, 0x61647665727361) // "adversa"
	adv, err := registry.NewAdversary(job.Adversary, params)
	if err != nil {
		return jobResult{status: core.Failed, err: err.Error()}
	}
	res := runner.Run(proto, g, adv, opts)
	jr = jobResult{
		status:    res.Status,
		rounds:    res.Rounds,
		boardBits: res.Board.TotalBits(),
		maxBits:   res.MaxBits,
	}
	if res.Err != nil {
		jr.err = res.Err.Error()
	}
	return jr
}

// runExhaustiveJob enumerates every adversarial schedule of one graph
// instance (engine.OutputSpectrum) and keeps the spectrum for the cell.
// The job-level status renders the ∀-adversary verdict: Success only if
// *every* schedule succeeded within budget, Deadlock if some schedule
// deadlocked, Failed on any model violation, livelock, an exhausted step
// budget, or tallies too large to keep exact.
func runExhaustiveJob(ctx context.Context, proto core.Protocol, g *graph.Graph, opts engine.Options, spec Spec, job Job) jobResult {
	// Each exhaustive enumeration is one "engine" span under the worker's
	// shard span; the attrs mirror the job's traversal stats, zero if the
	// walk panicked.
	s := &engine.Spectrum{}
	engineStart := time.Now()
	defer func() {
		telemetry.RecordSpan(ctx, "engine", engineStart, time.Now(), map[string]any{
			"protocol":  job.Protocol,
			"graph":     job.Graph,
			"n":         job.N,
			"memoized":  true,
			"steps":     s.Steps,
			"classes":   s.Classes,
			"schedules": s.Schedules,
		})
	}()
	s, err := engine.OutputSpectrum(proto, g, opts, spec.MaxSteps)
	jr := jobResult{spectrum: s, maxBits: s.MaxMessageBits}
	switch {
	case errors.Is(err, engine.ErrBudget):
		jr.budgetHit = true
		jr.status = core.Failed
		jr.err = fmt.Sprintf("exhaustive budget of %d steps exhausted after %d schedules", spec.MaxSteps, s.Schedules)
	case err != nil:
		jr.status = core.Failed
		jr.err = err.Error()
	case s.Failures > 0:
		jr.status = core.Failed
		jr.err = fmt.Sprintf("%d of %d schedules violated a model constraint", s.Failures, s.Schedules)
	case s.Deadlocks > 0:
		jr.status = core.Deadlock
	default:
		jr.status = core.Success
	}
	return jr
}

// aggregateCell folds the job results of one cell — a contiguous slice of
// the expanded matrix — into its statistics, walking jobs in matrix order
// so the output is deterministic and identical for any worker count.
func aggregateCell(spec Spec, jobs []Job, results []jobResult) Cell {
	var cell Cell
	for i, job := range jobs {
		c := &cell
		if c.Runs == 0 {
			c.Protocol, c.Graph, c.Adversary = job.Protocol, job.Graph, job.Adversary
			c.Model, c.N = job.Model, job.N
			if spec.Exhaustive() {
				// Every exhaustive cell carries its block, even if all its
				// trials died before enumerating a single schedule.
				c.Exhaustive = &ExhaustiveCell{}
			}
		}
		r := results[i]
		c.Runs++
		switch r.status {
		case core.Success:
			c.Success++
		case core.Deadlock:
			c.Deadlock++
		case core.Failed:
			c.Failed++
			if c.FirstError == "" {
				c.FirstError = r.err
			}
		}
		switch {
		case r.spectrum != nil:
			// Exhaustive job: the cell dists range over terminal schedules.
			s, e := r.spectrum, c.Exhaustive
			e.Schedules += s.Schedules
			e.Steps += s.Steps
			e.Success += s.Success
			e.Deadlock += s.Deadlocks
			e.Failed += s.Failures
			e.DistinctOutputs += len(s.Outputs)
			e.BudgetExhausted = e.BudgetExhausted || r.budgetHit
			e.Classes += s.Classes
			e.StepsSaved += s.StepsSaved
			c.Rounds.merge(s.Rounds.Min, s.Rounds.Max, s.Rounds.Sum, int64(s.Schedules))
			c.BoardBits.merge(s.BoardBits.Min, s.BoardBits.Max, s.BoardBits.Sum, int64(s.Schedules))
		case spec.Exhaustive():
			// An exhaustive trial that died before enumeration (construction
			// error, panic) has no schedules; a synthetic 0-round sample
			// would corrupt the over-schedules distribution, so add nothing.
		default:
			c.Rounds.merge(r.rounds, r.rounds, int64(r.rounds), 1)
			c.BoardBits.merge(r.boardBits, r.boardBits, int64(r.boardBits), 1)
		}
		if r.maxBits > c.MaxMessageBits {
			c.MaxMessageBits = r.maxBits
		}
	}
	return cell
}

// AssembleReport builds the whole-campaign report from externally
// produced cells — the distributed fabric's merge step after it has
// collected every shard's stream. spec must describe the full matrix (a
// Cells range is rejected: shards are inputs here, not the product) and
// cells must be its complete cell list in matrix order. Because range
// runs produce cells byte-identical to a local run's, the assembled
// report is byte-identical to Run on the same spec.
func AssembleReport(spec Spec, cells []Cell) (*Report, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Cells != nil {
		return nil, fmt.Errorf("campaign: AssembleReport wants the full spec, not a cells range")
	}
	if len(cells) != spec.NumCells() {
		return nil, fmt.Errorf("campaign: AssembleReport: %d cells for a %d-cell spec", len(cells), spec.NumCells())
	}
	return assembleReport(spec, spec.NumCells()*spec.Seeds, cells), nil
}

// assembleReport wraps completed cells into the whole-campaign report,
// summing totals. Cells must be in matrix order and complete.
func assembleReport(spec Spec, jobs int, cells []Cell) *Report {
	rep := &Report{Spec: spec, Jobs: jobs, Cells: cells}
	for i := range cells {
		rep.Totals.Runs += cells[i].Runs
		rep.Totals.Success += cells[i].Success
		rep.Totals.Deadlock += cells[i].Deadlock
		rep.Totals.Failed += cells[i].Failed
	}
	return rep
}
