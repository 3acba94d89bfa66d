package campaign

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
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

// jobResult is the per-run record a worker hands to the aggregator. It is
// deliberately small: the worker copies these few ints out of the runner's
// reused Result before the next run overwrites it.
type jobResult struct {
	status    core.Status
	rounds    int
	boardBits int
	maxBits   int
	err       string
	sched     *schedStats // exhaustive jobs only

	// start/dur time the job on its worker; cell spans and the cell
	// wall-time histogram are assembled from them after the fact.
	start time.Time
	dur   time.Duration
}

// schedStats aggregates every terminal schedule of one exhaustive job
// (one graph instance enumerated exhaustively). The min/max/sum
// accumulators feed the cell's Rounds/BoardBits distributions, so in
// exhaustive cells those dists range over schedules, not trials. Each
// terminal configuration class is folded once with its exact schedule
// multiplicity as the weight, which reproduces a per-schedule accumulation
// bit for bit.
type schedStats struct {
	schedules int
	steps     int
	success   int
	deadlock  int
	failed    int
	outputs   int // distinct successful outputs
	budgetHit bool

	classes    int // configuration classes visited
	stepsSaved int // writes the schedule-tree walk would have added

	roundsMin, roundsMax int
	roundsSum            int64
	bitsMin, bitsMax     int
	bitsSum              int64
	maxBitsOnBoard       int // largest single message across all terminal boards

	// overflow records that an integer tally would have wrapped. Memoized
	// walks reach schedule counts far beyond the step budget (that is
	// their point), and each per-class multiplicity fitting an int does
	// not mean their *sum* does; a cell whose exact tallies are not
	// representable must fail loudly, never report wrapped numbers.
	overflow bool
}

// addCount adds weight to an int tally, tripping overflow instead of
// wrapping.
func (ss *schedStats) addCount(counter *int, weight int) {
	if *counter > int(^uint(0)>>1)-weight {
		ss.overflow = true
		return
	}
	*counter += weight
}

// addWeighted folds v*weight into an int64 accumulator, tripping
// overflow instead of wrapping.
func (ss *schedStats) addWeighted(sum *int64, v, weight int) {
	const maxInt64 = int64(^uint64(0) >> 1)
	if v > 0 && int64(weight) > maxInt64/int64(v) {
		ss.overflow = true
		return
	}
	add := int64(v) * int64(weight)
	if *sum > maxInt64-add {
		ss.overflow = true
		return
	}
	*sum += add
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
			em := m.EngineMetrics()
			runner := engine.NewRunner()
			rng := rand.New(rand.NewSource(1)) // reseeded per job
			for ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= len(jobs) {
					return
				}
				jobStart := time.Now()
				if spec.Exhaustive() {
					results[i] = runExhaustiveJob(wctx, rng, spec, jobs[i], em)
				} else {
					results[i] = runJob(runner, rng, spec, jobs[i], em)
				}
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

// runJob constructs the job's components from the registry and executes one
// run on the worker's reusable runner. Construction errors (which Validate
// should have ruled out) and panics surface as Failed results rather than
// tearing down the pool.
func runJob(runner *engine.Runner, rng *rand.Rand, spec Spec, job Job, em *telemetry.EngineMetrics) (jr jobResult) {
	defer func() {
		if r := recover(); r != nil {
			jr = jobResult{status: core.Failed, err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	// Each component gets its own salted sub-seed: a randomized protocol or
	// a "random" adversary seeded with the graph's seed would replay the
	// very PRNG stream that drew the graph's edges, correlating schedule
	// with structure.
	params := registry.Params{N: job.N, K: spec.K, P: spec.P, Seed: job.Seed, Script: spec.Script}
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
	params.Seed = subSeed(job.Seed, 0x61647665727361) // "adversa"
	adv, err := registry.NewAdversary(job.Adversary, params)
	if err != nil {
		return jobResult{status: core.Failed, err: err.Error()}
	}
	model, err := registry.ParseModel(job.Model)
	if err != nil {
		return jobResult{status: core.Failed, err: err.Error()}
	}
	res := runner.Run(proto, g, adv, engine.Options{Model: model, MaxRounds: spec.MaxRounds, Metrics: em})
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
// instance through the memoized configuration DAG (engine.RunAllMemo) and
// folds the terminal results, weighted by their exact schedule
// multiplicities, into schedule statistics. The job-level status renders
// the ∀-adversary verdict: Success only if *every* schedule succeeded
// within budget, Deadlock if some schedule deadlocked, Failed on any model
// violation, livelock, or an exhausted step budget.
func runExhaustiveJob(ctx context.Context, rng *rand.Rand, spec Spec, job Job, em *telemetry.EngineMetrics) (jr jobResult) {
	defer func() {
		if r := recover(); r != nil {
			jr = jobResult{status: core.Failed, err: fmt.Sprintf("panic: %v", r)}
		}
	}()
	params := registry.Params{N: job.N, K: spec.K, P: spec.P, Seed: job.Seed}
	rng.Seed(job.Seed)
	g, err := registry.NewGraph(job.Graph, params, rng)
	if err != nil {
		return jobResult{status: core.Failed, err: err.Error()}
	}
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

	ss := &schedStats{roundsMin: int(^uint(0) >> 1), bitsMin: int(^uint(0) >> 1)}
	// Distinct outputs are counted by their rendering, made in one reused
	// buffer; only an output not seen before becomes a key string.
	outputs := map[string]struct{}{}
	var render []byte
	tally := func(res *core.Result, weight int) {
		ss.addCount(&ss.schedules, weight)
		switch res.Status {
		case core.Success:
			ss.addCount(&ss.success, weight)
			render = fmt.Appendf(render[:0], "%v", res.Output)
			if _, ok := outputs[string(render)]; !ok {
				outputs[string(render)] = struct{}{}
			}
		case core.Deadlock:
			ss.addCount(&ss.deadlock, weight)
		default:
			ss.addCount(&ss.failed, weight)
		}
		ss.addSchedule(res, weight)
	}
	// Each exhaustive enumeration is one "engine" span under the worker's
	// shard span; the attrs mirror the job's traversal stats.
	engineStart := time.Now()
	defer func() {
		telemetry.RecordSpan(ctx, "engine", engineStart, time.Now(), map[string]any{
			"protocol":  job.Protocol,
			"graph":     job.Graph,
			"n":         job.N,
			"memoized":  true,
			"steps":     ss.steps,
			"classes":   ss.classes,
			"schedules": ss.schedules,
		})
	}()
	mstats, runErr := engine.RunAllMemo(proto, g,
		engine.Options{Model: model, MaxRounds: spec.MaxRounds, Metrics: em}, spec.MaxSteps,
		func(res *core.Result, mult *big.Int) error {
			w, err := engine.IntFromBig(mult)
			if err != nil {
				return err
			}
			tally(res, w)
			return nil
		})
	ss.steps = mstats.Steps
	ss.classes = mstats.Classes
	ss.stepsSaved = mstats.StepsSaved()
	ss.outputs = len(outputs)

	// The cell's round/bit dists are fed from ss by aggregate; only maxBits
	// rides the shared jobResult field.
	jr = jobResult{sched: ss, maxBits: ss.maxBitsOnBoard}
	switch {
	case ss.overflow:
		jr.status = core.Failed
		jr.err = "exhaustive tallies exceed integer range (schedule multiplicities too large to aggregate exactly)"
	case errors.Is(runErr, engine.ErrBudget):
		ss.budgetHit = true
		jr.status = core.Failed
		jr.err = fmt.Sprintf("exhaustive budget of %d steps exhausted after %d schedules", spec.MaxSteps, ss.schedules)
	case runErr != nil:
		jr.status = core.Failed
		jr.err = runErr.Error()
	case ss.failed > 0:
		jr.status = core.Failed
		jr.err = fmt.Sprintf("%d of %d schedules violated a model constraint", ss.failed, ss.schedules)
	case ss.deadlock > 0:
		jr.status = core.Deadlock
	default:
		jr.status = core.Success
	}
	return jr
}

// addSchedule folds one terminal result, standing for weight identical
// schedules, into the accumulators.
func (ss *schedStats) addSchedule(res *core.Result, weight int) {
	r := res.Rounds
	if r < ss.roundsMin {
		ss.roundsMin = r
	}
	if r > ss.roundsMax {
		ss.roundsMax = r
	}
	ss.addWeighted(&ss.roundsSum, r, weight)
	bits := res.Board.TotalBits()
	if bits < ss.bitsMin {
		ss.bitsMin = bits
	}
	if bits > ss.bitsMax {
		ss.bitsMax = bits
	}
	ss.addWeighted(&ss.bitsSum, bits, weight)
	for i := 0; i < res.Board.Len(); i++ {
		if b := res.Board.At(i).Bits; b > ss.maxBitsOnBoard {
			ss.maxBitsOnBoard = b
		}
	}
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
			c.Rounds = newDist()
			c.BoardBits = newDist()
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
		case r.sched != nil:
			// Exhaustive job: the cell dists range over terminal schedules.
			e := c.Exhaustive
			e.Schedules += r.sched.schedules
			e.Steps += r.sched.steps
			e.Success += r.sched.success
			e.Deadlock += r.sched.deadlock
			e.Failed += r.sched.failed
			e.DistinctOutputs += r.sched.outputs
			e.BudgetExhausted = e.BudgetExhausted || r.sched.budgetHit
			e.Classes += r.sched.classes
			e.StepsSaved += r.sched.stepsSaved
			c.Rounds.merge(r.sched.roundsMin, r.sched.roundsMax, r.sched.roundsSum, int64(r.sched.schedules))
			c.BoardBits.merge(r.sched.bitsMin, r.sched.bitsMax, r.sched.bitsSum, int64(r.sched.schedules))
		case spec.Exhaustive():
			// An exhaustive trial that died before enumeration (construction
			// error, panic) has no schedules; a synthetic 0-round sample
			// would corrupt the over-schedules distribution, so add nothing.
		default:
			c.Rounds.add(r.rounds)
			c.BoardBits.add(r.boardBits)
		}
		if r.maxBits > c.MaxMessageBits {
			c.MaxMessageBits = r.maxBits
		}
	}
	// An exhaustive cell whose budget died before the first terminal
	// schedule has empty dists; zero them so the sentinel min (maxint)
	// never reaches a report.
	if cell.Rounds.n == 0 {
		cell.Rounds = Dist{}
	}
	if cell.BoardBits.n == 0 {
		cell.BoardBits = Dist{}
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
