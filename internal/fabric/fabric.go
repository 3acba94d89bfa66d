// Package fabric is the distributed campaign coordinator: it splits a
// campaign spec's cell matrix into contiguous shards, submits each shard
// as an ordinary v1 job (a spec carrying a cells range) to a pool of
// wbserve worker endpoints, follows each worker's per-cell SSE stream,
// and merges the cells back into deterministic matrix order. Because
// every job's seed derives from its coordinates — never from shard
// boundaries or scheduling — the assembled report is byte-identical to a
// local run of the same spec at any worker count and any shard
// assignment.
//
// The coordinator is failure-tolerant without giving up that guarantee.
// One goroutine per worker owns that worker's health, its shard attempts
// and the cancels of the jobs they submit. A worker counts as up until an
// attempt on it fails; the failed shard is re-queued and re-submitted,
// and the worker probes /healthz (with backoff) before it claims again.
// Idle workers steal long-in-flight shards. Overlapping attempts are safe
// because the merger dedups by absolute cell index — recomputing a cell
// always reproduces the same bytes, so the first copy wins and the rest
// are discarded. An attempt cancels its job unless the job's own stream
// carried the whole range, and waits (bounded) for the cancel request to
// return, so Run returns only once every job it started has streamed its
// range or been asked to stop. Progress is observable through the
// wb_fabric_* telemetry families.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/telemetry"
)

// Worker health states, as reported on the wb_fabric_workers gauge.
const (
	workerHealthy = "healthy"
	workerDown    = "down"
)

// pace is the coordinator's timing. poll paces an idle worker's wait for
// a claimable shard. probe is how long a down worker sits out before its
// next /healthz probe, doubling up to 8× while probes fail. stealAfter is
// how long a shard may be in flight on exactly one worker before an idle
// worker duplicates it, and workerTimeout fails the run once every worker
// has been down that long. Tests shorten it.
var pace = struct {
	poll, probe, stealAfter, workerTimeout time.Duration
}{
	poll:          150 * time.Millisecond,
	probe:         500 * time.Millisecond,
	stealAfter:    2 * time.Second,
	workerTimeout: 30 * time.Second,
}

// cancelTimeout bounds the request that cancels an attempt's job.
const cancelTimeout = 5 * time.Second

// Options configures a fleet run.
type Options struct {
	// Workers lists the wbserve base URLs to execute on; at least one.
	Workers []string
	// Shards is the number of contiguous cell-range shards to split the
	// matrix into; 0 means one per worker. Clamped to the cell count.
	Shards int
	// Metrics receives the wb_fabric_* series; nil disables recording.
	Metrics *telemetry.FabricMetrics
	// OnCellDone fires once per cell the moment the merger first receives
	// it, with Index and Total in the full matrix — the distributed
	// analogue of campaign.Options.OnCellDone. Calls arrive in merge order
	// (not matrix order) from the shard goroutines, outside the
	// coordinator's lock, and may be concurrent: the hook must be safe for
	// concurrent use.
	OnCellDone func(campaign.CellResult)
	// Logf receives coordinator progress lines (worker state changes,
	// resubmissions); nil discards them.
	Logf func(format string, args ...any)
	// HTTPClient overrides the HTTP client used for worker calls (tests).
	HTTPClient *http.Client
}

// Run executes a campaign across the worker fleet and returns the
// assembled report — byte-identical to campaign.Run of the same spec.
func Run(ctx context.Context, spec campaign.Spec, opts Options) (*campaign.Report, error) {
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Cells != nil {
		return nil, fmt.Errorf("fabric: the cells range belongs to the coordinator; submit the full spec")
	}
	if len(opts.Workers) == 0 {
		return nil, fmt.Errorf("fabric: no worker endpoints")
	}
	return newCoordinator(spec, opts).run(ctx)
}

// shard is one contiguous [start, end) slice of the cell matrix.
type shard struct {
	start, end int
	remaining  int       // cells of the range not yet merged
	attempts   int       // submissions so far (for the resubmission counter)
	failures   int       // failed attempts (abort guard)
	running    int       // attempts currently in flight
	queued     bool      // sitting in the pending queue
	done       bool      // every cell merged
	startedAt  time.Time // latest submission time (steal ordering)
}

// worker is one wbserve endpoint. Only its own loop writes downSince; the
// all-down watchdog of every loop reads it.
type worker struct {
	url       string
	c         *client.Client
	downSince atomic.Int64 // UnixNano when it went down; 0 while up
}

type coordinator struct {
	spec        campaign.Spec // normalized full spec; Cells always nil
	opts        Options
	tel         *telemetry.FabricMetrics
	maxFailures int

	workers []*worker
	total   int

	// stop ends the run's context: with nil once every cell is merged, or
	// with the error that fails the run.
	stop context.CancelCauseFunc

	mu       sync.Mutex
	cells    []campaign.Cell
	have     []bool
	received int
	shards   []*shard
	pending  []*shard
}

func newCoordinator(spec campaign.Spec, opts Options) *coordinator {
	co := &coordinator{
		spec:        spec,
		opts:        opts,
		tel:         opts.Metrics,
		maxFailures: 2*len(opts.Workers) + 4,
		total:       spec.NumCells(),
	}
	for _, u := range opts.Workers {
		co.workers = append(co.workers, &worker{
			url: u,
			c:   client.New(u, client.Options{HTTPClient: opts.HTTPClient}),
		})
		co.tel.WorkerState("", workerHealthy)
	}
	co.cells = make([]campaign.Cell, co.total)
	co.have = make([]bool, co.total)

	// Contiguous even split: the first total%k shards carry one extra
	// cell. k never exceeds the cell count, so no shard is empty.
	k := opts.Shards
	if k <= 0 {
		k = len(opts.Workers)
	}
	if k > co.total {
		k = co.total
	}
	size, extra := co.total/k, co.total%k
	start := 0
	for i := 0; i < k; i++ {
		end := start + size
		if i < extra {
			end++
		}
		sh := &shard{start: start, end: end, remaining: end - start, queued: true}
		co.shards = append(co.shards, sh)
		co.pending = append(co.pending, sh)
		start = end
	}
	return co
}

func (co *coordinator) logf(format string, args ...any) {
	if co.opts.Logf != nil {
		co.opts.Logf(format, args...)
	}
}

// run starts one loop per worker and returns once all of them have
// ended, which they do when the run's context does.
func (co *coordinator) run(ctx context.Context) (*campaign.Report, error) {
	start := time.Now()
	ctx, co.stop = context.WithCancelCause(ctx)
	defer co.stop(nil)
	var wg sync.WaitGroup
	for _, w := range co.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			co.workerLoop(ctx, w)
		}()
	}
	wg.Wait()
	if co.received < co.total {
		return nil, context.Cause(ctx)
	}
	rep, err := campaign.AssembleReport(co.spec, co.cells)
	if err != nil {
		return nil, err
	}
	rep.Elapsed = time.Since(start)
	rep.Workers = len(co.workers)
	return rep, nil
}

// workerLoop drives one worker until the run's context ends: claim a
// shard (pending first, then a steal), run it, settle the attempt,
// repeat. A failed attempt marks the worker down. A down worker sits out
// a probe interval before each /healthz probe and claims again once one
// answers; probing at once would let a worker whose /healthz answers but
// whose jobs fail reclaim its re-queued shard and spend every allowed
// attempt in a burst.
func (co *coordinator) workerLoop(ctx context.Context, w *worker) {
	backoff := pace.probe
	for ctx.Err() == nil {
		if w.downSince.Load() != 0 {
			wait(ctx, backoff)
			pctx, cancel := context.WithTimeout(ctx, 4*pace.probe)
			err := w.c.Health(pctx)
			cancel()
			if err != nil {
				backoff = min(2*backoff, 8*pace.probe)
				if co.allDownFor(pace.workerTimeout) {
					co.stop(fmt.Errorf("fabric: every worker unhealthy for %s", pace.workerTimeout))
				}
				continue
			}
			co.setHealth(w, nil)
			backoff = pace.probe
		}
		sh := co.claimShard()
		if sh == nil {
			wait(ctx, pace.poll)
			continue
		}
		if err := co.runShard(ctx, w, sh); co.settle(sh, w, err) && ctx.Err() == nil {
			co.setHealth(w, err)
		}
	}
}

// wait sleeps for d or until ctx ends.
func wait(ctx context.Context, d time.Duration) {
	select {
	case <-ctx.Done():
	case <-time.After(d):
	}
}

// setHealth marks w down after err, or up when err is nil, keeping the
// labeled gauge consistent. Only w's own loop calls it.
func (co *coordinator) setHealth(w *worker, err error) {
	if (w.downSince.Load() != 0) == (err != nil) {
		return
	}
	if err != nil {
		w.downSince.Store(time.Now().UnixNano())
		co.tel.WorkerState(workerHealthy, workerDown)
		co.logf("fabric: worker %s down: %v", w.url, err)
		return
	}
	w.downSince.Store(0)
	co.tel.WorkerState(workerDown, workerHealthy)
	co.logf("fabric: worker %s healthy", w.url)
}

// allDownFor reports whether every worker has been down for longer than d:
// with no path to progress, the run fails bounded instead of spinning
// until the caller's deadline.
func (co *coordinator) allDownFor(d time.Duration) bool {
	for _, w := range co.workers {
		since := w.downSince.Load()
		if since == 0 || time.Since(time.Unix(0, since)) <= d {
			return false
		}
	}
	return true
}

// claimShard pops the pending queue, or — when it is empty — steals the
// longest-in-flight shard that only one worker is working on, bounding
// duplicate compute to one extra attempt per shard at a time.
func (co *coordinator) claimShard() *shard {
	co.mu.Lock()
	defer co.mu.Unlock()
	var sh *shard
	if len(co.pending) > 0 {
		sh, co.pending = co.pending[0], co.pending[1:]
		sh.queued = false
	} else {
		for _, s := range co.shards {
			if s.done || s.running != 1 || time.Since(s.startedAt) < pace.stealAfter {
				continue
			}
			if sh == nil || s.startedAt.Before(sh.startedAt) {
				sh = s
			}
		}
		if sh == nil {
			return nil
		}
	}
	sh.running++
	sh.attempts++
	sh.startedAt = time.Now()
	if sh.attempts > 1 {
		co.tel.Resubmitted()
		co.logf("fabric: resubmitting shard [%d,%d) (attempt %d)", sh.start, sh.end, sh.attempts)
	}
	return sh
}

// settle books the end of one shard attempt and reports whether it
// failed a shard that is still incomplete. Such a shard is re-queued, and
// a shard that keeps failing aborts the run instead of cycling forever.
func (co *coordinator) settle(sh *shard, w *worker, err error) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	sh.running--
	if err == nil || sh.done {
		return false
	}
	sh.failures++
	co.logf("fabric: shard [%d,%d) attempt on %s failed: %v", sh.start, sh.end, w.url, err)
	// A spec the server rejects as malformed is permanently rejected:
	// every worker compiles the same source, so retrying or re-routing a
	// bad_script (or any bad-request-class) refusal would just burn
	// maxFailures attempts reaching the same answer.
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Code {
		case "bad_script", "bad_spec", "bad_request", "bad_label":
			co.stop(fmt.Errorf("fabric: shard [%d,%d) rejected by %s: %w", sh.start, sh.end, w.url, err))
			return true
		}
	}
	if sh.failures >= co.maxFailures {
		co.stop(fmt.Errorf("fabric: shard [%d,%d) failed %d attempts, last on %s: %w",
			sh.start, sh.end, sh.failures, w.url, err))
		return true
	}
	if !sh.queued && sh.running == 0 {
		sh.queued = true
		co.pending = append(co.pending, sh)
	}
	return true
}

// runShard executes one shard attempt on one worker: submit the
// cell-range job and merge its per-cell stream. The stream is the only
// transport — client.Events already resumes a dropped connection without
// loss — so a stream that fails for good fails the attempt, and settle
// re-queues the shard.
func (co *coordinator) runShard(ctx context.Context, w *worker, sh *shard) error {
	co.tel.ShardInFlight(1)
	defer co.tel.ShardInFlight(-1)

	n := sh.end - sh.start
	shardSpec := co.spec
	shardSpec.Cells = &campaign.CellRange{Start: sh.start, End: sh.end}
	job, err := w.c.Submit(ctx, shardSpec, "")
	if err != nil {
		return err
	}
	// A job whose own stream carried the whole range ends by itself; any
	// other is an orphan or a losing duplicate still computing, so it is
	// canceled on the way out. The request outlives ctx, whose end may be
	// what stopped the attempt, and a job already terminal answers 409.
	streamed := 0
	defer func() {
		if streamed < n {
			cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cancelTimeout)
			defer cancel()
			w.c.Cancel(cctx, job.ID) //nolint:errcheck // best effort
		}
	}()
	if job.CellsTotal != n {
		return fmt.Errorf("fabric: worker %s expanded shard [%d,%d) to %d cells",
			w.url, sh.start, sh.end, job.CellsTotal)
	}

	for ev, err := range w.c.Events(ctx, job.ID, 0) {
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("fabric: shard [%d,%d) job %s on %s: stream lost: %w",
				sh.start, sh.end, job.ID, w.url, err)
		}
		switch ev.Type {
		case "cell":
			// A range run rebases its cursor to the shard; anything else would
			// index past the matrix or land in another shard's cells.
			cr := *ev.Cell
			if cr.Index < 0 || cr.Index >= n || cr.Total != n {
				return fmt.Errorf("fabric: worker %s sent cell index %d of %d for shard [%d,%d) of %d cells",
					w.url, cr.Index, cr.Total, sh.start, sh.end, n)
			}
			streamed++
			cr.Index += sh.start
			cr.Total = co.total
			if co.deliver(sh, cr) {
				// Every cell of the range is merged, possibly by a concurrent
				// (stolen or resubmitted) attempt.
				return nil
			}
		case "state":
			// Every cell frame precedes the state frame, so a range that
			// streamed completely has returned above.
			return fmt.Errorf("fabric: shard [%d,%d) job %s on %s ended %s before its stream covered the range: %s",
				sh.start, sh.end, job.ID, w.url, ev.Job.State, ev.Job.Error)
		}
	}
	return fmt.Errorf("fabric: shard [%d,%d) job %s on %s: stream ended without a terminal frame",
		sh.start, sh.end, job.ID, w.url)
}

// deliver merges one cell of sh at its absolute matrix index, reports it
// to OnCellDone outside the lock, and says whether sh is now complete.
// Duplicates from overlapping shard attempts are discarded
// (recomputation is deterministic, so the first copy is the only copy
// needed). The cell that completes the matrix ends the run.
func (co *coordinator) deliver(sh *shard, cr campaign.CellResult) bool {
	co.mu.Lock()
	if co.have[cr.Index] {
		done := sh.done
		co.mu.Unlock()
		co.tel.CellDeduped()
		return done
	}
	co.have[cr.Index] = true
	co.cells[cr.Index] = cr.Cell
	co.received++
	sh.remaining--
	sh.done = sh.remaining == 0
	done, finished := sh.done, co.received == co.total
	co.mu.Unlock()
	if co.opts.OnCellDone != nil {
		co.opts.OnCellDone(cr)
	}
	if finished {
		co.stop(nil)
	}
	return done
}
