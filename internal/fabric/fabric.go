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
// The coordinator is failure-tolerant without giving up that guarantee:
// a /healthz probe loop (with backoff) tracks worker state, shards from
// failed workers are re-queued and re-submitted, and idle workers steal
// long-in-flight shards. Overlapping attempts are safe because the
// merger dedups by absolute cell index — recomputing a cell always
// reproduces the same bytes, so the first copy wins and the rest are
// discarded. Progress is observable through the wb_fabric_* telemetry
// families.
package fabric

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
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

	// PollInterval paces idle waits for a claimable shard and the
	// all-workers-down watchdog; 0 means 150ms.
	PollInterval time.Duration
	// ProbeInterval paces the per-worker /healthz loop; 0 means 500ms.
	// Failing probes back off exponentially up to 8× this interval.
	ProbeInterval time.Duration
	// StealAfter is how long a shard may be in flight on exactly one
	// worker before an idle worker duplicates it; 0 means 2s.
	StealAfter time.Duration
	// WorkerTimeout fails the run when every worker has been unhealthy
	// for this long; 0 means 30s.
	WorkerTimeout time.Duration
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

// worker is one wbserve endpoint plus its probed health state.
type worker struct {
	url string
	c   *client.Client

	mu    sync.Mutex
	state string // "", workerHealthy or workerDown
}

func (w *worker) healthy() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.state == workerHealthy
}

// setState moves the worker between health states, keeping the labeled
// gauge consistent; it reports whether the state changed.
func (w *worker) setState(state string, tel *telemetry.FabricMetrics) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.state == state {
		return false
	}
	tel.WorkerState(w.state, state)
	w.state = state
	return true
}

type coordinator struct {
	spec campaign.Spec // normalized full spec; Cells always nil
	opts Options
	tel  *telemetry.FabricMetrics

	poll, probe, stealAfter, workerTimeout time.Duration
	maxFailures                            int

	workers []*worker
	total   int

	mu       sync.Mutex
	cells    []campaign.Cell
	have     []bool
	received int
	shards   []*shard
	pending  []*shard

	doneCh   chan struct{}
	failOnce sync.Once
	failCh   chan struct{}
	failErr  error
}

func newCoordinator(spec campaign.Spec, opts Options) *coordinator {
	co := &coordinator{
		spec:          spec,
		opts:          opts,
		tel:           opts.Metrics,
		poll:          orDefault(opts.PollInterval, 150*time.Millisecond),
		probe:         orDefault(opts.ProbeInterval, 500*time.Millisecond),
		stealAfter:    orDefault(opts.StealAfter, 2*time.Second),
		workerTimeout: orDefault(opts.WorkerTimeout, 30*time.Second),
		maxFailures:   2*len(opts.Workers) + 4,
		total:         spec.NumCells(),
		doneCh:        make(chan struct{}),
		failCh:        make(chan struct{}),
	}
	for _, u := range opts.Workers {
		co.workers = append(co.workers, &worker{
			url: u,
			c:   client.New(u, client.Options{HTTPClient: opts.HTTPClient}),
		})
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

func orDefault(d, def time.Duration) time.Duration {
	if d <= 0 {
		return def
	}
	return d
}

func (co *coordinator) logf(format string, args ...any) {
	if co.opts.Logf != nil {
		co.opts.Logf(format, args...)
	}
}

func (co *coordinator) run(ctx context.Context) (*campaign.Report, error) {
	ctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	for _, w := range co.workers {
		wg.Add(2)
		go func(w *worker) { defer wg.Done(); co.probeLoop(ctx, w) }(w)
		go func(w *worker) { defer wg.Done(); co.workerLoop(ctx, w) }(w)
	}
	stop := func() {
		cancel()
		wg.Wait()
	}

	var downSince time.Time
	for {
		select {
		case <-co.doneCh:
			stop()
			return campaign.AssembleReport(co.spec, co.cells)
		case <-co.failCh:
			stop()
			return nil, co.failErr
		case <-ctx.Done():
			stop()
			return nil, ctx.Err()
		case <-time.After(co.poll):
			// Watchdog: with every worker down there is no path to progress;
			// fail bounded instead of spinning until the caller's deadline.
			if co.anyHealthy() {
				downSince = time.Time{}
				continue
			}
			if downSince.IsZero() {
				downSince = time.Now()
			} else if time.Since(downSince) > co.workerTimeout {
				co.fail(fmt.Errorf("fabric: every worker unhealthy for %s", co.workerTimeout))
			}
		}
	}
}

func (co *coordinator) anyHealthy() bool {
	for _, w := range co.workers {
		if w.healthy() {
			return true
		}
	}
	return false
}

func (co *coordinator) fail(err error) {
	co.failOnce.Do(func() {
		co.failErr = err
		close(co.failCh)
	})
}

func (co *coordinator) finished() bool {
	select {
	case <-co.doneCh:
		return true
	case <-co.failCh:
		return true
	default:
		return false
	}
}

// probeLoop tracks one worker's health via /healthz, backing off while
// it stays down so a dead endpoint costs a bounded trickle of probes.
func (co *coordinator) probeLoop(ctx context.Context, w *worker) {
	interval := co.probe
	for ctx.Err() == nil {
		pctx, cancel := context.WithTimeout(ctx, 4*co.probe)
		err := w.c.Health(pctx)
		cancel()
		if err == nil {
			if w.setState(workerHealthy, co.tel) {
				co.logf("fabric: worker %s healthy", w.url)
			}
			interval = co.probe
		} else {
			if w.setState(workerDown, co.tel) {
				co.logf("fabric: worker %s down: %v", w.url, err)
			}
			interval = min(2*interval, 8*co.probe)
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(interval):
		}
	}
}

// workerLoop drives one worker: claim a shard (pending first, then a
// steal), run it to completion, settle the attempt, repeat.
func (co *coordinator) workerLoop(ctx context.Context, w *worker) {
	for ctx.Err() == nil && !co.finished() {
		if !w.healthy() {
			co.idle(ctx)
			continue
		}
		sh := co.claimShard()
		if sh == nil {
			co.idle(ctx)
			continue
		}
		co.settle(sh, w, co.runShard(ctx, w, sh))
	}
}

func (co *coordinator) idle(ctx context.Context) {
	select {
	case <-ctx.Done():
	case <-co.doneCh:
	case <-co.failCh:
	case <-time.After(co.poll):
	}
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
			if s.done || s.running != 1 || time.Since(s.startedAt) < co.stealAfter {
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

// settle books the end of one shard attempt: a failure on a shard that
// is still incomplete marks the worker down and re-queues the shard, and
// a shard that keeps failing aborts the run instead of cycling forever.
func (co *coordinator) settle(sh *shard, w *worker, err error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	sh.running--
	if err == nil || sh.done {
		return
	}
	sh.failures++
	co.logf("fabric: shard [%d,%d) attempt on %s failed: %v", sh.start, sh.end, w.url, err)
	// The failed attempt is evidence the worker is unhealthy: take it out
	// of scheduling now rather than at its next probe, or its loop could
	// reclaim the re-queued shard and spend every allowed attempt inside
	// one probe interval. The probe loop brings it back once it answers.
	if !errors.Is(err, context.Canceled) && w.setState(workerDown, co.tel) {
		co.logf("fabric: worker %s down: %v", w.url, err)
	}
	// A spec the server rejects as malformed is permanently rejected:
	// every worker compiles the same source, so retrying or re-routing a
	// bad_script (or any bad-request-class) refusal would just burn
	// maxFailures attempts reaching the same answer.
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		switch apiErr.Code {
		case "bad_script", "bad_spec", "bad_request", "bad_label":
			co.fail(fmt.Errorf("fabric: shard [%d,%d) rejected by %s: %w", sh.start, sh.end, w.url, err))
			return
		}
	}
	if sh.failures >= co.maxFailures {
		co.fail(fmt.Errorf("fabric: shard [%d,%d) failed %d attempts, last on %s: %w",
			sh.start, sh.end, sh.failures, w.url, err))
		return
	}
	if !sh.queued && sh.running == 0 {
		sh.queued = true
		co.pending = append(co.pending, sh)
	}
}

// runShard executes one shard attempt on one worker: submit the
// cell-range job and merge its per-cell stream. The stream is the only
// transport — client.Events already resumes a dropped connection without
// loss — so a stream that fails for good fails the attempt: the orphaned
// job is canceled and settle re-queues the shard.
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
	if job.CellsTotal != n {
		w.cancelJobAsync(job.ID)
		return fmt.Errorf("fabric: worker %s expanded shard [%d,%d) to %d cells",
			w.url, sh.start, sh.end, job.CellsTotal)
	}

	for ev, err := range w.c.Events(ctx, job.ID, 0) {
		if err != nil {
			w.cancelJobAsync(job.ID)
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
				w.cancelJobAsync(job.ID)
				return fmt.Errorf("fabric: worker %s sent cell index %d of %d for shard [%d,%d) of %d cells",
					w.url, cr.Index, cr.Total, sh.start, sh.end, n)
			}
			cr.Index += sh.start
			cr.Total = co.total
			co.deliver(cr)
			if co.shardDone(sh) {
				// Every cell of the range is merged, possibly by a concurrent
				// (stolen or resubmitted) attempt; stop this worker's copy.
				w.cancelJobAsync(job.ID)
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

// cancelJobAsync best-effort cancels a worker-side job without blocking
// the coordinator; already-terminal jobs answer 409, which is fine.
func (w *worker) cancelJobAsync(id string) {
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.c.Cancel(ctx, id) //nolint:errcheck // best effort
	}()
}

func (co *coordinator) shardDone(sh *shard) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return sh.done
}

// deliver merges one cell at its absolute matrix index and reports it to
// OnCellDone outside the lock. Duplicates from overlapping shard attempts
// are discarded (recomputation is deterministic, so the first copy is the
// only copy needed).
func (co *coordinator) deliver(cr campaign.CellResult) {
	co.mu.Lock()
	if co.have[cr.Index] {
		co.mu.Unlock()
		co.tel.CellDeduped()
		return
	}
	co.have[cr.Index] = true
	co.cells[cr.Index] = cr.Cell
	co.received++
	for _, sh := range co.shards {
		if cr.Index >= sh.start && cr.Index < sh.end {
			sh.remaining--
			if sh.remaining == 0 {
				sh.done = true
			}
			break
		}
	}
	finished := co.received == co.total
	co.mu.Unlock()
	if co.opts.OnCellDone != nil {
		co.opts.OnCellDone(cr)
	}
	if finished {
		close(co.doneCh)
	}
}
