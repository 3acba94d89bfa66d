package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/jsonindent"
	"repro/internal/resultstore"
	"repro/internal/scenario"
	"repro/internal/telemetry"
)

// Job states. A job is running from the moment it is accepted (there is
// no queue: every job gets its own campaign worker pool immediately) and
// ends in exactly one of done, failed or canceled.
const (
	jobRunning  = "running"
	jobDone     = "done"
	jobFailed   = "failed"
	jobCanceled = "canceled"
)

// campaignJob is one submitted campaign execution. Mutable fields are
// guarded by mu; the identity fields are set once at submission.
type campaignJob struct {
	id       string
	spec     campaign.Spec // normalized
	specHash string
	label    string
	cancel   context.CancelFunc
	done     chan struct{} // closed when the runner goroutine exits
	events   *eventHub     // realtime per-cell result stream (SSE fan-out)

	mu         sync.Mutex
	state      string
	cellsDone  int
	cellsTotal int
	jobsDone   int
	jobsTotal  int
	errMsg     string
	ref        string // stored report ref once done
}

// jobStatus is the JSON view of a job, served by the status and listing
// routes. Progress is cells-done/total, advanced by the runner's per-cell
// hook.
type jobStatus struct {
	ID         string `json:"id"`
	State      string `json:"state"`
	Name       string `json:"name,omitempty"`
	SpecHash   string `json:"spec_hash"`
	Label      string `json:"label,omitempty"`
	CellsDone  int    `json:"cells_done"`
	CellsTotal int    `json:"cells_total"`
	JobsDone   int    `json:"jobs_done"`
	JobsTotal  int    `json:"jobs_total"`
	Error      string `json:"error,omitempty"`
	Ref        string `json:"ref,omitempty"`
	ReportURL  string `json:"report_url,omitempty"`
}

func (j *campaignJob) status() jobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := jobStatus{
		ID: j.id, State: j.state, Name: j.spec.Name,
		SpecHash: j.specHash, Label: j.label,
		CellsDone: j.cellsDone, CellsTotal: j.cellsTotal,
		JobsDone: j.jobsDone, JobsTotal: j.jobsTotal,
		Error: j.errMsg, Ref: j.ref,
	}
	if j.ref != "" {
		st.ReportURL = "/api/v1/reports/" + j.ref
	}
	return st
}

// jobManager owns every submitted campaign job: an in-memory registry (a
// server restart forgets jobs, but never their completed reports, which
// land in the result store) plus the shared base context a graceful
// shutdown cancels to drain in-flight sweeps.
type jobManager struct {
	store   *resultstore.Store
	workers int
	// tel carries the monotonic lifetime counters /metrics serves,
	// independent of the pruned job registry: a scraper must never see
	// "submitted" or "done" go backwards because old records aged out.
	// Its campaign group is threaded into every sweep.
	tel    *telemetry.Set
	tracer *telemetry.Tracer
	logger *slog.Logger

	ctx       context.Context
	cancelAll context.CancelFunc
	wg        sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*campaignJob
	order    []string
	next     int
	draining bool // set by shutdown; no further submissions

	// testHookCell, when set by tests, runs inside the per-cell completion
	// hook (OnCellDone, on the completing worker's goroutine) — a
	// deterministic window into a mid-sweep job, including forcing
	// out-of-order cell completion.
	testHookCell func(j *campaignJob, cr campaign.CellResult)
}

func newJobManager(store *resultstore.Store, workers int, tel *telemetry.Set,
	tracer *telemetry.Tracer, logger *slog.Logger) *jobManager {
	ctx, cancel := context.WithCancel(context.Background())
	return &jobManager{
		store:     store,
		workers:   workers,
		tel:       tel,
		tracer:    tracer,
		logger:    logger,
		ctx:       ctx,
		cancelAll: cancel,
		jobs:      make(map[string]*campaignJob),
	}
}

// maxTerminalJobs bounds how many finished job records the manager
// retains: the oldest terminal jobs are evicted as new ones are
// submitted, so a long-lived server's job registry cannot grow without
// bound. Completed reports persist in the store regardless; only the
// in-memory status record ages out.
const maxTerminalJobs = 256

// labelClaimed reports whether a still-running job already owns the
// (spec hash, label) pair — the store-side check cannot see a label whose
// run has not saved yet.
func (m *jobManager) labelClaimed(specHash, label string) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, j := range m.jobs {
		if j.specHash != specHash || j.label != label {
			continue
		}
		j.mu.Lock()
		running := j.state == jobRunning
		j.mu.Unlock()
		if running {
			return true
		}
	}
	return false
}

// pruneLocked evicts the oldest terminal jobs beyond maxTerminalJobs.
// Callers hold m.mu.
func (m *jobManager) pruneLocked() {
	terminal := 0
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		if j.state != jobRunning {
			terminal++
		}
		j.mu.Unlock()
	}
	if terminal <= maxTerminalJobs {
		return
	}
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		j.mu.Lock()
		done := j.state != jobRunning
		j.mu.Unlock()
		if done && terminal > maxTerminalJobs {
			delete(m.jobs, id)
			terminal--
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
}

// submit registers a job for an already-validated, normalized spec and
// launches its sweep. It returns nil once shutdown has begun: the
// wg.Add must happen-before shutdown's wg.Wait (both ordered by mu and
// the draining flag), and a 202 for a job the exiting process would
// abandon is a lie.
func (m *jobManager) submit(spec campaign.Spec, label string) *campaignJob {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.pruneLocked()
	m.next++
	m.tel.Jobs.Submitted()
	j := &campaignJob{
		id:         fmt.Sprintf("job-%03d", m.next),
		spec:       spec,
		specHash:   resultstore.SpecHash(spec),
		label:      label,
		done:       make(chan struct{}),
		events:     newEventHub(m.tel.SSE),
		state:      jobRunning,
		cellsTotal: spec.NumCells(),
		jobsTotal:  spec.NumCells() * spec.Seeds,
	}
	jctx, cancel := context.WithCancel(m.ctx)
	j.cancel = cancel
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.wg.Add(1)
	m.mu.Unlock()

	go m.run(j, jctx)
	return j
}

// run executes one job's sweep and records its terminal state. A
// completed report is saved into the primary store, where the existing
// report/diff/ETag routes serve it unchanged.
func (m *jobManager) run(j *campaignJob, ctx context.Context) {
	defer m.wg.Done()
	defer close(j.done)
	defer j.cancel() // release the context's resources on every path
	// Every job is one trace, keyed by its ID: the root "job" span, the
	// workers' shard spans and the retroactive cell spans all land in the
	// tracer's ring and come back out at /api/v1/trace/{id}.
	ctx = telemetry.WithTrace(ctx, m.tracer, j.id)
	ctx, span := telemetry.StartSpan(ctx, "job")
	span.SetAttr("spec", j.specHash)
	span.SetAttr("cells", j.cellsTotal)
	start := time.Now()
	opts := campaign.Options{
		Workers: m.workers,
		Metrics: m.tel.Campaign,
		OnCellDone: func(cr campaign.CellResult) {
			if m.testHookCell != nil {
				m.testHookCell(j, cr)
			}
			// Cells complete out of matrix order under a parallel pool, so
			// progress counts completions; deriving it from the cell's index
			// (cr.Index+1) would let cells_done move backwards when a
			// later-indexed cell finishes first. jobs_done advances a whole
			// cell's jobs at a time.
			j.mu.Lock()
			j.cellsDone++
			j.jobsDone += cr.Jobs
			j.mu.Unlock()
			// One render feeds every subscriber; the hub broadcasts bytes.
			if data, err := json.Marshal(cr); err == nil {
				j.events.publish(sseEventCell, data)
			}
		},
	}
	rep, err := campaign.NewRunner(opts).Run(ctx, j.spec)
	state, errMsg, ref := jobDone, "", ""
	switch {
	case errors.Is(err, context.Canceled):
		state, errMsg = jobCanceled, err.Error()
	case err != nil:
		state, errMsg = jobFailed, err.Error()
	default:
		entry, saveErr := m.store.Save(rep, j.label)
		if saveErr != nil {
			// The sweep finished but the report has nowhere to go (label
			// raced into existence, store unwritable): surface as failure.
			state, errMsg = jobFailed, saveErr.Error()
		} else {
			ref = entry.Ref()
		}
	}
	span.SetAttr("state", state)
	span.End()
	j.mu.Lock()
	j.state, j.errMsg, j.ref = state, errMsg, ref
	j.mu.Unlock()
	// The terminal status document is the stream's last frame; after it,
	// subscriber channels close and late subscribers replay-then-EOF.
	if data, err := json.Marshal(j.status()); err == nil {
		j.events.publish(sseEventState, data)
	}
	j.events.close()
	m.tel.Jobs.Finished(state)
	m.logger.Info("job finished",
		"job", j.id, "state", state, "ref", ref,
		"dur_ms", float64(time.Since(start).Microseconds())/1000,
		"error", errMsg)
}

// get returns a job by id.
func (m *jobManager) get(id string) (*campaignJob, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list snapshots every job's status in submission order.
func (m *jobManager) list() []jobStatus {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	jobs := make([]*campaignJob, 0, len(ids))
	for _, id := range ids {
		jobs = append(jobs, m.jobs[id])
	}
	m.mu.Unlock()
	out := make([]jobStatus, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.status())
	}
	return out
}

// shutdown cancels every in-flight job and waits — bounded by ctx — for
// their goroutines to record terminal states. Canceled sweeps are marked
// canceled in status rather than lost, and their partial work writes
// nothing to the store.
func (m *jobManager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.draining = true
	// Cancel each job before the shared context. A parent's Done closes
	// before its children are canceled, so code released by the manager's
	// Done could otherwise still find a job's context live and let its
	// sweep run on to "done".
	for _, j := range m.jobs {
		j.cancel()
	}
	m.mu.Unlock()
	m.cancelAll()
	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: campaign jobs still draining: %w", context.Cause(ctx))
	}
}

// --- HTTP handlers ---

// maxSpecBytes bounds a submitted spec body; specs are small declarative
// documents, kilobytes at the outside.
const maxSpecBytes = 1 << 20

// maxSubmittedJobs and maxSubmittedN bound what one HTTP submission may
// ask this process to execute. Validate has no upper bounds — the CLI
// and SDK run whatever their owner asks — but a shared server must not
// let a single request expand a billion-job matrix (or one billion-node
// graph) and OOM the process that is also serving reads.
const (
	maxSubmittedJobs = 100_000
	maxSubmittedN    = 1 << 20
)

// submittedJobs returns the expanded matrix size of a normalized spec,
// multiplying with an overflow guard: anything beyond maxSubmittedJobs
// reports ok=false rather than a wrapped product.
func submittedJobs(spec campaign.Spec) (int, bool) {
	if c := spec.Cells; c != nil {
		// A cell-range shard executes only its slice of the matrix; Validate
		// already bounded the range against the full matrix size.
		total := c.End - c.Start
		if total > 0 && spec.Seeds > maxSubmittedJobs/total {
			return 0, false
		}
		total *= spec.Seeds
		return total, total <= maxSubmittedJobs
	}
	total := spec.Seeds
	for _, axis := range []int{len(spec.Protocols), len(spec.Graphs), len(spec.Sizes),
		len(spec.Models)} {
		if axis == 0 {
			continue // Validate already rejected empty axes
		}
		if total > maxSubmittedJobs/axis {
			return 0, false
		}
		total *= axis
	}
	if n := len(spec.Adversaries); n > 1 {
		if total > maxSubmittedJobs/n {
			return 0, false
		}
		total *= n
	}
	return total, total <= maxSubmittedJobs
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.readOnly {
		s.error(w, http.StatusForbidden, ErrCodeReadOnly, "server is read-only; job submission is disabled")
		return
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	var spec campaign.Spec
	if err := dec.Decode(&spec); err != nil {
		s.error(w, http.StatusBadRequest, ErrCodeBadRequest, fmt.Sprintf("bad spec body: %v", err))
		return
	}
	spec = spec.Normalize()
	if err := spec.Validate(); err != nil {
		// A scenario-script defect gets its own stable code: the position-
		// carrying compile error reaches the client verbatim, before any
		// job id is allocated.
		var serr *scenario.Error
		if errors.As(err, &serr) {
			s.error(w, http.StatusBadRequest, ErrCodeBadScript, err.Error())
			return
		}
		s.error(w, http.StatusBadRequest, ErrCodeBadSpec, err.Error())
		return
	}
	if _, ok := submittedJobs(spec); !ok {
		s.error(w, http.StatusBadRequest, ErrCodeBadSpec,
			fmt.Sprintf("spec expands to more than %d jobs; split the sweep across submissions", maxSubmittedJobs))
		return
	}
	for _, n := range spec.Sizes {
		if n > maxSubmittedN {
			s.error(w, http.StatusBadRequest, ErrCodeBadSpec,
				fmt.Sprintf("size %d exceeds this server's per-graph limit of %d nodes", n, maxSubmittedN))
			return
		}
	}
	// Label checks run before s.jobs.submit so a rejected label never
	// allocates a job id: the submission fails whole, burning neither
	// compute nor a slot in the job table.
	label := r.URL.Query().Get("label")
	if label != "" {
		if err := resultstore.CheckLabel(label); err != nil {
			// The run-NNN namespace belongs to the store's auto-assigner, so
			// for a caller those labels are permanently taken; anything else
			// CheckLabel rejects could never name a run at all.
			if resultstore.AutoLabel(label) {
				s.error(w, http.StatusConflict, ErrCodeLabelTaken, err.Error())
				return
			}
			s.error(w, http.StatusBadRequest, ErrCodeBadLabel, err.Error())
			return
		}
		// Save re-checks at completion for lost races.
		hash := resultstore.SpecHash(spec)
		if _, err := s.jobs.store.GetEntry(hash, label); err == nil {
			s.error(w, http.StatusConflict, ErrCodeLabelTaken,
				fmt.Sprintf("label %q already names a stored run of this spec", label))
			return
		}
		if s.jobs.labelClaimed(hash, label) {
			s.error(w, http.StatusConflict, ErrCodeLabelTaken,
				fmt.Sprintf("label %q is claimed by a running job of this spec", label))
			return
		}
	}
	j := s.jobs.submit(spec, label)
	if j == nil {
		s.error(w, http.StatusServiceUnavailable, ErrCodeShuttingDown, "server is shutting down; not accepting jobs")
		return
	}
	st := j.status()
	w.Header().Set("Location", "/api/v1/campaigns/"+st.ID)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	data, _ := jsonindent.Marshal(st)
	w.Write(data)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	if state := r.URL.Query().Get("state"); state != "" {
		// An unknown state (say, the typo "runnning") used to filter to an
		// empty list — indistinguishable from "no such jobs". Reject it.
		switch state {
		case jobRunning, jobDone, jobFailed, jobCanceled:
		default:
			s.error(w, http.StatusBadRequest, ErrCodeBadRequest,
				fmt.Sprintf("unknown state %q (want running, done, failed or canceled)", state))
			return
		}
		filtered := jobs[:0]
		for _, st := range jobs {
			if st.State == state {
				filtered = append(filtered, st)
			}
		}
		jobs = filtered
	}
	s.writeJSON(w, map[string]any{"count": len(jobs), "jobs": jobs})
}

func (s *Server) handleJobStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	s.writeJSON(w, j.status())
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		s.error(w, http.StatusNotFound, ErrCodeNotFound, fmt.Sprintf("no job %q", r.PathValue("id")))
		return
	}
	st := j.status()
	if st.State != jobRunning {
		s.error(w, http.StatusConflict, ErrCodeConflict, fmt.Sprintf("job %s already %s", st.ID, st.State))
		return
	}
	j.cancel()
	// The runner goroutine records the terminal state; answer with the
	// current snapshot and let the poller observe "canceled".
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	data, _ := jsonindent.Marshal(j.status())
	w.Write(data)
}
