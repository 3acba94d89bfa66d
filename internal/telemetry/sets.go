package telemetry

// sets.go bundles the registry behind typed instrument groups, one per
// layer of the stack. Groups expose nil-safe recording methods instead of
// raw fields, so a caller holding a nil group (telemetry disabled) pays
// one nil check and no allocation per record — that is what keeps the
// engine's instrumented-vs-Nop benchmark within the overhead budget.

// Set is the full sensor grid: one registry plus the instrument groups
// every instrumented layer records into. The zero Set (telemetry.Nop)
// disables everything.
type Set struct {
	Registry *Registry
	HTTP     *HTTPMetrics
	Engine   *EngineMetrics
	Campaign *CampaignMetrics
	Store    *StoreMetrics
	Jobs     *JobMetrics
	SSE      *SSEMetrics
	Fabric   *FabricMetrics
	Scenario *ScenarioMetrics
}

// Nop is the disabled sensor grid: every group is nil and every recording
// method a no-op. Pass Nop.Engine (etc.) wherever instrumentation should
// cost nothing.
var Nop = &Set{}

// DefLatencyBounds bucket HTTP request latencies (seconds).
var DefLatencyBounds = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// DefCellBounds bucket campaign per-cell wall times (seconds): sampled
// cells finish in microseconds, deep exhaustive cells take minutes.
var DefCellBounds = []float64{0.001, 0.01, 0.1, 1, 10, 60, 600}

// NewSet builds a registry with every family of the stack registered, so
// the exposition carries all unlabeled series from the first scrape.
func NewSet() *Set {
	r := NewRegistry()
	engine := &EngineMetrics{
		runs:     r.Counter("wb_engine_runs_total", "Engine executions (single runs and exhaustive explorations)."),
		steps:    r.Counter("wb_engine_steps_total", "Writes simulated by the engine (DAG edges in memoized walks)."),
		classes:  r.Counter("wb_engine_memo_classes_total", "Configuration classes visited by memoized exhaustive walks."),
		memoHits: r.Counter("wb_engine_memo_hits_total", "Schedule branches folded into an already-known configuration class."),
		multAdds: r.Counter("wb_engine_memo_mult_adds_total", "big.Int multiplicity additions performed by memoized walks."),
	}
	return &Set{
		Registry: r,
		HTTP: &HTTPMetrics{
			requests: r.CounterVec("wb_http_requests_total", "HTTP requests served, by route pattern.", "route"),
			latency: r.HistogramVec("wb_http_request_seconds", "HTTP request latency in seconds, by route pattern.",
				DefLatencyBounds, "route"),
			inFlight:    r.Gauge("wb_http_in_flight", "HTTP requests currently being served."),
			cacheHits:   r.Counter("wb_diff_cache_hits_total", "Rendered-diff LRU cache hits."),
			cacheMisses: r.Counter("wb_diff_cache_misses_total", "Rendered-diff LRU cache misses."),
		},
		Engine: engine,
		Campaign: &CampaignMetrics{
			Engine:      engine,
			jobs:        r.Counter("wb_campaign_jobs_total", "Campaign jobs (trials) completed."),
			cellSeconds: r.Histogram("wb_campaign_cell_seconds", "Per-cell wall time in seconds (sum of the cell's job durations).", DefCellBounds),
			workersBusy: r.Gauge("wb_campaign_workers_busy", "Campaign worker goroutines currently executing a job."),
		},
		Store: &StoreMetrics{
			ingests:       r.Counter("wb_store_ingests_total", "Reports saved into the result store."),
			loads:         r.Counter("wb_store_loads_total", "Report bodies loaded from the result store."),
			gcRemoved:     r.Counter("wb_store_gc_removed_total", "Stored runs removed by garbage collection."),
			indexHits:     r.Counter("wb_store_index_hits_total", "Store listings served from the entry index without reparsing any envelope."),
			indexRebuilds: r.Counter("wb_store_index_rebuilds_total", "Store index group (re)builds: startup scans and staleness reparses."),
			codecEncoded:  r.Counter("wb_store_codec_encoded_bytes_total", "Bytes of columnar cell payload produced by the store codec."),
			codecDecoded:  r.Counter("wb_store_codec_decoded_bytes_total", "Bytes of columnar cell payload decoded by the store codec."),
		},
		Jobs: &JobMetrics{
			submitted: r.Counter("wb_jobs_submitted_total", "Campaign jobs submitted over the HTTP job API."),
			done:      r.Counter("wb_jobs_done_total", "HTTP campaign jobs that completed and stored a report."),
			failed:    r.Counter("wb_jobs_failed_total", "HTTP campaign jobs that ended in failure."),
			canceled:  r.Counter("wb_jobs_canceled_total", "HTTP campaign jobs canceled before completion."),
		},
		SSE: &SSEMetrics{
			subscribers: r.Gauge("wb_sse_subscribers", "SSE subscribers currently attached to job event streams."),
			events:      r.Counter("wb_sse_events_total", "SSE events published to job event streams (rendered once, broadcast as bytes)."),
			dropped:     r.Counter("wb_sse_dropped_events_total", "SSE events dropped because a slow subscriber's queue was full at publish time."),
			evicted:     r.Counter("wb_sse_evicted_subscribers_total", "SSE subscribers evicted for falling behind the event stream."),
		},
		Fabric: &FabricMetrics{
			shardsInFlight: r.Gauge("wb_fabric_shards_in_flight", "Fabric shards currently submitted to a worker and not yet fully merged."),
			resubmissions:  r.Counter("wb_fabric_resubmissions_total", "Fabric shard submissions beyond the first attempt: failure retries and work-stealing duplicates."),
			workers:        r.GaugeVec("wb_fabric_workers", "Fabric worker endpoints by health state.", "state"),
			cellsDeduped:   r.Counter("wb_fabric_cells_deduped_total", "Duplicate cells discarded by the fabric merger (overlapping shard attempts)."),
		},
		Scenario: &ScenarioMetrics{
			compiles:  r.Counter("wb_scenario_compiles_total", "Scenario-DSL compilation attempts (spec validation and run construction)."),
			evalSteps: r.Counter("wb_scenario_eval_steps_total", "Scenario-DSL evaluator steps spent across all script evaluations."),
		},
	}
}

// HTTPMetrics instruments the HTTP server: per-route traffic and latency,
// in-flight requests, and the rendered-diff cache.
type HTTPMetrics struct {
	requests    *CounterVec
	latency     *HistogramVec
	inFlight    *Gauge
	cacheHits   *Counter
	cacheMisses *Counter
}

// Request records one served request under its route pattern.
func (m *HTTPMetrics) Request(route string, seconds float64) {
	if m == nil {
		return
	}
	m.requests.With(route).Inc()
	m.latency.With(route).Observe(seconds)
}

// InFlightAdd shifts the in-flight request gauge.
func (m *HTTPMetrics) InFlightAdd(delta int64) {
	if m == nil {
		return
	}
	m.inFlight.Add(delta)
}

// RequestCounts snapshots per-route request totals for the JSON metrics
// view — the same numbers the registry exposes, same keys as the
// pre-registry /metricsz.
func (m *HTTPMetrics) RequestCounts() map[string]int64 {
	if m == nil {
		return map[string]int64{}
	}
	return m.requests.Snapshot()
}

// CacheCounters hands out the diff-LRU hit/miss counters so the cache
// records straight into the registry.
func (m *HTTPMetrics) CacheCounters() (hits, misses *Counter) {
	if m == nil {
		return nil, nil
	}
	return m.cacheHits, m.cacheMisses
}

// EngineMetrics instruments the simulation engine. Recording happens once
// per run or exploration — totals accumulate locally in the engine's own
// loop variables first — so the per-step hot path carries no atomics.
type EngineMetrics struct {
	runs     *Counter
	steps    *Counter
	classes  *Counter
	memoHits *Counter
	multAdds *Counter
}

// RunDone records one completed single-schedule run of writes steps.
func (m *EngineMetrics) RunDone(writes int) {
	if m == nil {
		return
	}
	m.runs.Inc()
	m.steps.Add(int64(writes))
}

// ExhaustiveDone records one completed (or aborted) exhaustive
// exploration: unique simulated writes, configuration classes, schedule
// branches deduplicated into existing classes, and big.Int multiplicity
// additions. Naive walks report zeros for the memo quantities.
func (m *EngineMetrics) ExhaustiveDone(steps, classes, memoHits, multAdds int) {
	if m == nil {
		return
	}
	m.runs.Inc()
	m.steps.Add(int64(steps))
	m.classes.Add(int64(classes))
	m.memoHits.Add(int64(memoHits))
	m.multAdds.Add(int64(multAdds))
}

// Steps returns the lifetime simulated-write total (tests and views).
func (m *EngineMetrics) Steps() int64 {
	if m == nil {
		return 0
	}
	return m.steps.Value()
}

// CampaignMetrics instruments campaign sweeps. Engine points at the
// engine group so one Options field carries the whole chain downward.
type CampaignMetrics struct {
	Engine      *EngineMetrics
	jobs        *Counter
	cellSeconds *Histogram
	workersBusy *Gauge
}

// EngineMetrics returns the engine group, nil-safely.
func (m *CampaignMetrics) EngineMetrics() *EngineMetrics {
	if m == nil {
		return nil
	}
	return m.Engine
}

// WorkerBusy shifts the busy-worker gauge (+1 entering a job, -1 leaving).
func (m *CampaignMetrics) WorkerBusy(delta int64) {
	if m == nil {
		return
	}
	m.workersBusy.Add(delta)
}

// JobDone records one completed job (trial).
func (m *CampaignMetrics) JobDone() {
	if m == nil {
		return
	}
	m.jobs.Inc()
}

// CellDone records one completed cell's wall time (sum of job durations).
func (m *CampaignMetrics) CellDone(seconds float64) {
	if m == nil {
		return
	}
	m.cellSeconds.Observe(seconds)
}

// StoreMetrics instruments the result store: save/load/GC traffic, the
// entry index's hit-vs-rebuild balance, and the columnar cell codec.
type StoreMetrics struct {
	ingests       *Counter
	loads         *Counter
	gcRemoved     *Counter
	indexHits     *Counter
	indexRebuilds *Counter
	codecEncoded  *Counter
	codecDecoded  *Counter
}

// IndexHit records one listing answered entirely from the entry index.
func (m *StoreMetrics) IndexHit() {
	if m == nil {
		return
	}
	m.indexHits.Inc()
}

// IndexRebuilds records n spec groups whose index entries were rebuilt by
// rescanning their envelope files.
func (m *StoreMetrics) IndexRebuilds(n int) {
	if m == nil || n == 0 {
		return
	}
	m.indexRebuilds.Add(int64(n))
}

// CodecEncoded records n bytes of columnar cell payload written.
func (m *StoreMetrics) CodecEncoded(n int) {
	if m == nil {
		return
	}
	m.codecEncoded.Add(int64(n))
}

// CodecDecoded records n bytes of columnar cell payload decoded.
func (m *StoreMetrics) CodecDecoded(n int) {
	if m == nil {
		return
	}
	m.codecDecoded.Add(int64(n))
}

// Ingest records one report saved.
func (m *StoreMetrics) Ingest() {
	if m == nil {
		return
	}
	m.ingests.Inc()
}

// Load records one report body loaded.
func (m *StoreMetrics) Load() {
	if m == nil {
		return
	}
	m.loads.Inc()
}

// GCRemoved records n runs removed by a GC pass.
func (m *StoreMetrics) GCRemoved(n int) {
	if m == nil {
		return
	}
	m.gcRemoved.Add(int64(n))
}

// SSEMetrics instruments the job event-stream fan-out: attached
// subscribers, events published, and the drop/evict pressure valve that
// keeps slow consumers from ever stalling a campaign runner.
type SSEMetrics struct {
	subscribers *Gauge
	events      *Counter
	dropped     *Counter
	evicted     *Counter
}

// SubscriberAdd shifts the attached-subscriber gauge.
func (m *SSEMetrics) SubscriberAdd(delta int64) {
	if m == nil {
		return
	}
	m.subscribers.Add(delta)
}

// EventPublished records one event rendered and broadcast.
func (m *SSEMetrics) EventPublished() {
	if m == nil {
		return
	}
	m.events.Inc()
}

// DroppedEvent records one event a full subscriber queue could not take.
func (m *SSEMetrics) DroppedEvent() {
	if m == nil {
		return
	}
	m.dropped.Inc()
}

// Evicted records one subscriber evicted for falling behind.
func (m *SSEMetrics) Evicted() {
	if m == nil {
		return
	}
	m.evicted.Inc()
}

// Counts snapshots the fan-out tallies (subscribers currently attached,
// events published, events dropped, subscribers evicted).
func (m *SSEMetrics) Counts() (subscribers, events, dropped, evicted int64) {
	if m == nil {
		return 0, 0, 0, 0
	}
	return m.subscribers.Value(), m.events.Value(), m.dropped.Value(), m.evicted.Value()
}

// FabricMetrics instruments the distributed campaign coordinator: shard
// flow, re-submission pressure, worker health and duplicate cells.
type FabricMetrics struct {
	shardsInFlight *Gauge
	resubmissions  *Counter
	workers        *GaugeVec
	cellsDeduped   *Counter
}

// ShardInFlight shifts the in-flight shard gauge (+1 on submission to a
// worker, -1 when the attempt ends).
func (m *FabricMetrics) ShardInFlight(delta int64) {
	if m == nil {
		return
	}
	m.shardsInFlight.Add(delta)
}

// Resubmitted records one shard submission beyond the shard's first —
// a retry after failure or a work-stealing duplicate.
func (m *FabricMetrics) Resubmitted() {
	if m == nil {
		return
	}
	m.resubmissions.Inc()
}

// Resubmissions returns the lifetime re-submission total (tests, CI).
func (m *FabricMetrics) Resubmissions() int64 {
	if m == nil {
		return 0
	}
	return m.resubmissions.Value()
}

// WorkerState moves one worker between health states on the labeled
// gauge; "" for from or to skips that side (first observation, removal).
func (m *FabricMetrics) WorkerState(from, to string) {
	if m == nil {
		return
	}
	if from != "" {
		m.workers.With(from).Add(-1)
	}
	if to != "" {
		m.workers.With(to).Add(1)
	}
}

// CellDeduped records one duplicate cell discarded by the merger.
func (m *FabricMetrics) CellDeduped() {
	if m == nil {
		return
	}
	m.cellsDeduped.Inc()
}

// ScenarioMetrics instruments the scenario DSL: compilation attempts and
// evaluator step spend. Steps accumulate locally in each evaluation's
// own counter first and are flushed once per Choose/Activate call, so
// the per-node hot path carries no atomics.
type ScenarioMetrics struct {
	compiles  *Counter
	evalSteps *Counter
}

// CompileDone records one compilation attempt (successful or not).
func (m *ScenarioMetrics) CompileDone() {
	if m == nil {
		return
	}
	m.compiles.Inc()
}

// EvalSteps records the step spend of one completed script evaluation.
func (m *ScenarioMetrics) EvalSteps(n int64) {
	if m == nil || n == 0 {
		return
	}
	m.evalSteps.Add(n)
}

// Counts snapshots the lifetime tallies (compiles, eval steps).
func (m *ScenarioMetrics) Counts() (compiles, evalSteps int64) {
	if m == nil {
		return 0, 0
	}
	return m.compiles.Value(), m.evalSteps.Value()
}

// JobMetrics instruments the HTTP job API's lifetime counters. Monotonic
// by construction, so a scraper never sees them move backwards.
type JobMetrics struct {
	submitted *Counter
	done      *Counter
	failed    *Counter
	canceled  *Counter
}

// Submitted records one accepted job.
func (m *JobMetrics) Submitted() {
	if m == nil {
		return
	}
	m.submitted.Inc()
}

// Finished records one job reaching the given terminal state.
func (m *JobMetrics) Finished(state string) {
	if m == nil {
		return
	}
	switch state {
	case "done":
		m.done.Inc()
	case "failed":
		m.failed.Inc()
	case "canceled":
		m.canceled.Inc()
	}
}

// Counts snapshots the lifetime tallies (submitted, done, failed,
// canceled); running is submitted minus the terminal states.
func (m *JobMetrics) Counts() (submitted, done, failed, canceled int64) {
	if m == nil {
		return 0, 0, 0, 0
	}
	return m.submitted.Value(), m.done.Value(), m.failed.Value(), m.canceled.Value()
}
