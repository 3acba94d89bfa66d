package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/resultstore"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// The fleet workload: one op is one fabric.Run of the frozen fleet spec
// across two in-process wbserve workers, each running submitted jobs on
// one campaign worker over a fresh store, with the fabric's default shard
// count and intervals — what `wbcampaign run -workers a,b` does. The
// first of the two shards holds the build-forest and bfs cells, nearly all
// the compute, so every op ends with the idle worker stealing it.

const (
	fleetWorkers      = 2
	fleetSecondsPerOp = 2 // a run makes one op per 2 s of -seconds
	drainLimit        = 30 * time.Second
)

// fleetWorker is one in-process wbserve endpoint.
type fleetWorker struct {
	dir   string
	store *resultstore.Store
	srv   *server.Server
	hs    *httptest.Server
}

func startWorker(dir string) (*fleetWorker, error) {
	st, err := resultstore.Open(dir)
	if err != nil {
		return nil, err
	}
	srv, err := server.New(server.Options{Stores: []*resultstore.Store{st}, JobWorkers: 1})
	if err != nil {
		return nil, err
	}
	return &fleetWorker{dir: dir, store: st, srv: srv, hs: httptest.NewServer(srv.Handler())}, nil
}

// close cancels and waits for the worker's jobs, stops its listener and
// removes its store.
func (w *fleetWorker) close() {
	ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
	defer cancel()
	w.srv.Shutdown(ctx) // bounded by ctx; the listener closes either way
	w.hs.Close()
	os.RemoveAll(w.dir)
}

// waitHealthy polls /healthz through the typed client until it answers.
func waitHealthy(ctx context.Context, url string) error {
	c := client.New(url, client.Options{})
	deadline := time.Now().Add(10 * time.Second)
	for {
		err := c.Health(ctx)
		if err == nil {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s never became healthy: %w", url, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

type fleetState struct {
	spec    campaign.Spec
	workers []*fleetWorker
	urls    []string
	ref     []byte
	refRep  *campaign.Report
	localMS float64 // the set-up's in-process run of the spec, 2 workers
	hc      *http.Client
}

func (s *fleetState) close() {
	for _, w := range s.workers {
		w.close()
	}
}

// runningJobs counts the jobs the workers report as running.
func (s *fleetState) runningJobs(ctx context.Context) (int, error) {
	total := 0
	for _, u := range s.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/api/v1/campaigns?state=running", nil)
		if err != nil {
			return 0, err
		}
		resp, err := s.hc.Do(req)
		if err != nil {
			return 0, err
		}
		var body struct {
			Count int `json:"count"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		total += body.Count
	}
	return total, nil
}

// drain waits until no worker runs a job, so leftover work from the last
// op (a losing shard copy still computing) is paid before the next op.
// It returns the jobs running when it began and how long it waited.
func (s *fleetState) drain(ctx context.Context) (int, time.Duration, error) {
	start := time.Now()
	leftover := -1
	for {
		n, err := s.runningJobs(ctx)
		if err != nil {
			return 0, 0, err
		}
		if leftover < 0 {
			leftover = n
		}
		if n == 0 {
			return leftover, time.Since(start), nil
		}
		if time.Since(start) > drainLimit {
			return leftover, time.Since(start), fmt.Errorf("%d jobs still running after %s", n, drainLimit)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// check compares a fleet report with the in-process reference and
// returns the op's write time.
func (s *fleetState) check(rep *campaign.Report) (time.Duration, error) {
	var out []byte
	write, err := timeWrite(func() (err error) {
		out, err = renderJSON(rep)
		return err
	})
	if err != nil {
		return 0, err
	}
	if !bytes.Equal(out, s.ref) {
		return 0, fmt.Errorf("fleet report differs from the in-process run of the same spec")
	}
	return write, nil
}

func runFleet(ctx context.Context, cfg config) (*result, error) {
	var ref []byte
	var localMS []float64
	st, setupS, err := setup(cfg.setupReps(), func(rep int) (*fleetState, error) {
		spec, err := loadSpec("fleet.json")
		if err != nil {
			return nil, err
		}
		s := &fleetState{spec: spec, hc: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}}
		for i := 0; i < fleetWorkers; i++ {
			w, err := startWorker(filepath.Join(cfg.workDir, fmt.Sprintf("fleet-%d-worker-%d", rep, i)))
			if err != nil {
				s.close()
				return nil, err
			}
			s.workers = append(s.workers, w)
			s.urls = append(s.urls, w.hs.URL)
		}
		for _, u := range s.urls {
			if err := waitHealthy(ctx, u); err != nil {
				s.close()
				return nil, err
			}
		}
		// The in-process run is the correctness oracle and the warm-up.
		var local *campaign.Report
		_, adj := measure(func() {
			local, err = campaign.NewRunner(campaign.Options{Workers: fleetWorkers}).Run(ctx, spec)
		})
		localMS = append(localMS, ms(adj))
		if err != nil {
			s.close()
			return nil, err
		}
		out, err := renderJSON(local)
		if err != nil {
			s.close()
			return nil, err
		}
		if rep == 0 {
			ref = out
		} else if !bytes.Equal(out, ref) {
			s.close()
			return nil, fmt.Errorf("set-up %d in-process report differs from set-up 1", rep+1)
		}
		s.ref, s.refRep = ref, local
		return s, nil
	}, (*fleetState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	st.localMS = median(localMS)
	rssSetup := peakRSSMB()

	res := newResult(setupS)
	res.record["fabric_workers"] = fleetWorkers
	res.record["job_workers_per_server"] = 1
	res.record["shards"] = "default (one per worker)"
	res.record["spec"] = "specs/fleet.json"
	res.record["cells"] = st.spec.NumCells()
	res.record["jobs"] = st.spec.NumCells() * st.spec.Seeds
	stats, err := storeStats(st.workers)
	if err != nil {
		return nil, err
	}
	res.record["worker_stores_start"] = stats

	// A plain run times plain ops; a traced run alternates plain and
	// traced ops.
	modes := []string{"plain"}
	var ft *fleetTrace
	if cfg.traced {
		modes, ft = []string{"plain", "traced"}, newFleetTrace(cfg.tr)
	}
	lat, raw := map[string][]float64{}, map[string][]float64{}
	var writes []float64
	var leftovers []int
	ops := fleetOps(cfg)
	res.record["ops"] = ops
	win := startWindow()
	for op := 1; op <= ops; op++ {
		mode := modes[op%len(modes)]
		opts := fabric.Options{Workers: st.urls}
		tr := (*tracer)(nil)
		if mode == "traced" {
			opts.HTTPClient, opts.Metrics, tr = ft.client, ft.tel.Fabric, cfg.tr
		}
		if ft != nil {
			if err := ft.before(st); err != nil {
				return nil, err
			}
		}
		res.attempted++
		opID, opStart := tr.begin()
		runID, runStart := tr.begin()
		if mode == "traced" {
			ft.rec.startOp(op, runID)
		}
		var rep *campaign.Report
		var err error
		wall, adj := win.op(func() { rep, err = fabric.Run(ctx, st.spec, opts) })
		tr.end(runID, runStart, opID, op, "fabric.Run")
		var leftover int
		var drained time.Duration
		tr.do("drain", opID, op, func(int64) {
			var derr error
			leftover, drained, derr = st.drain(ctx)
			if err == nil {
				err = derr
			}
		})
		tr.end(opID, opStart, 0, op, "op")
		var write time.Duration
		if err == nil {
			write, err = st.check(rep)
		}
		if err != nil {
			res.fail(cfg.log, "%v", err)
			continue
		}
		lat[mode], raw[mode] = append(lat[mode], ms(adj)), append(raw[mode], ms(wall))
		writes = append(writes, ms(write))
		leftovers = append(leftovers, leftover)
		if ft != nil {
			if err := ft.after(st, mode == "traced", wall, leftover, drained); err != nil {
				return nil, err
			}
		}
	}
	ws := win.end()
	res.record["leftover_jobs"] = leftovers
	res.record["peak_rss_setup_mb"] = rssSetup
	if stats, err = storeStats(st.workers); err != nil {
		return nil, err
	}
	res.record["worker_stores_end"] = stats
	if !cfg.traced {
		res.endToEnd(lat["plain"], raw["plain"], writes, ws)
		return res, nil
	}

	v := res.values
	v["runtime.gc_cpu_fraction"] = ws.gcCPU
	res.record["window_steal_share"] = ws.stolen
	for k, xs := range ft.perOp {
		v[k] = median(xs)
	}
	res.record["resubmissions_per_traced_op"] = ft.perOp["fabric.resubmissions"]
	v["campaign.local_ms"] = st.localMS
	v["fabric.overhead_ms"] = median(lat["plain"]) - st.localMS
	v["trace.overhead_ratio"] = ratio(median(lat["traced"]), median(lat["plain"]))
	res.record["op_samples_by_mode"] = map[string]int{"plain": len(lat["plain"]), "traced": len(lat["traced"])}
	runLayers(cfg, st, res)
	return res, nil
}

// fleetOps is a run's fixed op count, one op per fleetSecondsPerOp of
// -seconds and at least two. A run ends after a set number of ops, not a
// set time, so every commit's p50 and p99 rest on the same number of ops.
func fleetOps(cfg config) int {
	return max(2, int(cfg.window/time.Second)/fleetSecondsPerOp)
}

// storeStats sizes each worker's store.
func storeStats(ws []*fleetWorker) ([]resultstore.Stats, error) {
	var out []resultstore.Stats
	for _, w := range ws {
		stat, err := w.store.Stat()
		if err != nil {
			return nil, err
		}
		out = append(out, stat)
	}
	return out, nil
}

// workerSums sums one metric over the workers' /metrics pages.
func (s *fleetState) workerSums(name string) (float64, error) {
	total := 0.0
	for _, u := range s.urls {
		m, err := scrape(s.hc, u)
		if err != nil {
			return 0, err
		}
		total += m[name]
	}
	return total, nil
}

// fleetTrace is what a traced fleet run keeps beside the op loop. Traced
// ops send the coordinator's requests through a recording RoundTripper
// and count wb_fabric_* through fabric.Options.Metrics.
type fleetTrace struct {
	tel    *telemetry.Set
	rec    *recorder
	client *http.Client
	perOp  map[string][]float64 // each op's figures, by metric name

	resub0        int64 // counters at the start of the current op
	dedup0, busy0 float64
}

func newFleetTrace(tr *tracer) *fleetTrace {
	rec := &recorder{base: &http.Transport{}, tr: tr, counts: map[string]int{}}
	return &fleetTrace{
		tel: telemetry.NewSet(), rec: rec, perOp: map[string][]float64{},
		client: &http.Client{Timeout: 30 * time.Second, Transport: rec},
	}
}

// before reads the counters an op's figures are deltas of.
func (ft *fleetTrace) before(st *fleetState) error {
	ft.resub0 = ft.tel.Fabric.Resubmissions()
	var err error
	if ft.dedup0, err = fabricDeduped(ft.tel); err != nil {
		return err
	}
	ft.busy0, err = st.workerSums("wb_campaign_cell_seconds_sum")
	return err
}

// after records one successful op's figures. Only a traced op has the
// fabric's counters and the coordinator's requests.
func (ft *fleetTrace) after(st *fleetState, traced bool, wall time.Duration, leftover int, drained time.Duration) error {
	add := func(k string, v float64) { ft.perOp[k] = append(ft.perOp[k], v) }
	add("fabric.leftover_jobs", float64(leftover))
	add("fabric.drain_ms", ms(drained))
	busy1, err := st.workerSums("wb_campaign_cell_seconds_sum")
	if err != nil {
		return err
	}
	add("campaign.busy_ratio", (busy1-ft.busy0)/(fleetWorkers*wall.Seconds()))
	if !traced {
		return nil
	}
	dedup1, err := fabricDeduped(ft.tel)
	if err != nil {
		return err
	}
	deduped := dedup1 - ft.dedup0
	add("fabric.resubmissions", float64(ft.tel.Fabric.Resubmissions()-ft.resub0))
	add("fabric.cells_deduped", deduped)
	cells := float64(st.spec.NumCells())
	add("fabric.useful_cell_ratio", cells/(cells+deduped))
	counts, toSubmit, toCell := ft.rec.opStats()
	for _, k := range clientKinds {
		add("client.requests."+k, float64(counts[k]))
	}
	add("fabric.first_submit_ms", ms(toSubmit))
	add("sse.first_cell_ms", ms(toCell))
	return nil
}

// runLayers re-runs every job of the spec on one goroutine to split
// engine time from protocol, adversary and registry time.
func runLayers(cfg config, st *fleetState, res *result) {
	res.attempted++
	id, spanStart := cfg.tr.begin()
	sp, err := splitRuns(st.spec, cfg.tr, id)
	cfg.tr.end(id, spanStart, 0, 0, "split")
	if err == nil {
		err = sp.matches(st.refRep)
	}
	if err != nil {
		res.fail(cfg.log, "split: %v", err)
		return
	}
	v := res.values
	self := sp.wall - sp.cb.protocol() - sp.cb.choose
	v["engine.run.ns_per_write"] = ratio(float64(self.Nanoseconds()), float64(sp.writes))
	v["engine.run.self_ms"] = ms(self)
	v["engine.run.allocs_per_job"] = ratio(float64(sp.mallocs), float64(sp.jobs))
	v["protocols.activate_ms"] = ms(sp.cb.activate)
	v["protocols.compose_ms"] = ms(sp.cb.compose)
	v["protocols.output_ms"] = ms(sp.cb.output)
	v["adversary.choose_ms"] = ms(sp.cb.choose)
	v["registry.build_ms"] = ms(sp.registry)
}

// sameDist compares the exported summary of two distributions.
func sameDist(a, b campaign.Dist) bool {
	return a.Min == b.Min && a.Max == b.Max && a.Mean == b.Mean
}

func fabricDeduped(tel *telemetry.Set) (float64, error) {
	var buf bytes.Buffer
	if err := tel.Registry.WriteText(&buf); err != nil {
		return 0, err
	}
	m, err := promSums(&buf)
	return m["wb_fabric_cells_deduped_total"], err
}

// runSplit is the fleet spec's jobs re-run on one goroutine.
type runSplit struct {
	cells    []campaign.Cell
	sums     [][2]int64 // rounds and board-bit sums per cell, for the means
	jobs     int
	writes   int
	wall     time.Duration // engine.Runner.Run time, callbacks included
	registry time.Duration
	cb       callbackTimes
	mallocs  uint64
}

// splitRuns rebuilds every job through Spec.Expand and the registry and
// runs it on one engine.Runner with timed protocol and adversary
// callbacks, between runtime.MemStats reads.
func splitRuns(spec campaign.Spec, tr *tracer, parent int64) (runSplit, error) {
	s := runSplit{cells: make([]campaign.Cell, spec.NumCells()), sums: make([][2]int64, spec.NumCells())}
	runner := engine.NewRunner()
	rng := rand.New(rand.NewSource(1))
	var m0, m1 runtime.MemStats
	for _, job := range spec.Expand() {
		var b builtJob
		var err error
		tr.do("registry.build", parent, 0, func(int64) {
			t := time.Now()
			b, err = buildJob(spec, job, rng)
			s.registry += time.Since(t)
		})
		if err != nil {
			return s, err
		}
		cell := &s.cells[job.Cell]
		tr.do("engine.Runner.Run", parent, 0, func(int64) {
			runtime.ReadMemStats(&m0)
			t := time.Now()
			r := runner.Run(timedProtocol{b.proto, &s.cb}, b.graph, timedAdversary{b.adv, &s.cb},
				engine.Options{Model: b.model, MaxRounds: spec.MaxRounds})
			s.wall += time.Since(t)
			runtime.ReadMemStats(&m1)
			s.writes += len(r.Writes)
			tally(cell, &s.sums[job.Cell], r.Status, r.Rounds, r.Board.TotalBits(), r.MaxBits)
		})
		s.mallocs += m1.Mallocs - m0.Mallocs
		s.jobs++
	}
	return s, nil
}

// tally folds one run into a cell the way the campaign aggregates it.
func tally(c *campaign.Cell, sums *[2]int64, status core.Status, rounds, bits, maxBits int) {
	if c.Runs == 0 {
		c.Rounds.Min, c.BoardBits.Min = rounds, bits
	}
	c.Runs++
	switch status {
	case core.Success:
		c.Success++
	case core.Deadlock:
		c.Deadlock++
	default:
		c.Failed++
	}
	c.Rounds.Min, c.Rounds.Max = min(c.Rounds.Min, rounds), max(c.Rounds.Max, rounds)
	c.BoardBits.Min, c.BoardBits.Max = min(c.BoardBits.Min, bits), max(c.BoardBits.Max, bits)
	sums[0] += int64(rounds)
	sums[1] += int64(bits)
	c.Rounds.Mean = float64(sums[0]) / float64(c.Runs)
	c.BoardBits.Mean = float64(sums[1]) / float64(c.Runs)
	c.MaxMessageBits = max(c.MaxMessageBits, maxBits)
}

// matches checks the split's tallies against the reference report.
func (s runSplit) matches(rep *campaign.Report) error {
	if len(rep.Cells) != len(s.cells) {
		return fmt.Errorf("%d cells, report has %d", len(s.cells), len(rep.Cells))
	}
	for i, want := range rep.Cells {
		got := s.cells[i]
		if got.Runs != want.Runs || got.Success != want.Success || got.Deadlock != want.Deadlock ||
			got.Failed != want.Failed || !sameDist(got.Rounds, want.Rounds) ||
			!sameDist(got.BoardBits, want.BoardBits) || got.MaxMessageBits != want.MaxMessageBits {
			return fmt.Errorf("cell %d (%s/%s/%s n=%d): split tallied %d runs %d/%d/%d rounds %+v, report %d runs %d/%d/%d rounds %+v",
				i, want.Protocol, want.Graph, want.Adversary, want.N,
				got.Runs, got.Success, got.Deadlock, got.Failed, got.Rounds,
				want.Runs, want.Success, want.Deadlock, want.Failed, want.Rounds)
		}
	}
	return nil
}
