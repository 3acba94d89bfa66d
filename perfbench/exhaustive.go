package main

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// The exhaustive workload: one op runs the frozen exhaustive-deep spec
// (mis on cycles and cliques, n 8–9) and then the distinct-tree spec
// (build-forest on a path and a star, n 8) through campaign.Runner with
// two workers. The first pass collapses 70–99% of naive writes; in the
// second nothing collapses. Store, server and fabric are idle.

const (
	exhaustiveWorkers = 2
	// Pinned semantic tallies: every schedule of every cell succeeds.
	deepSuccess     = 806_400 // 8! + 9! schedules, twice
	distinctSuccess = 40_320  // 8! schedules per distinct cell
	// writeFor is how long each op's reports are rendered over and over;
	// the mean render time is the op's write time. One render lasts well
	// under a millisecond, and the host's speed swings from one
	// millisecond to the next, so an op's sample spans many renders.
	writeFor = 100 * time.Millisecond
)

// passNames label the two passes of an op in metrics and spans.
var passNames = [2]string{"collapse", "distinct"}

type exhaustiveState struct {
	specs   [2]campaign.Spec
	ref     [2][]byte // the first set-up's reports, which every op must match
	refReps [2]*campaign.Report
}

// checkPinned verifies the semantic tallies of both passes.
func checkPinned(reps [2]*campaign.Report) error {
	success := 0
	for _, c := range reps[0].Cells {
		success += c.Exhaustive.Success
	}
	if success != deepSuccess || reps[0].Totals.Failed != 0 {
		return fmt.Errorf("deep pass: %d successful schedules, %d failed jobs; want %d and 0",
			success, reps[0].Totals.Failed, deepSuccess)
	}
	for _, c := range reps[1].Cells {
		if c.Exhaustive.Success != distinctSuccess || c.Exhaustive.Schedules != distinctSuccess {
			return fmt.Errorf("distinct pass: %s/%s n=%d has %d of %d schedules successful; want %d",
				c.Protocol, c.Graph, c.N, c.Exhaustive.Success, c.Exhaustive.Schedules, distinctSuccess)
		}
	}
	return nil
}

// exhaustiveOp runs both passes. With tr set it records a span per pass
// and grafts the campaign's own shard, cell and engine spans under it.
func exhaustiveOp(ctx context.Context, runner *campaign.Runner, specs [2]campaign.Spec,
	tr *tracer, prog *telemetry.Tracer, op int, parent int64) ([2]*campaign.Report, error) {
	var reps [2]*campaign.Report
	for i, spec := range specs {
		var err error
		id, start := tr.begin()
		traceID := fmt.Sprintf("op-%d-%s", op, passNames[i])
		reps[i], err = runner.Run(telemetry.WithTrace(ctx, prog, traceID), spec)
		tr.end(id, start, parent, op, "campaign.Runner.Run."+passNames[i])
		if prog != nil {
			recs, _ := prog.Trace(traceID)
			tr.graft(recs, id, op)
		}
		if err != nil {
			return reps, fmt.Errorf("%s pass: %w", passNames[i], err)
		}
	}
	return reps, nil
}

// verify checks an op's reports against the pinned tallies and the
// reference bytes, and returns the op's write time.
func (s *exhaustiveState) verify(reps [2]*campaign.Report) (time.Duration, error) {
	if err := checkPinned(reps); err != nil {
		return 0, err
	}
	var out [2][]byte
	write, err := timeWrite(func() (err error) {
		for i := range reps {
			if out[i], err = renderJSON(reps[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	for i := range out {
		if !bytes.Equal(out[i], s.ref[i]) {
			return 0, fmt.Errorf("%s pass: report differs from the first pass's", passNames[i])
		}
	}
	return write, nil
}

func runExhaustive(ctx context.Context, cfg config) (*result, error) {
	runner := campaign.NewRunner(campaign.Options{Workers: exhaustiveWorkers})
	var ref [2][]byte
	var refReps [2]*campaign.Report
	st, setupS, err := setup(cfg.setupReps(), func(rep int) (*exhaustiveState, error) {
		s := &exhaustiveState{}
		for i, name := range []string{"exhaustive-deep.json", "exhaustive-distinct.json"} {
			spec, err := loadSpec(name)
			if err != nil {
				return nil, err
			}
			s.specs[i] = spec
		}
		// Warm-up: one full op, whose reports become the reference.
		reps, err := exhaustiveOp(ctx, runner, s.specs, nil, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		if err := checkPinned(reps); err != nil {
			return nil, err
		}
		for i := range reps {
			out, err := renderJSON(reps[i])
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				ref[i], refReps[i] = out, reps[i]
			} else if !bytes.Equal(out, ref[i]) {
				return nil, fmt.Errorf("%s pass: set-up %d report differs from set-up 1", passNames[i], rep+1)
			}
		}
		s.ref, s.refReps = ref, refReps
		return s, nil
	}, func(*exhaustiveState) {})
	if err != nil {
		return nil, err
	}
	res := newResult(setupS)
	res.record["workers"] = exhaustiveWorkers
	res.record["specs"] = []string{"specs/exhaustive-deep.json", "specs/exhaustive-distinct.json"}

	// A plain run times plain ops. A traced run cycles plain ops, ops with
	// campaign telemetry on and fully traced ops through the window.
	modes := []string{"plain"}
	tel := telemetry.NewSet()
	runners := map[string]*campaign.Runner{"plain": runner}
	var prog *telemetry.Tracer
	if cfg.traced {
		modes = []string{"plain", "metrics", "traced"}
		metered := campaign.NewRunner(campaign.Options{Workers: exhaustiveWorkers, Metrics: tel.Campaign})
		runners["metrics"], runners["traced"] = metered, metered
		prog = telemetry.NewTracer(0)
	}
	lat, raw := map[string][]float64{}, map[string][]float64{}
	var writes, busy []float64
	var last [2]*campaign.Report
	win := startWindow()
	for op := 1; op == 1 || time.Since(win.start) < cfg.window; op++ {
		mode := modes[op%len(modes)]
		tr, p := (*tracer)(nil), (*telemetry.Tracer)(nil)
		if mode == "traced" {
			tr, p = cfg.tr, prog
		}
		var before float64
		var err error
		if mode != "plain" {
			if before, err = cellSeconds(tel); err != nil {
				return nil, err
			}
		}
		res.attempted++
		id, spanStart := tr.begin()
		var reps [2]*campaign.Report
		wall, adj := win.op(func() { reps, err = exhaustiveOp(ctx, runners[mode], st.specs, tr, p, op, id) })
		tr.end(id, spanStart, 0, op, "op")
		var write time.Duration
		if err == nil {
			write, err = st.verify(reps)
		}
		if err != nil {
			res.fail(cfg.log, "%v", err)
			continue
		}
		lat[mode], raw[mode] = append(lat[mode], ms(adj)), append(raw[mode], ms(wall))
		writes = append(writes, ms(write))
		last = reps
		if mode != "plain" {
			after, err := cellSeconds(tel)
			if err != nil {
				return nil, err
			}
			busy = append(busy, (after-before)/(exhaustiveWorkers*wall.Seconds()))
		}
	}
	ws := win.end()
	if !cfg.traced {
		res.endToEnd(lat["plain"], raw["plain"], writes, ws)
		return res, nil
	}

	v := res.values
	v["runtime.gc_cpu_fraction"] = ws.gcCPU
	res.record["window_steal_share"] = ws.stolen
	var classes, steps, saved [2]float64
	for i, rep := range last {
		for _, c := range rep.Cells {
			classes[i] += float64(c.Exhaustive.Classes)
			steps[i] += float64(c.Exhaustive.Steps)
			saved[i] += float64(c.Exhaustive.StepsSaved)
		}
	}
	v["engine.memo.classes"] = classes[0] + classes[1]
	v["engine.memo.steps"] = steps[0] + steps[1]
	v["engine.memo.collapse_ratio"] = ratio(saved[0]+saved[1], steps[0]+steps[1]+saved[0]+saved[1])
	for i, name := range passNames {
		v["engine.memo."+name+".collapse_ratio"] = ratio(saved[i], steps[i]+saved[i])
	}
	v["campaign.busy_ratio"] = median(busy)
	v["telemetry.on_off_ratio"] = ratio(median(lat["metrics"]), median(lat["plain"]))
	v["trace.overhead_ratio"] = ratio(median(lat["traced"]), median(lat["plain"]))
	res.record["op_samples_by_mode"] = map[string]int{
		"plain": len(lat["plain"]), "metrics": len(lat["metrics"]), "traced": len(lat["traced"])}
	memoLayers(cfg, st, res)
	return res, nil
}

// memoLayers splits every job of both passes into engine and callback
// time on one goroutine and fills the per-class metrics.
func memoLayers(cfg config, st *exhaustiveState, res *result) {
	v := res.values
	var sp [2]memoSplit
	for i, spec := range st.specs {
		res.attempted++
		id, spanStart := cfg.tr.begin()
		s, err := splitMemo(spec, cfg.tr, id)
		cfg.tr.end(id, spanStart, 0, 0, "split."+passNames[i])
		if err == nil {
			err = s.matches(st.refReps[i])
		}
		if err != nil {
			res.fail(cfg.log, "%s split: %v", passNames[i], err)
			continue
		}
		sp[i] = s
		v["engine.memo."+passNames[i]+".ns_per_class"] = ratio(float64(s.plain.Nanoseconds()), float64(s.classes))
	}
	var allClasses, mallocs, bytesAlloc, gcs, self, callbacks float64
	for _, s := range sp {
		allClasses += float64(s.classes)
		mallocs += float64(s.mallocs)
		bytesAlloc += float64(s.bytes)
		gcs += float64(s.gcs)
		self += ms(s.wrapped - s.cb.protocol())
		callbacks += ms(s.cb.protocol())
	}
	v["engine.memo.allocs_per_class"] = ratio(mallocs, allClasses)
	v["engine.memo.bytes_per_class"] = ratio(bytesAlloc, allClasses)
	v["engine.memo.gc_cycles"] = gcs
	v["engine.memo.self_ms"] = self
	v["protocols.memo_callback_ms"] = callbacks
}

// cellSeconds reads the campaign's summed per-cell wall time. Exhaustive
// cells hold one job each, so it is the summed job time.
func cellSeconds(tel *telemetry.Set) (float64, error) {
	var buf bytes.Buffer
	if err := tel.Registry.WriteText(&buf); err != nil {
		return 0, err
	}
	sums, err := promSums(&buf)
	return sums["wb_campaign_cell_seconds_sum"], err
}

// memoSplit is one pass's jobs re-explored on one goroutine.
type memoSplit struct {
	cells          []campaign.ExhaustiveCell // tallies per cell, to match the report
	classes        int
	plain, wrapped time.Duration // RunAllMemo wall time without and with callback timers
	cb             callbackTimes
	mallocs, bytes uint64
	gcs            uint32
}

// splitMemo rebuilds every job of spec through Spec.Expand and the
// registry and explores each twice with engine.RunAllMemo: once plain,
// between runtime.MemStats reads, and once with timed protocol callbacks.
func splitMemo(spec campaign.Spec, tr *tracer, parent int64) (memoSplit, error) {
	s := memoSplit{cells: make([]campaign.ExhaustiveCell, spec.NumCells())}
	rng := rand.New(rand.NewSource(1))
	for _, job := range spec.Expand() {
		var b builtJob
		var err error
		tr.do("registry.build", parent, 0, func(int64) { b, err = buildJob(spec, job, rng) })
		if err != nil {
			return s, err
		}
		cell := &s.cells[job.Cell]
		visit := func(res *core.Result, mult *big.Int) error {
			w, err := engine.IntFromBig(mult)
			if err != nil {
				return err
			}
			cell.Schedules += w
			if res.Status == core.Success {
				cell.Success += w
			}
			return nil
		}
		opts := engine.Options{Model: b.model, MaxRounds: spec.MaxRounds}
		var m0, m1 runtime.MemStats
		var stats engine.MemoStats
		tr.do("engine.RunAllMemo", parent, 0, func(int64) {
			runtime.ReadMemStats(&m0)
			t := time.Now()
			stats, err = engine.RunAllMemo(b.proto, b.graph, opts, spec.MaxSteps, visit)
			s.plain += time.Since(t)
			runtime.ReadMemStats(&m1)
		})
		if err != nil {
			return s, err
		}
		s.mallocs += m1.Mallocs - m0.Mallocs
		s.bytes += m1.TotalAlloc - m0.TotalAlloc
		s.gcs += m1.NumGC - m0.NumGC
		s.classes += stats.Classes
		cell.Classes += stats.Classes
		cell.Steps += stats.Steps
		tr.do("engine.RunAllMemo.timed", parent, 0, func(int64) {
			t := time.Now()
			_, err = engine.RunAllMemo(timedProtocol{b.proto, &s.cb}, b.graph, opts, spec.MaxSteps,
				func(*core.Result, *big.Int) error { return nil })
			s.wrapped += time.Since(t)
		})
		if err != nil {
			return s, err
		}
	}
	return s, nil
}

// matches checks the split's tallies against the reference report's
// cells, so the split measured the same work the op did.
func (s memoSplit) matches(rep *campaign.Report) error {
	if len(rep.Cells) != len(s.cells) {
		return fmt.Errorf("%d cells, report has %d", len(s.cells), len(rep.Cells))
	}
	for i, c := range rep.Cells {
		got, want := s.cells[i], *c.Exhaustive
		if got.Schedules != want.Schedules || got.Success != want.Success ||
			got.Classes != want.Classes || got.Steps != want.Steps {
			return fmt.Errorf("cell %d (%s/%s n=%d): split tallied %+v, report %+v", i, c.Protocol, c.Graph, c.N, got, want)
		}
	}
	return nil
}
