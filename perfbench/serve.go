package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/client"
	"repro/internal/resultstore"
	"repro/internal/server"
)

// The serve workload: one op is one HTTP request, sent by two client
// goroutines in a closed loop to one in-process wbserve whose store the
// set-up fills with real campaign reports. The request mix is fixed and
// seeded, and a run sends a fixed number of requests, so two commits
// ingest the same number of runs. Engine, campaign and fabric are idle.

const (
	serveClients   = 2
	serveGroups    = 200 // spec groups in the store at start
	serveRunsPer   = 4   // runs stored per group
	labeledEvery   = 8   // every 8th stored run has a caller-chosen label
	serveReqPerSec = 300 // requests per second of -seconds: the run's fixed request count
	hotDiffPairs   = 32  // diffs drawn from a small hot set, which the LRU keeps
	sampleEvery    = 8   // every 8th report or diff body is checked byte for byte
	warmRequests   = 200
)

// Request kinds and their share of the mix, in percent.
var serveMix = []struct {
	kind  string
	share int
}{
	{"report_json", 30},
	{"report_csv", 10},
	{"not_modified", 20},
	{"list", 10},
	{"list_filtered", 5},
	{"diff", 15},
	{"ingest", 10},
}

// request is one planned request of the mix.
type request struct {
	kind     string
	entry    resultstore.Entry // report, not_modified
	old, new resultstore.Entry // diff
	format   string            // diff: text or json
	offset   int               // list
	protocol string            // list_filtered
	report   int               // ingest: index into the generated reports
}

// serveRotation is the template of each group, cycling: of every ten
// groups four vary the smoke example (16 cells), four the scripted one
// (135 cells) and two the model comparison (384 cells), so a stored run
// holds about 137 cells, as the repository's example campaigns do. The
// rotation is fixed, so every seed stores the same amount of data. Smoke
// stays under half, so the medians of requests whose cost grows with the
// report fall inside the scripted reports' costs, not on the step
// between two templates.
var serveRotation = []string{
	"serve-smoke.json", "serve-scripted.json", "serve-models.json", "serve-smoke.json", "serve-scripted.json",
	"serve-smoke.json", "serve-scripted.json", "serve-models.json", "serve-smoke.json", "serve-scripted.json",
}

// serveSpecs derives the store's spec groups from the seed: seeded
// variants of the frozen example templates, each with its own base seed,
// so every group hashes apart and draws its own graphs and choices.
func serveSpecs(seed int64, groups int) ([]campaign.Spec, error) {
	specs := make([]campaign.Spec, groups)
	for g := range specs {
		spec, err := loadSpec(serveRotation[g%len(serveRotation)])
		if err != nil {
			return nil, err
		}
		spec.Name = fmt.Sprintf("%s-%03d", spec.Name, g)
		spec.BaseSeed = seed<<20 + int64(g)
		specs[g] = spec
	}
	return specs, nil
}

// genMix plans n requests from the seed over the store's initial entries.
// It depends on nothing else, so equal seeds give an identical mix.
func genMix(seed int64, n int, entries []resultstore.Entry, protocols []string, reports int) []request {
	rng := rand.New(rand.NewSource(seed ^ 0x6d6978)) // "mix"
	groups := map[string][]resultstore.Entry{}
	var hashes []string
	for _, e := range entries {
		if _, ok := groups[e.SpecHash]; !ok {
			hashes = append(hashes, e.SpecHash)
		}
		groups[e.SpecHash] = append(groups[e.SpecHash], e)
	}
	formats := []string{"text", "json"}
	pair := func() request {
		g := groups[hashes[rng.Intn(len(hashes))]]
		i := rng.Intn(len(g))
		j := rng.Intn(len(g) - 1)
		if j >= i {
			j++
		}
		return request{kind: "diff", old: g[i], new: g[j], format: formats[rng.Intn(2)]}
	}
	hot := make([]request, hotDiffPairs)
	for i := range hot {
		hot[i] = pair()
	}
	mix := make([]request, n)
	for i := range mix {
		x := rng.Intn(100)
		kind := serveMix[len(serveMix)-1].kind
		for _, m := range serveMix {
			if x < m.share {
				kind = m.kind
				break
			}
			x -= m.share
		}
		switch kind {
		case "report_json", "report_csv", "not_modified":
			mix[i] = request{kind: kind, entry: entries[rng.Intn(len(entries))]}
		case "list":
			mix[i] = request{kind: kind, offset: rng.Intn(len(entries))}
		case "list_filtered":
			mix[i] = request{kind: kind, protocol: protocols[rng.Intn(len(protocols))]}
		case "diff":
			if rng.Intn(4) == 0 {
				mix[i] = hot[rng.Intn(len(hot))]
			} else {
				mix[i] = pair()
			}
		case "ingest":
			mix[i] = request{kind: kind, report: rng.Intn(reports)}
		}
	}
	return mix
}

type serveState struct {
	dir     string
	store   *resultstore.Store
	srv     *server.Server
	hs      *httptest.Server
	hc      *http.Client
	cl      *client.Client
	reports []*campaign.Report
	entries []resultstore.Entry // the store's runs after set-up, in save order
	protos  []string
}

func (s *serveState) close() {
	ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
	defer cancel()
	s.srv.Shutdown(ctx) // bounded by ctx; nothing runs jobs here
	s.hs.Close()
	os.RemoveAll(s.dir)
}

// fillServe builds one serve set-up: the reports, a fresh store holding
// them, a server over it and a warmed-up client.
func fillServe(ctx context.Context, cfg config, rep int) (*serveState, error) {
	groups := serveGroups
	if cfg.short {
		groups = 20
	}
	specs, err := serveSpecs(cfg.seed, groups)
	if err != nil {
		return nil, err
	}
	runner := campaign.NewRunner(campaign.Options{Workers: serveClients})
	s := &serveState{dir: filepath.Join(cfg.workDir, fmt.Sprintf("serve-%d", rep))}
	seen := map[string]bool{}
	for _, spec := range specs {
		r, err := runner.Run(ctx, spec)
		if err != nil {
			return nil, err
		}
		s.reports = append(s.reports, r)
		for _, p := range spec.Protocols {
			if !seen[p] {
				seen[p] = true
				s.protos = append(s.protos, p)
			}
		}
	}
	sort.Strings(s.protos)
	st, err := resultstore.Open(s.dir)
	if err != nil {
		return nil, err
	}
	s.store = st
	for run := 0; run < serveRunsPer; run++ {
		for g, r := range s.reports {
			label := ""
			if (g*serveRunsPer+run)%labeledEvery == labeledEvery-1 {
				label = fmt.Sprintf("v1.%d-g%03d", run, g)
			}
			e, err := st.Save(r, label)
			if err != nil {
				return nil, err
			}
			s.entries = append(s.entries, e)
		}
	}
	s.srv, err = server.New(server.Options{Stores: []*resultstore.Store{st}})
	if err != nil {
		return nil, err
	}
	s.hs = httptest.NewServer(s.srv.Handler())
	tp := &http.Transport{MaxIdleConnsPerHost: serveClients, MaxConnsPerHost: serveClients}
	s.hc = &http.Client{Timeout: 30 * time.Second, Transport: tp}
	s.cl = client.New(s.hs.URL, client.Options{HTTPClient: s.hc})
	if err := waitHealthy(ctx, s.hs.URL); err != nil {
		s.close()
		return nil, err
	}
	warm := genMix(cfg.seed+1, warmRequests, s.entries, s.protos, len(s.reports))
	for _, rq := range warm {
		if rq.kind == "ingest" {
			continue // warm-up leaves the store as set-up made it
		}
		if _, err := s.do(ctx, rq); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up %s: %w", rq.kind, err)
		}
	}
	return s, nil
}

// do sends one request and checks its status. It returns the body of the
// report and diff kinds.
func (s *serveState) do(ctx context.Context, rq request) ([]byte, error) {
	switch rq.kind {
	case "report_json":
		return s.cl.Report(ctx, rq.entry.Ref(), "json")
	case "report_csv":
		return s.cl.Report(ctx, rq.entry.Ref(), "csv")
	case "ingest":
		_, err := s.cl.Ingest(ctx, s.reports[rq.report], "")
		return nil, err
	}
	var target string
	var header http.Header
	want := http.StatusOK
	switch rq.kind {
	case "not_modified":
		target = "/api/v1/reports/" + rq.entry.Ref() + "?format=json"
		header = http.Header{"If-None-Match": {rq.entry.ETag("json")}}
		want = http.StatusNotModified
	case "list":
		target = fmt.Sprintf("/api/v1/reports?limit=20&offset=%d", rq.offset)
	case "list_filtered":
		target = "/api/v1/reports?limit=20&protocol=" + url.QueryEscape(rq.protocol)
	case "diff":
		target = "/api/v1/diff?" + url.Values{
			"old": {rq.old.Ref()}, "new": {rq.new.Ref()}, "format": {rq.format}}.Encode()
	default:
		return nil, fmt.Errorf("unknown request kind %q", rq.kind)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.hs.URL+target, nil)
	if err != nil {
		return nil, err
	}
	for k, v := range header {
		req.Header[k] = v
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d", rq.kind, target, resp.StatusCode, want)
	}
	return body, nil
}

// expected renders, from the store directly, the body a report or diff
// request must return.
func (s *serveState) expected(rq request) ([]byte, error) {
	var buf bytes.Buffer
	switch rq.kind {
	case "report_json", "report_csv":
		rep, err := s.store.LoadEntry(rq.entry)
		if err != nil {
			return nil, err
		}
		err = rep.Render(&buf, strings.TrimPrefix(rq.kind, "report_"))
		return buf.Bytes(), err
	case "diff":
		d, err := s.diff(rq)
		if err != nil {
			return nil, err
		}
		err = d.Render(&buf, rq.format)
		return buf.Bytes(), err
	}
	return nil, nil
}

func (s *serveState) diff(rq request) (*resultstore.Diff, error) {
	oldRep, newRep, err := s.loadPair(rq)
	if err != nil {
		return nil, err
	}
	d := resultstore.DiffReports(oldRep, newRep)
	d.OldRef, d.NewRef = rq.old.Ref(), rq.new.Ref()
	return d, nil
}

func (s *serveState) loadPair(rq request) (*campaign.Report, *campaign.Report, error) {
	oldRep, err := s.store.LoadEntry(rq.old)
	if err != nil {
		return nil, nil, err
	}
	newRep, err := s.store.LoadEntry(rq.new)
	return oldRep, newRep, err
}

// sample is a response body kept for the byte-for-byte check.
type sample struct {
	rq   request
	body []byte
}

// served is what the request loop measured.
type served struct {
	mu       sync.Mutex
	lat      map[string][]float64 // by kind
	traced   []float64            // traced-run requests inside a span
	untraced []float64
	samples  []sample
	failed   int
	probes   map[string][]float64 // traced runs: direct store and render timings
	hits     int                  // traced runs: GetEntry hits among probed refs
	lookups  int
}

// all returns every successful request's latency.
func (m *served) all() []float64 {
	var out []float64
	for _, xs := range m.lat {
		out = append(out, xs...)
	}
	return out
}

func (m *served) add(k string, v float64) {
	m.mu.Lock()
	m.probes[k] = append(m.probes[k], v)
	m.mu.Unlock()
}

func runServe(ctx context.Context, cfg config) (*result, error) {
	st, setupS, err := setup(cfg.setupReps(), func(rep int) (*serveState, error) {
		return fillServe(ctx, cfg, rep)
	}, (*serveState).close)
	if err != nil {
		return nil, err
	}
	defer st.close()
	res := newResult(setupS)
	stat0, err := st.store.Stat()
	if err != nil {
		return nil, err
	}
	n := serveReqPerSec * int(cfg.window/time.Second)
	if cfg.short {
		n = 300
	}
	mix := genMix(cfg.seed, n, st.entries, st.protos, len(st.reports))
	var m0 map[string]float64
	if cfg.traced {
		if m0, err = scrape(st.hc, st.hs.URL); err != nil {
			return nil, err
		}
	}

	m := &served{lat: map[string][]float64{}, probes: map[string][]float64{}}
	var next atomic.Int64
	var wg sync.WaitGroup
	win := startWindow()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(mix) || ctx.Err() != nil {
					return
				}
				serveOne(ctx, cfg, st, m, i, mix[i])
			}
		}()
	}
	wg.Wait()
	// Requests last milliseconds, below the 10 ms ticks of the steal
	// counters, so their latencies are reported as measured; only
	// ops_per_s, over the whole window, is steal-adjusted.
	ws := win.end()

	res.attempted = len(mix)
	res.failed = m.failed
	for _, smp := range m.samples {
		want, err := st.expected(smp.rq)
		if err != nil || !bytes.Equal(want, smp.body) {
			res.fail(cfg.log, "%s body differs from the store's own rendering (err %v)", smp.rq.kind, err)
		}
	}
	all := m.all()
	stat1, err := st.store.Stat()
	if err != nil {
		return nil, err
	}
	res.record["clients"] = serveClients
	res.record["requests"] = n
	res.record["store_start"] = stat0
	res.record["store_end"] = stat1
	cells := 0
	for _, e := range st.entries {
		cells += e.Cells
	}
	res.record["store_cells_per_run"] = ratio(float64(cells), float64(len(st.entries)))
	res.record["store_bytes_per_run"] = ratio(float64(stat0.Bytes), float64(stat0.Reports))
	kinds := map[string]int{}
	for k, xs := range m.lat {
		kinds[k] = len(xs)
	}
	res.record["requests_ok_by_kind"] = kinds
	res.record["bodies_checked"] = len(m.samples)
	if !cfg.traced {
		res.endToEnd(all, all, m.lat["ingest"], ws)
		return res, nil
	}

	v := res.values
	v["runtime.gc_cpu_fraction"] = ws.gcCPU
	res.record["window_steal_share"] = ws.stolen
	for _, k := range serveMix {
		v["server."+k.kind+".p50_ms"] = median(m.lat[k.kind])
	}
	v["trace.overhead_ratio"] = ratio(median(m.traced), median(m.untraced))
	m1, err := scrape(st.hc, st.hs.URL)
	if err != nil {
		return nil, err
	}
	v["store.index_rebuilds"] = ratio(m1["wb_store_index_rebuilds_total"]-m0["wb_store_index_rebuilds_total"], float64(n))
	hits := m1["wb_diff_cache_hits_total"] - m0["wb_diff_cache_hits_total"]
	misses := m1["wb_diff_cache_misses_total"] - m0["wb_diff_cache_misses_total"]
	v["server.diff_cache_hit_ratio"] = ratio(hits, hits+misses)
	v["store.get_entry_hit_ratio"] = ratio(float64(m.hits), float64(m.lookups))
	for name, key := range map[string]string{
		"store.list_ms": "list", "store.resolve_ms": "resolve", "store.load_entry_ms": "load_entry",
		"store.load_spec_ms": "load_spec", "server.render_ms": "render", "server.diff_ms": "diff",
		"server.http_remainder_ms": "remainder",
	} {
		v[name] = median(m.probes[key])
	}
	v["store.bytes_per_run"] = ratio(float64(stat1.Bytes), float64(stat1.Reports))
	// Direct saves come last, so they do not change what the mix saw.
	rng := rand.New(rand.NewSource(cfg.seed))
	var saves []float64
	for i := 0; i < 20; i++ {
		res.attempted++
		id, spanStart := cfg.tr.begin()
		t := time.Now()
		_, err := st.store.Save(st.reports[rng.Intn(len(st.reports))], "")
		saves = append(saves, ms(time.Since(t)))
		cfg.tr.end(id, spanStart, 0, n+i, "store.Save")
		if err != nil {
			res.fail(cfg.log, "direct save: %v", err)
		}
	}
	v["store.save_ms"] = median(saves)
	return res, nil
}

// serveOne sends request i and records it. In traced runs every other
// request runs inside a span, and every eighth is followed by direct
// store and render calls on the same refs.
func serveOne(ctx context.Context, cfg config, st *serveState, m *served, i int, rq request) {
	tr := (*tracer)(nil)
	if cfg.traced && i%2 == 0 {
		tr = cfg.tr
	}
	id, spanStart := tr.begin()
	t := time.Now()
	body, err := st.do(ctx, rq)
	d := ms(time.Since(t))
	tr.end(id, spanStart, 0, i, "request."+rq.kind)
	m.mu.Lock()
	if err != nil {
		m.failed++
		m.mu.Unlock()
		fmt.Fprintf(cfg.log, "wbperf: request %d: %v\n", i, err)
		return
	}
	m.lat[rq.kind] = append(m.lat[rq.kind], d)
	if cfg.traced {
		if tr != nil {
			m.traced = append(m.traced, d)
		} else {
			m.untraced = append(m.untraced, d)
		}
	}
	if rq.kind != "list" && rq.kind != "list_filtered" && body != nil && i%sampleEvery == 0 {
		m.samples = append(m.samples, sample{rq, body})
	}
	m.mu.Unlock()
	if cfg.traced && i%sampleEvery == 1 {
		probeStore(cfg, st, m, i, rq, d)
	}
}

// probeStore times, on the store and codec directly, the work request rq
// made the server do.
func probeStore(cfg config, st *serveState, m *served, op int, rq request, latency float64) {
	timed := func(name string, f func() error) (float64, error) {
		id, spanStart := cfg.tr.begin()
		t := time.Now()
		err := f()
		d := ms(time.Since(t))
		cfg.tr.end(id, spanStart, 0, op, name)
		return d, err
	}
	switch rq.kind {
	case "report_json", "report_csv", "not_modified":
		e := rq.entry
		// The server's lookup: the keyed GetEntry, then Resolve.
		get, err := timed("store.GetEntry", func() error {
			_, err := st.store.GetEntry(e.SpecHash, e.Label)
			return err
		})
		resolve, rerr := timed("store.Resolve", func() error {
			_, err := st.store.Resolve(e.Ref())
			return err
		})
		lookup := get
		m.mu.Lock()
		m.lookups++
		if err == nil {
			m.hits++
		} else {
			lookup += resolve
		}
		m.mu.Unlock()
		m.add("resolve", resolve)
		var rep *campaign.Report
		load, lerr := timed("store.LoadEntry", func() error {
			var err error
			rep, err = st.store.LoadEntry(e)
			return err
		})
		spec, serr := timed("store.LoadSpec", func() error {
			_, err := st.store.LoadSpec(e)
			return err
		})
		if rerr != nil || lerr != nil || serr != nil {
			return
		}
		m.add("load_entry", load)
		m.add("load_spec", spec)
		render, _ := timed("campaign.Report.Render", func() error {
			return rep.Render(io.Discard, "json")
		})
		m.add("render", render)
		if rq.kind == "report_json" {
			m.add("remainder", latency-(lookup+load+render))
		}
	case "list", "list_filtered":
		d, err := timed("store.List", func() error {
			_, err := st.store.List()
			return err
		})
		if err == nil {
			m.add("list", d)
		}
	case "diff":
		oldRep, newRep, err := st.loadPair(rq)
		if err != nil {
			return
		}
		rd, err := timed("resultstore.DiffReports", func() error {
			d := resultstore.DiffReports(oldRep, newRep)
			d.OldRef, d.NewRef = rq.old.Ref(), rq.new.Ref()
			return d.Render(io.Discard, rq.format)
		})
		if err == nil {
			m.add("diff", rd)
		}
	}
}
