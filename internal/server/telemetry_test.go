package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// TestPrometheusEndpoint pins that /metrics serves the registry in
// Prometheus text format and that the families the CI smoke test greps for
// are present after real traffic.
func TestPrometheusEndpoint(t *testing.T) {
	f := newFixture(t, Options{})
	f.do(t, "GET", "/api/v1/diff", nil, nil)
	f.do(t, "GET", "/api/v1/diff", nil, nil)
	f.do(t, "GET", "/api/v1/reports", nil, nil)

	rec := f.do(t, "GET", "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("Content-Type = %q, want the 0.0.4 text exposition", ct)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"# TYPE wb_http_requests_total counter",
		`wb_http_requests_total{route="GET /api/v1/diff"} 2`,
		"# TYPE wb_http_request_seconds histogram",
		"wb_http_in_flight",
		"wb_diff_cache_hits_total 1",
		"wb_diff_cache_misses_total 1",
		"wb_jobs_submitted_total",
		"wb_store_loads_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestScenarioMetricsStayWithTheirServer builds two servers in one
// process, A and then B, and runs a scripted job on A: A's /metrics counts
// the job's script compiles and evaluator steps, and B's reads zero.
func TestScenarioMetricsStayWithTheirServer(t *testing.T) {
	a := newFixture(t, Options{})
	b := newFixture(t, Options{})
	spec := smokeSpec()
	spec.Adversaries = []string{"script:candidates[0]"}
	if final := a.pollJob(t, a.submitJob(t, spec).ID); final.State != jobDone {
		t.Fatalf("scripted job ended %q (%s)", final.State, final.Error)
	}
	for _, srv := range []struct {
		name    string
		f       *fixture
		counted bool
	}{{"A", a, true}, {"B", b, false}} {
		body := srv.f.do(t, "GET", "/metrics", nil, nil).Body.String()
		for _, family := range []string{"wb_scenario_compiles_total", "wb_scenario_eval_steps_total"} {
			var v int64 = -1
			for _, line := range strings.Split(body, "\n") {
				if rest, ok := strings.CutPrefix(line, family+" "); ok {
					v, _ = strconv.ParseInt(rest, 10, 64)
				}
			}
			if (v > 0) != srv.counted || v < 0 {
				t.Errorf("server %s: %s = %d, want it counted: %v", srv.name, family, v, srv.counted)
			}
		}
	}
}

// TestRequestID pins the middleware's ID plumbing: every response carries
// an X-Request-ID, and an ID supplied by a proxy is echoed, not replaced.
func TestRequestID(t *testing.T) {
	f := newFixture(t, Options{})
	rec := f.do(t, "GET", "/healthz", nil, nil)
	if rec.Header().Get("X-Request-ID") == "" {
		t.Error("response lacks a generated X-Request-ID")
	}
	rec = f.do(t, "GET", "/healthz", map[string]string{"X-Request-ID": "proxy-42"}, nil)
	if got := rec.Header().Get("X-Request-ID"); got != "proxy-42" {
		t.Errorf("X-Request-ID = %q, want the caller's proxy-42", got)
	}
}

// TestJobTrace runs an exhaustive campaign job to completion and pins the
// span tree the trace route serves: a root job span, worker shard spans
// beneath it, engine spans per exhaustive enumeration, and retroactive
// cell spans carrying schedule/step/memo-hit-rate attributes.
func TestJobTrace(t *testing.T) {
	f := newFixture(t, Options{})
	spec := campaign.Spec{
		Name:      "trace-test",
		Protocols: []string{"build-forest"},
		Graphs:    []string{"path"},
		Sizes:     []int{4},
		Mode:      campaign.ModeExhaustive,
	}
	rec := f.do(t, "POST", "/api/v1/campaigns?label=traced", nil, specBody(t, spec))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rec.Code, rec.Body.String())
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if final := f.pollJob(t, st.ID); final.State != jobDone {
		t.Fatalf("job state %q (%s)", final.State, final.Error)
	}

	tr := f.do(t, "GET", "/api/v1/trace/"+st.ID, nil, nil)
	if tr.Code != http.StatusOK {
		t.Fatalf("trace: %d: %s", tr.Code, tr.Body.String())
	}
	var dump struct {
		Trace   string                 `json:"trace"`
		Dropped int64                  `json:"dropped"`
		Spans   []telemetry.SpanRecord `json:"spans"`
	}
	if err := json.Unmarshal(tr.Body.Bytes(), &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Trace != st.ID || dump.Dropped != 0 {
		t.Errorf("trace header %q dropped=%d", dump.Trace, dump.Dropped)
	}
	byName := map[string][]telemetry.SpanRecord{}
	ids := map[uint64]telemetry.SpanRecord{}
	for _, s := range dump.Spans {
		byName[s.Name] = append(byName[s.Name], s)
		ids[s.ID] = s
	}
	if len(byName["job"]) != 1 {
		t.Fatalf("got %d job spans, want 1: %+v", len(byName["job"]), dump.Spans)
	}
	job := byName["job"][0]
	if job.Parent != 0 || job.Attrs["state"] != "done" {
		t.Errorf("job span %+v, want root with state=done", job)
	}
	if len(byName["shard"]) == 0 {
		t.Error("no shard spans recorded")
	}
	for _, s := range byName["shard"] {
		if s.Parent != job.ID {
			t.Errorf("shard span parent %d, want job %d", s.Parent, job.ID)
		}
	}
	if len(byName["engine"]) == 0 {
		t.Error("no engine spans recorded")
	}
	for _, s := range byName["engine"] {
		if parent, ok := ids[s.Parent]; !ok || parent.Name != "shard" {
			t.Errorf("engine span parent %d is not a shard span", s.Parent)
		}
		if s.Attrs["steps"] == nil || s.Attrs["memoized"] != true {
			t.Errorf("engine span attrs %+v lack steps/memoized", s.Attrs)
		}
	}
	if len(byName["cell"]) != 1 {
		t.Fatalf("got %d cell spans, want 1", len(byName["cell"]))
	}
	cell := byName["cell"][0]
	if cell.Parent != job.ID {
		t.Errorf("cell span parent %d, want job %d", cell.Parent, job.ID)
	}
	for _, key := range []string{"protocol", "schedules", "steps", "classes", "memo_hit_rate"} {
		if cell.Attrs[key] == nil {
			t.Errorf("cell span lacks %q attr: %+v", key, cell.Attrs)
		}
	}

	// Unknown jobs 404; the engine counters saw the enumeration.
	if rec := f.do(t, "GET", "/api/v1/trace/job-999", nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("unknown trace: %d, want 404", rec.Code)
	}
	// Exact values, not just family presence: every family is registered
	// (and so present at zero) from the first scrape, so a plumbing break
	// that drops engine counts would still pass a substring check. The
	// build-forest path n=4 enumeration is deterministic: 64 steps over
	// 65 classes.
	body := f.do(t, "GET", "/metrics", nil, nil).Body.String()
	for _, want := range []string{
		"wb_engine_steps_total 64", "wb_engine_memo_classes_total 65",
		"wb_engine_runs_total 1", "wb_campaign_cell_seconds_count 1",
		"wb_campaign_jobs_total 1", "wb_jobs_done_total 1",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q after exhaustive job", want)
		}
	}
}
