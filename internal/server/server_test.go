package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
)

// fixture builds a store holding two runs of one spec (diffable) plus one
// run of a second spec, and a server over it.
type fixture struct {
	store *resultstore.Store
	srv   *Server
	// entries in save order: smoke run-1, smoke run-2, other.
	e1, e2, other resultstore.Entry
}

func runCampaign(t *testing.T, spec campaign.Spec) *campaign.Report {
	t.Helper()
	rep, err := campaign.Run(spec, campaign.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func smokeSpec() campaign.Spec {
	return campaign.Spec{
		Name:        "serve-test",
		Protocols:   []string{"build-forest"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min"},
		Sizes:       []int{4, 5},
	}
}

func newFixture(t *testing.T, opts Options) *fixture {
	t.Helper()
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{store: st}
	// The lone run of the second spec goes in first, so the newest spec —
	// what a no-ref diff compares — is the smoke spec with its two runs.
	otherSpec := smokeSpec()
	otherSpec.Protocols = []string{"bfs"}
	otherSpec.Graphs = []string{"cycle"}
	otherSpec.Sizes = []int{5}
	if f.other, err = st.Save(runCampaign(t, otherSpec), "odd"); err != nil {
		t.Fatal(err)
	}
	if f.e1, err = st.Save(runCampaign(t, smokeSpec()), "first"); err != nil {
		t.Fatal(err)
	}
	if f.e2, err = st.Save(runCampaign(t, smokeSpec()), "second"); err != nil {
		t.Fatal(err)
	}
	opts.Stores = append(opts.Stores, st)
	if f.srv, err = New(opts); err != nil {
		t.Fatal(err)
	}
	// Cleanups run last-in first-out: drain every job, bounded, before the
	// TempDir cleanup removes the store a job may still be writing into.
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := f.srv.Shutdown(ctx); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	return f
}

// get performs one request against the in-process handler.
func (f *fixture) do(t *testing.T, method, target string, hdr map[string]string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	var rd *bytes.Reader
	if body == nil {
		rd = bytes.NewReader(nil)
	} else {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, rd)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	f.srv.Handler().ServeHTTP(rec, req)
	return rec
}

// counter reads an unlabeled counter family of the server's registry;
// Registry.Counter returns the cell already registered under the name.
func (f *fixture) counter(name string) int64 {
	return f.srv.Telemetry().Registry.Counter(name, "").Value()
}

// walks counts the stores' freshness walks so far: each is an index hit
// or at least one group rebuild.
func (f *fixture) walks() int64 {
	return f.counter("wb_store_index_hits_total") + f.counter("wb_store_index_rebuilds_total")
}

// TestRoutes is the table-driven pass over every route: status codes,
// content negotiation, filters and 404s on unknown hashes.
func TestRoutes(t *testing.T) {
	f := newFixture(t, Options{})
	smokeHash := f.e1.SpecHash
	cases := []struct {
		name       string
		method     string
		target     string // %H expands to the smoke spec hash
		accept     string
		wantStatus int
		wantCT     string // Content-Type prefix, "" = don't check
		wantBody   string // substring, "" = don't check
		wantAllow  string // Allow header, "" = don't check
	}{
		{name: "list all", method: "GET", target: "/api/v1/reports",
			wantStatus: 200, wantCT: "application/json", wantBody: `"count": 3`},
		{name: "list filter spec prefix", method: "GET", target: "/api/v1/reports?spec=%H",
			wantStatus: 200, wantBody: `"count": 2`},
		{name: "list filter label", method: "GET", target: "/api/v1/reports?label=odd",
			wantStatus: 200, wantBody: `"count": 1`},
		{name: "list filter protocol", method: "GET", target: "/api/v1/reports?protocol=bfs",
			wantStatus: 200, wantBody: `"count": 1`},
		{name: "list filter graph", method: "GET", target: "/api/v1/reports?graph=path",
			wantStatus: 200, wantBody: `"count": 2`},
		{name: "list filter mode", method: "GET", target: "/api/v1/reports?mode=exhaustive",
			wantStatus: 200, wantBody: `"count": 0`},
		{name: "list filter conjunction", method: "GET", target: "/api/v1/reports?protocol=bfs&label=first",
			wantStatus: 200, wantBody: `"count": 0`},
		{name: "report json", method: "GET", target: "/api/v1/reports/%H/first",
			wantStatus: 200, wantCT: "application/json", wantBody: `"protocol": "build-forest"`},
		{name: "report explicit json", method: "GET", target: "/api/v1/reports/%H/first?format=json",
			wantStatus: 200, wantCT: "application/json"},
		{name: "report csv via format", method: "GET", target: "/api/v1/reports/%H/first?format=csv",
			wantStatus: 200, wantCT: "text/csv", wantBody: "protocol,graph,n,adversary"},
		{name: "report csv via accept", method: "GET", target: "/api/v1/reports/%H/first", accept: "text/csv",
			wantStatus: 200, wantCT: "text/csv", wantBody: "build-forest,path"},
		{name: "report abbreviated hash", method: "GET", target: "/api/v1/reports/" + smokeHash[:6] + "/first",
			wantStatus: 200, wantBody: `"protocol": "build-forest"`},
		{name: "report bad format", method: "GET", target: "/api/v1/reports/%H/first?format=xml",
			wantStatus: 400, wantBody: "unknown format"},
		{name: "report unknown hash", method: "GET", target: "/api/v1/reports/feedfacefeed/first",
			wantStatus: 404, wantCT: "application/json", wantBody: "error"},
		{name: "report unknown label", method: "GET", target: "/api/v1/reports/%H/ninetieth",
			wantStatus: 404, wantBody: "error"},
		{name: "report hostile hash", method: "GET", target: "/api/v1/reports/%2e%2e/first",
			wantStatus: 404},
		{name: "diff latest pair text", method: "GET", target: "/api/v1/diff",
			wantStatus: 200, wantCT: "text/plain", wantBody: "no differences"},
		{name: "diff explicit refs", method: "GET", target: "/api/v1/diff?old=first&new=second",
			wantStatus: 200, wantBody: "no differences"},
		{name: "diff json via format", method: "GET", target: "/api/v1/diff?old=first&new=second&format=json",
			wantStatus: 200, wantCT: "application/json", wantBody: `"cells_compared"`},
		{name: "diff json via accept", method: "GET", target: "/api/v1/diff", accept: "application/json",
			wantStatus: 200, wantCT: "application/json", wantBody: `"deltas"`},
		{name: "diff across specs", method: "GET", target: "/api/v1/diff?old=first&new=odd",
			wantStatus: 200, wantBody: "only in"},
		{name: "diff bad format", method: "GET", target: "/api/v1/diff?format=yaml",
			wantStatus: 400, wantBody: "unknown format"},
		{name: "diff one-sided refs", method: "GET", target: "/api/v1/diff?old=first",
			wantStatus: 400, wantBody: "both"},
		{name: "diff unknown ref", method: "GET", target: "/api/v1/diff?old=first&new=nonesuch",
			wantStatus: 404, wantBody: "error"},
		{name: "health", method: "GET", target: "/healthz",
			wantStatus: 200, wantCT: "application/json", wantBody: `"status": "ok"`},
		{name: "metrics", method: "GET", target: "/metrics",
			wantStatus: 200, wantCT: "text/plain", wantBody: "wb_diff_cache_hits_total"},
		{name: "metrics wrong method", method: "DELETE", target: "/metrics",
			wantStatus: 405, wantAllow: "GET"},
		{name: "no json metrics view", method: "GET", target: "/metricsz",
			wantStatus: 404, wantBody: `"not_found"`},
		{name: "unknown route", method: "GET", target: "/api/v1/nothing",
			wantStatus: 404, wantBody: "no route"},
		{name: "method not allowed", method: "DELETE", target: "/api/v1/reports",
			wantStatus: 405},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := strings.ReplaceAll(tc.target, "%H", smokeHash)
			hdr := map[string]string{}
			if tc.accept != "" {
				hdr["Accept"] = tc.accept
			}
			rec := f.do(t, tc.method, target, hdr, nil)
			if rec.Code != tc.wantStatus {
				t.Fatalf("status = %d, want %d; body: %s", rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantCT != "" && !strings.HasPrefix(rec.Header().Get("Content-Type"), tc.wantCT) {
				t.Errorf("content-type = %q, want prefix %q", rec.Header().Get("Content-Type"), tc.wantCT)
			}
			if tc.wantBody != "" && !strings.Contains(rec.Body.String(), tc.wantBody) {
				t.Errorf("body does not contain %q:\n%s", tc.wantBody, rec.Body.String())
			}
			if tc.wantAllow != "" && rec.Header().Get("Allow") != tc.wantAllow {
				t.Errorf("Allow = %q, want %q", rec.Header().Get("Allow"), tc.wantAllow)
			}
		})
	}
}

// TestReportETagRoundTrip pins the conditional-request contract: the
// first response carries a strong per-representation ETag, replaying it
// yields 304 with no body, and the CSV variant has a different tag.
func TestReportETagRoundTrip(t *testing.T) {
	f := newFixture(t, Options{})
	path := "/api/v1/reports/" + f.e1.SpecHash + "/first"
	first := f.do(t, "GET", path, nil, nil)
	if first.Code != 200 {
		t.Fatalf("first GET: %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"`) {
		t.Fatalf("missing or weak ETag %q", etag)
	}
	if cc := first.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("Cache-Control %q is not immutable", cc)
	}
	replay := f.do(t, "GET", path, map[string]string{"If-None-Match": etag}, nil)
	if replay.Code != http.StatusNotModified {
		t.Fatalf("replay with ETag: %d, want 304", replay.Code)
	}
	if replay.Body.Len() != 0 {
		t.Errorf("304 carried a body of %d bytes", replay.Body.Len())
	}
	star := f.do(t, "GET", path, map[string]string{"If-None-Match": "*"}, nil)
	if star.Code != http.StatusNotModified {
		t.Errorf("If-None-Match: * = %d, want 304", star.Code)
	}
	listed := f.do(t, "GET", path, map[string]string{"If-None-Match": `"zzz", ` + etag}, nil)
	if listed.Code != http.StatusNotModified {
		t.Errorf("ETag in a list = %d, want 304", listed.Code)
	}
	csv := f.do(t, "GET", path+"?format=csv", nil, nil)
	if csvTag := csv.Header().Get("ETag"); csvTag == etag {
		t.Errorf("CSV and JSON representations share ETag %q", etag)
	}
	stale := f.do(t, "GET", path, map[string]string{"If-None-Match": `"not-the-tag"`}, nil)
	if stale.Code != 200 {
		t.Errorf("mismatched ETag = %d, want 200", stale.Code)
	}
	// An abbreviated-hash URL is a convenience whose meaning can shift as
	// the store grows: same strong ETag, but revalidate-only caching.
	abbrev := f.do(t, "GET", "/api/v1/reports/"+f.e1.SpecHash[:6]+"/first", nil, nil)
	if cc := abbrev.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("abbreviated-hash Cache-Control = %q, want no-cache", cc)
	}
	if abbrev.Header().Get("ETag") != etag {
		t.Errorf("abbreviated-hash ETag = %q, want %q", abbrev.Header().Get("ETag"), etag)
	}
	// Error responses must never carry cache validators — a 404 pinned as
	// immutable would outlive the transient condition that caused it.
	missing := f.do(t, "GET", "/api/v1/reports/"+f.e1.SpecHash+"/nonesuch", nil, nil)
	if missing.Header().Get("ETag") != "" || missing.Header().Get("Cache-Control") != "" {
		t.Errorf("404 carries cache headers: ETag=%q Cache-Control=%q",
			missing.Header().Get("ETag"), missing.Header().Get("Cache-Control"))
	}
}

// TestDiffCacheAndETag pins the tentpole acceptance behavior: an
// identical diff requested twice is served from the LRU, and replaying
// the returned ETag yields 304.
func TestDiffCacheAndETag(t *testing.T) {
	f := newFixture(t, Options{})
	target := "/api/v1/diff?old=first&new=second"
	first := f.do(t, "GET", target, nil, nil)
	if first.Code != 200 || first.Header().Get("X-Cache") != "MISS" {
		t.Fatalf("first diff: code %d, X-Cache %q", first.Code, first.Header().Get("X-Cache"))
	}
	second := f.do(t, "GET", target, nil, nil)
	if second.Code != 200 || second.Header().Get("X-Cache") != "HIT" {
		t.Fatalf("second diff: code %d, X-Cache %q, want LRU HIT", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cached diff body differs from the computed one")
	}
	if hits, misses := f.counter("wb_diff_cache_hits_total"), f.counter("wb_diff_cache_misses_total"); hits != 1 || misses != 1 {
		t.Errorf("cache counters hits=%d misses=%d, want 1/1", hits, misses)
	}
	etag := first.Header().Get("ETag")
	replay := f.do(t, "GET", target, map[string]string{"If-None-Match": etag}, nil)
	if replay.Code != http.StatusNotModified || replay.Body.Len() != 0 {
		t.Fatalf("diff ETag replay: code %d, body %d bytes, want bare 304", replay.Code, replay.Body.Len())
	}
	// Bare-label refs can come to mean different runs as the store grows:
	// they carry a revalidation-only Cache-Control, and only a request
	// spelling out the full hash/label pair earns the immutable lifetime.
	if cc := first.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("label-ref diff Cache-Control = %q, want no-cache", cc)
	}
	// Refs that resolve to the same pair share a cache slot: the canonical
	// key is the resolved entry pair, not the request spelling.
	canonical := f.do(t, "GET", "/api/v1/diff?old="+f.e1.Ref()+"&new="+f.e2.Ref(), nil, nil)
	if canonical.Header().Get("X-Cache") != "HIT" {
		t.Error("differently spelled refs to the same pair missed the cache")
	}
	if cc := canonical.Header().Get("Cache-Control"); !strings.Contains(cc, "immutable") {
		t.Errorf("fully-qualified diff Cache-Control = %q, want immutable", cc)
	}
	// The no-ref latest-pair diff is mutable by design — the next stored
	// run changes its meaning — so it must not be cached as immutable.
	latest := f.do(t, "GET", "/api/v1/diff", nil, nil)
	if cc := latest.Header().Get("Cache-Control"); cc != "no-cache" {
		t.Errorf("latest-pair diff Cache-Control = %q, want no-cache", cc)
	}
	// The JSON representation is its own cache entry and ETag.
	jsonRec := f.do(t, "GET", target+"&format=json", nil, nil)
	if jsonRec.Header().Get("X-Cache") != "MISS" {
		t.Error("json variant unexpectedly shared the text cache entry")
	}
	if jsonRec.Header().Get("ETag") == etag {
		t.Error("json and text diff representations share an ETag")
	}
}

// TestIngest exercises the POST route: a pushed report lands in the
// store, duplicate labels conflict, garbage is rejected, and a read-only
// server refuses.
func TestIngest(t *testing.T) {
	f := newFixture(t, Options{})
	rep := runCampaign(t, smokeSpec())
	var body bytes.Buffer
	if err := rep.WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	rec := f.do(t, "POST", "/api/v1/reports?label=pushed", nil, body.Bytes())
	if rec.Code != http.StatusCreated {
		t.Fatalf("ingest: %d, body %s", rec.Code, rec.Body.String())
	}
	var saved struct {
		Ref string `json:"ref"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &saved); err != nil {
		t.Fatal(err)
	}
	if want := f.e1.SpecHash + "/pushed"; saved.Ref != want {
		t.Errorf("ingest ref = %q, want %q", saved.Ref, want)
	}
	if _, err := f.store.GetEntry(f.e1.SpecHash, "pushed"); err != nil {
		t.Errorf("pushed report not in store: %v", err)
	}

	dup := f.do(t, "POST", "/api/v1/reports?label=pushed", nil, body.Bytes())
	if dup.Code != http.StatusConflict {
		t.Errorf("duplicate label: %d, want 409", dup.Code)
	}
	bad := f.do(t, "POST", "/api/v1/reports", nil, []byte("{not json"))
	if bad.Code != http.StatusBadRequest {
		t.Errorf("garbage body: %d, want 400", bad.Code)
	}
	unknown := f.do(t, "POST", "/api/v1/reports", nil, []byte(`{"spec":{"protocols":["no-such-protocol"],"graphs":["path"],"adversaries":["min"],"sizes":[4]},"jobs":0,"cells":[],"totals":{"runs":0,"success":0,"deadlock":0,"failed":0}}`))
	if unknown.Code != http.StatusBadRequest {
		t.Errorf("unvalidatable spec: %d, want 400; body %s", unknown.Code, unknown.Body.String())
	}
	badLabel := f.do(t, "POST", "/api/v1/reports?label=sp%20ace", nil, body.Bytes())
	if badLabel.Code != http.StatusBadRequest {
		t.Errorf("bad label: %d, want 400", badLabel.Code)
	}

	ro := newFixture(t, Options{ReadOnly: true})
	refused := ro.do(t, "POST", "/api/v1/reports", nil, body.Bytes())
	if refused.Code != http.StatusForbidden {
		t.Errorf("read-only ingest: %d, want 403", refused.Code)
	}
}

// TestMultiStore mounts two stores: listings merge, lookups fall through
// to the second store, and ingest writes only to the first.
func TestMultiStore(t *testing.T) {
	st1, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st2, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e1, err := st1.Save(runCampaign(t, smokeSpec()), "in-primary")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := st2.Save(runCampaign(t, smokeSpec()), "in-secondary")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Options{Stores: []*resultstore.Store{st1, st2}})
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{srv: srv}
	list := f.do(t, "GET", "/api/v1/reports", nil, nil)
	if !strings.Contains(list.Body.String(), `"count": 2`) {
		t.Errorf("merged listing:\n%s", list.Body.String())
	}
	// A full ref that misses the primary store falls through to the
	// secondary with keyed reads only: neither store walks.
	before := f.walks()
	rep := f.do(t, "GET", "/api/v1/reports/"+e2.SpecHash+"/in-secondary", nil, nil)
	if rep.Code != 200 {
		t.Errorf("secondary-store report: %d", rep.Code)
	}
	if walked := f.walks() - before; walked != 0 {
		t.Errorf("secondary-store report walked the stores %d times", walked)
	}
	diff := f.do(t, "GET", "/api/v1/diff?old=in-primary&new=in-secondary", nil, nil)
	if diff.Code != 200 || !strings.Contains(diff.Body.String(), "no differences") {
		t.Errorf("cross-store diff: %d\n%s", diff.Code, diff.Body.String())
	}
	var body bytes.Buffer
	if err := runCampaign(t, smokeSpec()).WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	if rec := f.do(t, "POST", "/api/v1/reports?label=pushed", nil, body.Bytes()); rec.Code != 201 {
		t.Fatalf("ingest: %d", rec.Code)
	}
	if _, err := st1.GetEntry(e1.SpecHash, "pushed"); err != nil {
		t.Error("ingest did not land in the primary store")
	}
	if _, err := st2.GetEntry(e1.SpecHash, "pushed"); err == nil {
		t.Error("ingest leaked into the secondary store")
	}
}

// TestKeyedRoutesSkipTheWalk counts the store's freshness walks (index
// hits plus group rebuilds) per request: report, 304 and diff requests
// that name runs by hash/label — caller-chosen and run-NNN alike — read
// those envelopes only, a listing walks once, filtered or not, and an
// ingest into an existing group re-checks only that group.
func TestKeyedRoutesSkipTheWalk(t *testing.T) {
	f := newFixture(t, Options{})
	auto, err := f.store.Save(runCampaign(t, smokeSpec()), "")
	if err != nil {
		t.Fatal(err)
	}
	var body bytes.Buffer
	if err := runCampaign(t, smokeSpec()).WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, method, target, etag string
		body                       []byte
		status                     int
		walks                      int64
	}{
		{name: "report caller label", method: "GET", target: "/api/v1/reports/" + f.e1.Ref(), status: 200},
		{name: "report run-NNN", method: "GET", target: "/api/v1/reports/" + auto.Ref() + "?format=csv", status: 200},
		{name: "304 caller label", method: "GET", target: "/api/v1/reports/" + f.other.Ref(), etag: f.other.ETag("json"), status: 304},
		{name: "304 run-NNN", method: "GET", target: "/api/v1/reports/" + auto.Ref(), etag: auto.ETag("json"), status: 304},
		{name: "404 full ref", method: "GET", target: "/api/v1/reports/" + f.e1.SpecHash + "/run-999", status: 404},
		{name: "diff", method: "GET", target: "/api/v1/diff?old=" + f.e1.Ref() + "&new=" + auto.Ref(), status: 200},
		{name: "list", method: "GET", target: "/api/v1/reports?limit=2", status: 200, walks: 1},
		{name: "list filtered", method: "GET", target: "/api/v1/reports?protocol=bfs&graph=cycle", status: 200, walks: 1},
		{name: "ingest into an existing group", method: "POST", target: "/api/v1/reports", body: body.Bytes(), status: 201},
	} {
		hdr := map[string]string{}
		if tc.etag != "" {
			hdr["If-None-Match"] = tc.etag
		}
		before := f.walks()
		rec := f.do(t, tc.method, tc.target, hdr, tc.body)
		if rec.Code != tc.status {
			t.Errorf("%s: status %d, want %d: %s", tc.name, rec.Code, tc.status, rec.Body.String())
		}
		if got := f.walks() - before; got != tc.walks {
			t.Errorf("%s: %d store walks, want %d", tc.name, got, tc.walks)
		}
	}
}
