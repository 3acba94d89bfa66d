package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// decodeEnvelope parses a v1 error body, failing the test on any shape
// deviation: every non-2xx response must carry exactly the envelope.
func decodeEnvelope(t *testing.T, body []byte) errorBody {
	t.Helper()
	var env errorEnvelope
	dec := json.NewDecoder(strings.NewReader(string(body)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("error body is not the envelope: %v\nbody: %s", err, body)
	}
	return env.Error
}

// TestErrorEnvelope is the table-driven pass over every route's failure
// paths: each one must answer with the uniform {"error": {"code",
// "message"}} envelope and the pinned machine code.
func TestErrorEnvelope(t *testing.T) {
	f := newFixture(t, Options{})
	rep := runCampaign(t, smokeSpec())
	repBody, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	specBody, err := json.Marshal(smokeSpec())
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name       string
		method     string
		target     string // %H expands to the smoke spec hash
		body       []byte
		wantStatus int
		wantCode   string
	}{
		{name: "list bad limit", method: "GET", target: "/api/v1/reports?limit=zzz",
			wantStatus: 400, wantCode: ErrCodeBadRequest},
		{name: "list bad offset", method: "GET", target: "/api/v1/reports?offset=-1",
			wantStatus: 400, wantCode: ErrCodeBadRequest},
		{name: "report bad format", method: "GET", target: "/api/v1/reports/%H/first?format=xml",
			wantStatus: 400, wantCode: ErrCodeBadRequest},
		{name: "report unknown hash", method: "GET", target: "/api/v1/reports/beefbeefbeef/first",
			wantStatus: 404, wantCode: ErrCodeNotFound},
		{name: "report unknown label", method: "GET", target: "/api/v1/reports/%H/nobody",
			wantStatus: 404, wantCode: ErrCodeNotFound},
		{name: "diff bad format", method: "GET", target: "/api/v1/diff?format=xml",
			wantStatus: 400, wantCode: ErrCodeBadRequest},
		{name: "diff one-sided refs", method: "GET", target: "/api/v1/diff?old=%H:first",
			wantStatus: 400, wantCode: ErrCodeBadRequest},
		{name: "diff unknown refs", method: "GET", target: "/api/v1/diff?old=beefbeefbeef:x&new=beefbeefbeef:y",
			wantStatus: 404, wantCode: ErrCodeNotFound},
		{name: "ingest bad body", method: "POST", target: "/api/v1/reports",
			body: []byte("{not json"), wantStatus: 400, wantCode: ErrCodeBadRequest},
		{name: "ingest bad spec", method: "POST", target: "/api/v1/reports",
			body: []byte("{}"), wantStatus: 400, wantCode: ErrCodeBadSpec},
		{name: "ingest bad label", method: "POST", target: "/api/v1/reports?label=.dot",
			body: repBody, wantStatus: 400, wantCode: ErrCodeBadLabel},
		{name: "ingest taken label", method: "POST", target: "/api/v1/reports?label=first",
			body: repBody, wantStatus: 409, wantCode: ErrCodeLabelTaken},
		{name: "submit bad body", method: "POST", target: "/api/v1/campaigns",
			body: []byte("{not json"), wantStatus: 400, wantCode: ErrCodeBadRequest},
		{name: "submit invalid spec", method: "POST", target: "/api/v1/campaigns",
			body: []byte(`{"protocols":["no-such-protocol"]}`), wantStatus: 400, wantCode: ErrCodeBadSpec},
		{name: "submit oversized graph", method: "POST", target: "/api/v1/campaigns",
			body:       []byte(`{"protocols":["build-forest"],"graphs":["path"],"adversaries":["min"],"sizes":[2097152]}`),
			wantStatus: 400, wantCode: ErrCodeBadSpec},
		{name: "submit bad script", method: "POST", target: "/api/v1/campaigns",
			body:       []byte(`{"protocols":["bfs"],"graphs":["path"],"adversaries":["script:candiates[0]"],"sizes":[4]}`),
			wantStatus: 400, wantCode: ErrCodeBadScript},
		{name: "submit bad spec script field", method: "POST", target: "/api/v1/campaigns",
			body:       []byte(`{"protocols":["bfs"],"graphs":["path"],"adversaries":["script"],"sizes":[4],"script":"1 +"}`),
			wantStatus: 400, wantCode: ErrCodeBadScript},
		{name: "submit bad label", method: "POST", target: "/api/v1/campaigns?label=bad%21label",
			body: specBody, wantStatus: 400, wantCode: ErrCodeBadLabel},
		{name: "submit reserved label", method: "POST", target: "/api/v1/campaigns?label=run-007",
			body: specBody, wantStatus: 409, wantCode: ErrCodeLabelTaken},
		{name: "submit stored label", method: "POST", target: "/api/v1/campaigns?label=first",
			body: specBody, wantStatus: 409, wantCode: ErrCodeLabelTaken},
		{name: "job list bad state", method: "GET", target: "/api/v1/campaigns?state=runnning",
			wantStatus: 400, wantCode: ErrCodeBadRequest},
		{name: "job status unknown id", method: "GET", target: "/api/v1/campaigns/job-999",
			wantStatus: 404, wantCode: ErrCodeNotFound},
		{name: "job cancel unknown id", method: "POST", target: "/api/v1/campaigns/job-999/cancel",
			wantStatus: 404, wantCode: ErrCodeNotFound},
		{name: "job events unknown id", method: "GET", target: "/api/v1/campaigns/job-999/events",
			wantStatus: 404, wantCode: ErrCodeNotFound},
		{name: "watch unknown id", method: "GET", target: "/watch/job-999",
			wantStatus: 404, wantCode: ErrCodeNotFound},
		{name: "trace unknown id", method: "GET", target: "/api/v1/trace/job-999",
			wantStatus: 404, wantCode: ErrCodeNotFound},
		{name: "method not allowed", method: "DELETE", target: "/api/v1/reports",
			wantStatus: 405, wantCode: ErrCodeMethodNotAllowed},
		{name: "unknown route", method: "GET", target: "/no/such/route",
			wantStatus: 404, wantCode: ErrCodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			target := strings.ReplaceAll(tc.target, "%H", f.e1.SpecHash)
			rec := f.do(t, tc.method, target, nil, tc.body)
			if rec.Code != tc.wantStatus {
				t.Fatalf("%s %s: status %d, want %d\nbody: %s",
					tc.method, target, rec.Code, tc.wantStatus, rec.Body.Bytes())
			}
			if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
				t.Errorf("error Content-Type %q, want application/json", ct)
			}
			got := decodeEnvelope(t, rec.Body.Bytes())
			if got.Code != tc.wantCode {
				t.Errorf("code %q, want %q (message: %s)", got.Code, tc.wantCode, got.Message)
			}
			if got.Message == "" {
				t.Error("envelope message is empty")
			}
		})
	}
}

// TestMemoizeFalseRejected pins the HTTP side of the retired tree-walk
// strategy: a spec asking for memoize:false is a bad spec on both write
// routes — job submission, and ingest of a report stored by the old walk —
// with the field named in the message. Stored runs of that kind are only
// read, never re-entered.
func TestMemoizeFalseRejected(t *testing.T) {
	f := newFixture(t, Options{})
	naiveReport, err := os.ReadFile(filepath.Join("..", "campaign", "testdata", "report_exhaustive_naive.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		target string
		body   []byte
	}{
		{"/api/v1/campaigns", []byte(`{"protocols":["mis"],"graphs":["cycle"],"sizes":[6],"mode":"exhaustive","memoize":false}`)},
		{"/api/v1/reports", naiveReport},
	} {
		rec := f.do(t, "POST", tc.target, nil, tc.body)
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("POST %s: status %d, want 400\nbody: %s", tc.target, rec.Code, rec.Body.Bytes())
		}
		got := decodeEnvelope(t, rec.Body.Bytes())
		if got.Code != ErrCodeBadSpec || !strings.Contains(got.Message, "memoize") {
			t.Errorf("POST %s: envelope %+v, want %s naming memoize", tc.target, got, ErrCodeBadSpec)
		}
	}
}

// TestErrorEnvelopeReadOnly covers the write routes' read-only rejection.
func TestErrorEnvelopeReadOnly(t *testing.T) {
	ro := newFixture(t, Options{ReadOnly: true})
	for _, target := range []string{"/api/v1/reports", "/api/v1/campaigns"} {
		rec := ro.do(t, "POST", target, nil, []byte("{}"))
		if rec.Code != http.StatusForbidden {
			t.Fatalf("POST %s on read-only server: status %d, want 403", target, rec.Code)
		}
		if got := decodeEnvelope(t, rec.Body.Bytes()); got.Code != ErrCodeReadOnly {
			t.Errorf("POST %s: code %q, want %q", target, got.Code, ErrCodeReadOnly)
		}
	}
}

// TestErrorEnvelopeShuttingDown covers the drain rejection of new jobs.
func TestErrorEnvelopeShuttingDown(t *testing.T) {
	f := newFixture(t, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(smokeSpec())
	rec := f.do(t, "POST", "/api/v1/campaigns", nil, body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	if got := decodeEnvelope(t, rec.Body.Bytes()); got.Code != ErrCodeShuttingDown {
		t.Errorf("code %q, want %q", got.Code, ErrCodeShuttingDown)
	}
}

// TestStoreFailureIsLogged pins the one log path: a stored envelope whose
// cell block does not decode answers 500 "internal", and the failure
// reaches Options.Logger as exactly one error-level record. The body names
// neither the store's directory nor its files: only the log does.
func TestStoreFailureIsLogged(t *testing.T) {
	var logs bytes.Buffer
	f := newFixture(t, Options{Logger: slog.New(slog.NewTextHandler(&logs, nil))})
	path := filepath.Join(f.store.Dir(), f.e1.SpecHash, f.e1.Label+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["cells_packed"], err = json.Marshal([]byte("not a cell block")); err != nil {
		t.Fatal(err)
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	rec := f.do(t, "GET", "/api/v1/reports/"+f.e1.Ref(), nil, nil)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt report: status %d, want 500\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	if got := decodeEnvelope(t, rec.Body.Bytes()); got.Code != ErrCodeInternal {
		t.Errorf("code %q, want %q", got.Code, ErrCodeInternal)
	}
	for _, leak := range []string{f.store.Dir(), f.e1.SpecHash, "cell codec"} {
		if strings.Contains(rec.Body.String(), leak) {
			t.Errorf("500 body names %q: %s", leak, rec.Body.Bytes())
		}
	}
	var errs []string
	for _, line := range strings.Split(logs.String(), "\n") {
		if strings.Contains(line, "level=ERROR") {
			errs = append(errs, line)
		}
	}
	if len(errs) != 1 || !strings.Contains(errs[0], "cell codec") {
		t.Errorf("want one error record naming the cell codec, got %d:\n%s", len(errs), logs.String())
	}
}

// TestJobCancelConflictEnvelope covers the 409 on canceling a job that
// has already reached a terminal state.
func TestJobCancelConflictEnvelope(t *testing.T) {
	f := newFixture(t, Options{})
	body, _ := json.Marshal(smokeSpec())
	rec := f.do(t, "POST", "/api/v1/campaigns", nil, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: status %d\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec = f.do(t, "GET", "/api/v1/campaigns/"+st.ID, nil, nil)
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != jobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 10s", st.ID)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rec = f.do(t, "POST", "/api/v1/campaigns/"+st.ID+"/cancel", nil, nil)
	if rec.Code != http.StatusConflict {
		t.Fatalf("cancel terminal job: status %d, want 409\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	if got := decodeEnvelope(t, rec.Body.Bytes()); got.Code != ErrCodeConflict {
		t.Errorf("code %q, want %q", got.Code, ErrCodeConflict)
	}
}

// TestLabelRejectionAllocatesNoJobID pins the regression fixed alongside
// the envelope redesign: a submission whose label is rejected — bad,
// reserved, or already taken — must fail before a job id is allocated,
// so the id sequence is not burned and the job table stays clean.
func TestLabelRejectionAllocatesNoJobID(t *testing.T) {
	f := newFixture(t, Options{})
	body, _ := json.Marshal(smokeSpec())

	for _, tc := range []struct {
		label      string
		wantStatus int
		wantCode   string
	}{
		{"bad!label", 400, ErrCodeBadLabel},
		{"run-001", 409, ErrCodeLabelTaken},
		{"first", 409, ErrCodeLabelTaken}, // stored by the fixture
	} {
		rec := f.do(t, "POST", "/api/v1/campaigns?label="+strings.ReplaceAll(tc.label, "!", "%21"), nil, body)
		if rec.Code != tc.wantStatus {
			t.Fatalf("label %q: status %d, want %d\nbody: %s", tc.label, rec.Code, tc.wantStatus, rec.Body.Bytes())
		}
		if got := decodeEnvelope(t, rec.Body.Bytes()); got.Code != tc.wantCode {
			t.Errorf("label %q: code %q, want %q", tc.label, got.Code, tc.wantCode)
		}
	}

	// No rejected submission above may have touched the job table or the
	// id sequence: the table is empty and the next job is job-001.
	rec := f.do(t, "GET", "/api/v1/campaigns", nil, nil)
	var list struct {
		Count int `json:"count"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 0 {
		t.Fatalf("job table holds %d jobs after rejected submissions, want 0", list.Count)
	}
	rec = f.do(t, "POST", "/api/v1/campaigns", nil, body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("clean submit: status %d\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID != "job-001" {
		t.Fatalf("first successful job got id %q, want job-001: rejected labels burned ids", st.ID)
	}
}

// TestCellRangeSubmission pins the shard-facing server contract: a spec
// carrying a cells range is an ordinary job whose totals reflect the
// range, and an out-of-bounds range is rejected as a bad spec.
func TestCellRangeSubmission(t *testing.T) {
	f := newFixture(t, Options{})
	spec := smokeSpec() // 2 cells
	body := func(start, end int) []byte {
		b, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		m["cells"] = map[string]int{"start": start, "end": end}
		out, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	rec := f.do(t, "POST", "/api/v1/campaigns", nil, body(1, 2))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("range submit: status %d\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.State == jobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("range job still running after 10s")
		}
		time.Sleep(5 * time.Millisecond)
		rec = f.do(t, "GET", "/api/v1/campaigns/"+st.ID, nil, nil)
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
	}
	if st.State != jobDone {
		t.Fatalf("range job ended %s (%s), want done", st.State, st.Error)
	}
	if st.CellsTotal != 1 || st.JobsTotal != 1 {
		t.Errorf("range job totals cells=%d jobs=%d, want 1/1", st.CellsTotal, st.JobsTotal)
	}

	rec = f.do(t, "POST", "/api/v1/campaigns", nil, body(0, 99))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("out-of-bounds range: status %d, want 400\nbody: %s", rec.Code, rec.Body.Bytes())
	}
	if got := decodeEnvelope(t, rec.Body.Bytes()); got.Code != ErrCodeBadSpec {
		t.Errorf("out-of-bounds range: code %q, want %q", got.Code, ErrCodeBadSpec)
	}
}
