package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/testutil"
)

// specBody renders a spec as a submission body.
func specBody(t *testing.T, spec campaign.Spec) []byte {
	t.Helper()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// pollJob polls a job's status route until its state leaves "running".
func (f *fixture) pollJob(t *testing.T, id string) jobStatus {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		rec := f.do(t, "GET", "/api/v1/campaigns/"+id, nil, nil)
		if rec.Code != 200 {
			t.Fatalf("status %s: %d: %s", id, rec.Code, rec.Body.String())
		}
		var st jobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		if st.State != jobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 10s: %+v", id, st)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobSubmitToCompletion pins the writable-API tentpole end to end: a
// POST of a spec is accepted asynchronously, progress is observable, and
// the finished report lands in the served store where the existing
// report routes serve it unchanged — byte-identical to a local Run.
func TestJobSubmitToCompletion(t *testing.T) {
	f := newFixture(t, Options{})
	spec := smokeSpec()
	spec.Name = "job-test"
	rec := f.do(t, "POST", "/api/v1/campaigns?label=jobbed", nil, specBody(t, spec))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rec.Code, rec.Body.String())
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || rec.Header().Get("Location") != "/api/v1/campaigns/"+st.ID {
		t.Fatalf("submit response lacks id/Location: %+v, Location %q", st, rec.Header().Get("Location"))
	}
	if st.CellsTotal != 2 || st.JobsTotal != 2 {
		t.Errorf("submitted totals %+v, want 2 cells / 2 jobs", st)
	}

	final := f.pollJob(t, st.ID)
	if final.State != jobDone {
		t.Fatalf("final state %q (%s), want done", final.State, final.Error)
	}
	if final.CellsDone != final.CellsTotal || final.JobsDone != final.JobsTotal {
		t.Errorf("done job progress %+v not at totals", final)
	}
	if final.Ref == "" || final.ReportURL == "" {
		t.Fatalf("done job carries no report ref: %+v", final)
	}

	// The stored report is exactly what a local Run of the spec produces.
	rep := f.do(t, "GET", final.ReportURL, nil, nil)
	if rep.Code != 200 {
		t.Fatalf("report at %s: %d", final.ReportURL, rep.Code)
	}
	want, err := campaign.Run(spec, campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := want.WriteJSON(&direct); err != nil {
		t.Fatal(err)
	}
	if rep.Body.String() != direct.String() {
		t.Error("HTTP-job report differs from a local Run of the same spec")
	}

	// The job listing includes it; the registry counts it.
	list := f.do(t, "GET", "/api/v1/campaigns", nil, nil)
	var jl struct {
		Count int         `json:"count"`
		Jobs  []jobStatus `json:"jobs"`
	}
	if err := json.Unmarshal(list.Body.Bytes(), &jl); err != nil {
		t.Fatal(err)
	}
	if jl.Count != 1 || jl.Jobs[0].ID != st.ID {
		t.Errorf("job listing %+v", jl)
	}
	done := f.do(t, "GET", "/api/v1/campaigns?state=done", nil, nil)
	if err := json.Unmarshal(done.Body.Bytes(), &jl); err != nil {
		t.Fatal(err)
	}
	if jl.Count != 1 {
		t.Errorf("state=done filter found %d jobs", jl.Count)
	}
	if submitted, done := f.counter("wb_jobs_submitted_total"), f.counter("wb_jobs_done_total"); submitted != 1 || done != 1 {
		t.Errorf("job counters %d submitted / %d done, want 1/1", submitted, done)
	}
}

// TestJobSubmitRejections pins the submission error surface.
func TestJobSubmitRejections(t *testing.T) {
	f := newFixture(t, Options{})
	good := specBody(t, smokeSpec())

	if rec := f.do(t, "POST", "/api/v1/campaigns", nil, []byte("{not json")); rec.Code != 400 {
		t.Errorf("garbage body: %d, want 400", rec.Code)
	}
	bad := specBody(t, campaign.Spec{Protocols: []string{"no-such-protocol"},
		Graphs: []string{"path"}, Adversaries: []string{"min"}, Sizes: []int{4}})
	if rec := f.do(t, "POST", "/api/v1/campaigns", nil, bad); rec.Code != 400 {
		t.Errorf("unknown protocol: %d, want 400", rec.Code)
	}
	if rec := f.do(t, "POST", "/api/v1/campaigns?label=sp%20ace", nil, good); rec.Code != 400 {
		t.Errorf("bad label: %d, want 400", rec.Code)
	}
	// "first" already names a stored run of this spec in the fixture.
	if rec := f.do(t, "POST", "/api/v1/campaigns?label=first", nil, good); rec.Code != http.StatusConflict {
		t.Errorf("taken label: %d, want 409", rec.Code)
	}
	// Oversized sweeps are refused at the HTTP boundary: a shared server
	// must not expand a billion-job matrix (or one giant graph) for a
	// one-kilobyte request.
	huge := specBody(t, campaign.Spec{Protocols: []string{"build-forest"},
		Graphs: []string{"path"}, Adversaries: []string{"min"}, Sizes: []int{4},
		Seeds: 2_000_000_000})
	if rec := f.do(t, "POST", "/api/v1/campaigns", nil, huge); rec.Code != 400 {
		t.Errorf("2e9-job spec: %d, want 400", rec.Code)
	}
	bigN := specBody(t, campaign.Spec{Protocols: []string{"build-forest"},
		Graphs: []string{"path"}, Adversaries: []string{"min"}, Sizes: []int{1 << 30}})
	if rec := f.do(t, "POST", "/api/v1/campaigns", nil, bigN); rec.Code != 400 {
		t.Errorf("2^30-node spec: %d, want 400", rec.Code)
	}
	if rec := f.do(t, "GET", "/api/v1/campaigns/job-999", nil, nil); rec.Code != 404 {
		t.Errorf("unknown job: %d, want 404", rec.Code)
	}
	if rec := f.do(t, "POST", "/api/v1/campaigns/job-999/cancel", nil, nil); rec.Code != 404 {
		t.Errorf("cancel unknown job: %d, want 404", rec.Code)
	}

	ro := newFixture(t, Options{ReadOnly: true})
	if rec := ro.do(t, "POST", "/api/v1/campaigns", nil, good); rec.Code != http.StatusForbidden {
		t.Errorf("read-only submit: %d, want 403", rec.Code)
	}
}

// TestJobLabelClaimedByRunningJob pins that a label owned by a job still
// mid-sweep conflicts at submission time — the store alone cannot see it,
// and without the check the duplicate would burn a whole sweep before
// failing at Save.
func TestJobLabelClaimedByRunningJob(t *testing.T) {
	f := newFixture(t, Options{JobWorkers: 1})
	release := make(chan struct{})
	entered := make(chan struct{})
	f.srv.jobs.testHookCell = func(j *campaignJob, cr campaign.CellResult) {
		if j.label == "claimed" && cr.Index == 0 {
			close(entered)
			<-release
		}
	}
	spec := smokeSpec()
	spec.Name = "claimed"
	body := specBody(t, spec)
	first := f.do(t, "POST", "/api/v1/campaigns?label=claimed", nil, body)
	if first.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d", first.Code)
	}
	<-entered
	dup := f.do(t, "POST", "/api/v1/campaigns?label=claimed", nil, body)
	if dup.Code != http.StatusConflict {
		t.Errorf("duplicate label against running job: %d, want 409", dup.Code)
	}
	// A different label for the same spec is fine mid-flight.
	other := f.do(t, "POST", "/api/v1/campaigns?label=other", nil, body)
	if other.Code != http.StatusAccepted {
		t.Errorf("distinct label: %d, want 202", other.Code)
	}
	close(release)
	var st jobStatus
	if err := json.Unmarshal(first.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if final := f.pollJob(t, st.ID); final.State != jobDone {
		t.Fatalf("first job ended %s: %s", final.State, final.Error)
	}
}

// TestJobCancel pins the acceptance contract on the HTTP surface: a
// cancel request against a mid-sweep job stops it within one cell, the
// job reports "canceled" (not lost), and nothing lands in the store.
func TestJobCancel(t *testing.T) {
	f := newFixture(t, Options{JobWorkers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	f.srv.jobs.testHookCell = func(j *campaignJob, cr campaign.CellResult) {
		if cr.Index == 0 {
			close(entered)
			<-release
		}
	}
	spec := smokeSpec()
	spec.Name = "cancel-test"
	spec.Sizes = []int{4, 5, 6} // three cells
	rec := f.do(t, "POST", "/api/v1/campaigns", nil, specBody(t, spec))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	<-entered // the sweep is mid-flight, cell 0 completed
	cancelRec := f.do(t, "POST", "/api/v1/campaigns/"+st.ID+"/cancel", nil, nil)
	if cancelRec.Code != http.StatusAccepted {
		t.Fatalf("cancel: %d: %s", cancelRec.Code, cancelRec.Body.String())
	}
	close(release)
	final := f.pollJob(t, st.ID)
	if final.State != jobCanceled {
		t.Fatalf("final state %q, want canceled", final.State)
	}
	if final.CellsDone >= final.CellsTotal {
		t.Errorf("canceled job claims %d/%d cells", final.CellsDone, final.CellsTotal)
	}
	// No report of the canceled sweep may reach the store.
	entries, err := f.store.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name == "cancel-test" {
			t.Errorf("canceled job leaked report %s into the store", e.Ref())
		}
	}
	// A second cancel of a terminal job conflicts.
	if rec := f.do(t, "POST", "/api/v1/campaigns/"+st.ID+"/cancel", nil, nil); rec.Code != http.StatusConflict {
		t.Errorf("cancel of canceled job: %d, want 409", rec.Code)
	}
	if n := f.counter("wb_jobs_canceled_total"); n != 1 {
		t.Errorf("wb_jobs_canceled_total = %d, want 1", n)
	}
}

// TestJobFailsWhenItsLabelIsTaken drives a job to "failed": its label is
// free at submission, but a run saved under it while the sweep is held
// makes the job's own Save lose the race. The job reports the taken label
// and no ref, and the failure is counted.
func TestJobFailsWhenItsLabelIsTaken(t *testing.T) {
	f := newFixture(t, Options{JobWorkers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	f.srv.jobs.testHookCell = func(j *campaignJob, cr campaign.CellResult) {
		if cr.Index == 0 {
			close(entered)
			<-release
		}
	}
	spec := smokeSpec()
	spec.Name = "raced"
	rec := f.do(t, "POST", "/api/v1/campaigns?label=taken", nil, specBody(t, spec))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rec.Code, rec.Body.String())
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	<-entered
	if _, err := f.store.Save(runCampaign(t, spec), "taken"); err != nil {
		t.Fatal(err)
	}
	close(release)
	final := f.pollJob(t, st.ID)
	if final.State != jobFailed {
		t.Fatalf("final state %q, want failed", final.State)
	}
	if taken := st.SpecHash + "/taken"; !strings.Contains(final.Error, taken) {
		t.Errorf("error %q does not name the taken label %s", final.Error, taken)
	}
	if final.Ref != "" || final.ReportURL != "" {
		t.Errorf("failed job carries ref %q / %q", final.Ref, final.ReportURL)
	}
	if n := f.counter("wb_jobs_failed_total"); n != 1 {
		t.Errorf("wb_jobs_failed_total = %d, want 1", n)
	}
}

// TestShutdownDrainsJobs pins graceful shutdown: Shutdown cancels
// in-flight jobs and waits until each records a terminal "canceled"
// status — drained, not lost — and no job goroutine outlives it.
func TestShutdownDrainsJobs(t *testing.T) {
	f := newFixture(t, Options{JobWorkers: 1})
	entered := make(chan struct{})
	f.srv.jobs.testHookCell = func(j *campaignJob, cr campaign.CellResult) {
		if cr.Index == 0 {
			close(entered)
			// Hold the sweep mid-flight until the shutdown's cancellation
			// reaches the job's context.
			<-f.srv.jobs.ctx.Done()
		}
	}
	spec := smokeSpec()
	spec.Sizes = []int{4, 5, 6}
	rec := f.do(t, "POST", "/api/v1/campaigns", nil, specBody(t, spec))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d", rec.Code)
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	<-entered
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := f.srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	testutil.CheckNoGoroutines(t, "repro/internal/server.(*jobManager)")
	// Shutdown returned, so the terminal state is already recorded.
	got := f.do(t, "GET", "/api/v1/campaigns/"+st.ID, nil, nil)
	var final jobStatus
	if err := json.Unmarshal(got.Body.Bytes(), &final); err != nil {
		t.Fatal(err)
	}
	if final.State != jobCanceled {
		t.Errorf("after shutdown, job state %q, want canceled", final.State)
	}
	// A submission landing after shutdown began must be refused, not
	// 202-accepted and abandoned with the exiting process.
	late := f.do(t, "POST", "/api/v1/campaigns", nil, specBody(t, smokeSpec()))
	if late.Code != http.StatusServiceUnavailable {
		t.Errorf("submit after shutdown: %d, want 503", late.Code)
	}
}

// TestListPagination pins the ?limit=/?offset= window and the RFC 5988
// Link headers on the reports listing.
func TestListPagination(t *testing.T) {
	f := newFixture(t, Options{}) // 3 stored runs
	type listBody struct {
		Total  int        `json:"total"`
		Count  int        `json:"count"`
		Limit  int        `json:"limit"`
		Offset int        `json:"offset"`
		Items  []listItem `json:"reports"`
	}

	// Unpaginated: everything, no Link header.
	rec := f.do(t, "GET", "/api/v1/reports", nil, nil)
	var b listBody
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Total != 3 || b.Count != 3 || rec.Header().Get("Link") != "" {
		t.Errorf("unpaginated: total %d count %d Link %q", b.Total, b.Count, rec.Header().Get("Link"))
	}

	// First page of two: next link, no prev.
	rec = f.do(t, "GET", "/api/v1/reports?limit=2", nil, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	link := rec.Header().Get("Link")
	if b.Total != 3 || b.Count != 2 || b.Limit != 2 || b.Offset != 0 {
		t.Errorf("page 1: %+v", b)
	}
	if link != `</api/v1/reports?limit=2&offset=2>; rel="next"` {
		t.Errorf("page 1 Link %q", link)
	}

	// Second page: one item, prev link, no next.
	rec = f.do(t, "GET", "/api/v1/reports?limit=2&offset=2", nil, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	link = rec.Header().Get("Link")
	if b.Count != 1 || b.Offset != 2 {
		t.Errorf("page 2: %+v", b)
	}
	if link != `</api/v1/reports?limit=2&offset=0>; rel="prev"` {
		t.Errorf("page 2 Link %q", link)
	}

	// A middle page of size 1 carries both relations.
	rec = f.do(t, "GET", "/api/v1/reports?limit=1&offset=1", nil, nil)
	link = rec.Header().Get("Link")
	if !strings.Contains(link, `rel="next"`) || !strings.Contains(link, `rel="prev"`) {
		t.Errorf("middle page Link %q lacks next+prev", link)
	}

	// Filters survive into the links.
	rec = f.do(t, "GET", "/api/v1/reports?spec="+f.e1.SpecHash[:6]+"&limit=1", nil, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if b.Total != 2 || b.Count != 1 {
		t.Errorf("filtered page: %+v", b)
	}
	if link := rec.Header().Get("Link"); !strings.Contains(link, "spec="+f.e1.SpecHash[:6]) {
		t.Errorf("filter dropped from Link %q", link)
	}

	// Out-of-range offsets return an empty page, not an error.
	rec = f.do(t, "GET", "/api/v1/reports?limit=2&offset=50", nil, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &b); err != nil {
		t.Fatal(err)
	}
	if rec.Code != 200 || b.Count != 0 {
		t.Errorf("offset beyond end: code %d body %+v", rec.Code, b)
	}

	// Garbage pagination values are client errors.
	if rec := f.do(t, "GET", "/api/v1/reports?limit=x", nil, nil); rec.Code != 400 {
		t.Errorf("limit=x: %d, want 400", rec.Code)
	}
	if rec := f.do(t, "GET", "/api/v1/reports?offset=-1", nil, nil); rec.Code != 400 {
		t.Errorf("offset=-1: %d, want 400", rec.Code)
	}
}
