package server

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/testutil"
)

// TestBodyGoldenFiles pins the bytes of the server's own JSON bodies: one
// page of the report listing, one ingest response and the status of one
// finished job.
func TestBodyGoldenFiles(t *testing.T) {
	f := newFixture(t, Options{})
	list := f.do(t, "GET", "/api/v1/reports?limit=2", nil, nil)
	if list.Code != http.StatusOK {
		t.Fatalf("list: %d: %s", list.Code, list.Body.String())
	}
	testutil.CheckGolden(t, "body_list_page.json", list.Body.Bytes())

	var body bytes.Buffer
	if err := runCampaign(t, smokeSpec()).WriteJSON(&body); err != nil {
		t.Fatal(err)
	}
	ingest := f.do(t, "POST", "/api/v1/reports?label=pushed", nil, body.Bytes())
	if ingest.Code != http.StatusCreated {
		t.Fatalf("ingest: %d: %s", ingest.Code, ingest.Body.String())
	}
	testutil.CheckGolden(t, "body_ingest.json", ingest.Body.Bytes())

	spec := smokeSpec()
	spec.Name = "golden-job"
	st := f.submitJob(t, spec)
	if final := f.pollJob(t, st.ID); final.State != jobDone {
		t.Fatalf("job ended %q (%s)", final.State, final.Error)
	}
	status := f.do(t, "GET", "/api/v1/campaigns/"+st.ID, nil, nil)
	testutil.CheckGolden(t, "body_job_status.json", status.Body.Bytes())
}
