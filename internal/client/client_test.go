package client

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/resultstore"
	"repro/internal/server"
)

func testSpec() campaign.Spec {
	return campaign.Spec{
		Name:        "client-test",
		Protocols:   []string{"build-forest"},
		Graphs:      []string{"path"},
		Adversaries: []string{"min"},
		Sizes:       []int{4, 5},
	}
}

// newServer spins a real wbserve handler over a fresh store.
func newServer(t *testing.T) (*httptest.Server, *resultstore.Store) {
	t.Helper()
	st, err := resultstore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Stores: []*resultstore.Store{st}, JobWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts, st
}

// TestJobLifecycle drives submit → events → report through a live server
// and checks the downloaded report matches a local run byte for byte.
func TestJobLifecycle(t *testing.T) {
	ts, _ := newServer(t)
	c := New(ts.URL, Options{})
	ctx := t.Context()

	if err := c.Health(ctx); err != nil {
		t.Fatalf("health: %v", err)
	}
	job, err := c.Submit(ctx, testSpec(), "lifecycle")
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.CellsTotal != 2 {
		t.Fatalf("submitted job %+v, want an id and 2 cells", job)
	}

	cells, lastID := 0, 0
	var terminal *Job
	for ev, err := range c.Events(ctx, job.ID, 0) {
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		if ev.ID <= lastID {
			t.Fatalf("event id %d did not advance past %d", ev.ID, lastID)
		}
		lastID = ev.ID
		switch ev.Type {
		case "cell":
			cells++
		case "state":
			terminal = ev.Job
		}
	}
	if cells != 2 || terminal == nil {
		t.Fatalf("stream yielded %d cells, terminal=%v; want 2 cells and a state frame", cells, terminal)
	}
	if terminal.State != StateDone || !terminal.Terminal() {
		t.Fatalf("terminal state %q, want done", terminal.State)
	}

	// Resuming after the first event replays the remainder, no duplicates.
	resumed := 0
	for ev, err := range c.Events(ctx, job.ID, 1) {
		if err != nil {
			t.Fatalf("resumed events: %v", err)
		}
		if ev.ID <= 1 {
			t.Fatalf("resume after 1 replayed event %d", ev.ID)
		}
		resumed++
	}
	if resumed != lastID-1 {
		t.Fatalf("resume yielded %d events, want %d", resumed, lastID-1)
	}

	want, err := campaign.Run(testSpec(), campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	var wantJSON bytes.Buffer
	if err := want.WriteJSON(&wantJSON); err != nil {
		t.Fatal(err)
	}
	got, err := c.Report(ctx, terminal.Ref, "")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != wantJSON.String() {
		t.Error("downloaded report differs from a local run")
	}
	rep, err := c.LoadReport(ctx, terminal.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("LoadReport decoded %d cells, want 2", len(rep.Cells))
	}
	if _, err := c.Trace(ctx, job.ID); err != nil {
		t.Fatalf("trace: %v", err)
	}
}

// TestAPIErrorCarriesEnvelopeCode pins the typed failure contract: the
// server's envelope code comes through for machine dispatch.
func TestAPIErrorCarriesEnvelopeCode(t *testing.T) {
	ts, st := newServer(t)
	c := New(ts.URL, Options{})
	ctx := t.Context()

	rep, err := campaign.Run(testSpec(), campaign.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Save(rep, "taken"); err != nil {
		t.Fatal(err)
	}

	_, err = c.Submit(ctx, testSpec(), "taken")
	var apiErr *APIError
	if !errors.As(err, &apiErr) {
		t.Fatalf("submit with taken label returned %T: %v", err, err)
	}
	if apiErr.Status != http.StatusConflict || apiErr.Code != "label_taken" {
		t.Fatalf("got status=%d code=%q, want 409 label_taken", apiErr.Status, apiErr.Code)
	}

	if _, err := c.Status(ctx, "job-999"); !errors.As(err, &apiErr) || apiErr.Code != "not_found" {
		t.Fatalf("status of unknown job: %v, want not_found envelope", err)
	}
	if _, err := c.Ingest(ctx, rep, "taken"); !errors.As(err, &apiErr) || apiErr.Code != "label_taken" {
		t.Fatalf("ingest under taken label: %v, want label_taken envelope", err)
	}
}

// TestEventsFallbackSentinel pins the answer of a server without the SSE
// route: the events route's own *APIError, not a reconnect loop.
func TestEventsFallbackSentinel(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/campaigns/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		http.NotFound(w, r)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var got error
	for _, err := range New(ts.URL, Options{}).Events(context.Background(), "job-1", 0) {
		got = err
	}
	var apiErr *APIError
	if !errors.As(got, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("events against a server without SSE yielded %v, want a 404 *APIError", got)
	}
}

// TestEventsBoundsEmptyConnections is the regression for a stream that
// ends without a terminal frame and without delivering anything: each
// such connection counts as a failure under the backoff, and Events gives
// up after streamRetries+1 connections instead of reconnecting until the
// context expires.
func TestEventsBoundsEmptyConnections(t *testing.T) {
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/campaigns/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, ": nothing to say\n")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got error
	for _, err := range New(ts.URL, Options{}).Events(ctx, "job-1", 0) {
		got = err
	}
	if got == nil || ctx.Err() != nil {
		t.Fatalf("events yielded %v (context: %v), want a connection failure before the deadline", got, ctx.Err())
	}
	if n := conns.Load(); n != streamRetries+1 {
		t.Fatalf("client made %d connections, want %d", n, streamRetries+1)
	}
}

// TestEventsOversizedFrameEndsStream pins that a frame beyond the scanner's
// 1 MiB buffer ends the iteration with an error on the first connection:
// reconnecting would only replay the same frame.
func TestEventsOversizedFrameEndsStream(t *testing.T) {
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/campaigns/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		conns.Add(1)
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "id: 1\nevent: cell\ndata: "+strings.Repeat("x", 2<<20)+"\n\n")
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var got error
	for _, err := range New(ts.URL, Options{}).Events(ctx, "job-1", 0) {
		got = err
	}
	if !errors.Is(got, bufio.ErrTooLong) {
		t.Fatalf("oversized frame yielded %v, want bufio.ErrTooLong", got)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("client made %d connections for one oversized frame, want 1", n)
	}
}

// TestEventsReconnectResumes breaks the stream mid-job and checks the
// client reconnects with a Last-Event-ID cursor: frames arrive exactly
// once across the drop.
func TestEventsReconnectResumes(t *testing.T) {
	frames := []string{
		"id: 1\nevent: cell\ndata: {\"index\":0,\"total\":2,\"jobs\":1,\"cell\":{}}\n\n",
		"id: 2\nevent: cell\ndata: {\"index\":1,\"total\":2,\"jobs\":1,\"cell\":{}}\n\n",
		"id: 3\nevent: state\ndata: {\"id\":\"job-1\",\"state\":\"done\"}\n\n",
	}
	conns := 0
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/campaigns/job-1/events", func(w http.ResponseWriter, r *http.Request) {
		conns++
		after := 0
		if v := r.Header.Get("Last-Event-ID"); v != "" {
			after, _ = strconv.Atoi(v)
		}
		w.Header().Set("Content-Type", "text/event-stream")
		w.WriteHeader(http.StatusOK)
		for i, f := range frames {
			if i+1 <= after {
				continue
			}
			if conns == 1 && i == 1 {
				return // drop the first connection after one frame
			}
			io.WriteString(w, f)
			w.(http.Flusher).Flush()
		}
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	var ids []int
	for ev, err := range New(ts.URL, Options{}).Events(context.Background(), "job-1", 0) {
		if err != nil {
			t.Fatalf("events: %v", err)
		}
		ids = append(ids, ev.ID)
	}
	if conns != 2 {
		t.Fatalf("client used %d connections, want 2 (drop + resume)", conns)
	}
	if len(ids) != 3 || ids[0] != 1 || ids[1] != 2 || ids[2] != 3 {
		t.Fatalf("got event ids %v, want [1 2 3] exactly once each", ids)
	}
}
