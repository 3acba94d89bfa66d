package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/telemetry"
)

// sseFrame is one parsed Server-Sent Event.
type sseFrame struct {
	id    int
	event string
	data  string
}

// parseSSE decodes a complete SSE stream body into frames, ignoring
// comments and retry hints.
func parseSSE(t *testing.T, body string) []sseFrame {
	t.Helper()
	var frames []sseFrame
	var cur sseFrame
	for _, line := range strings.Split(body, "\n") {
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				frames = append(frames, cur)
			}
			cur = sseFrame{}
		case strings.HasPrefix(line, ":"), strings.HasPrefix(line, "retry:"):
		case strings.HasPrefix(line, "id:"):
			n, err := strconv.Atoi(strings.TrimSpace(line[len("id:"):]))
			if err != nil {
				t.Fatalf("bad id line %q: %v", line, err)
			}
			cur.id = n
		case strings.HasPrefix(line, "event:"):
			cur.event = strings.TrimSpace(line[len("event:"):])
		case strings.HasPrefix(line, "data:"):
			cur.data = strings.TrimSpace(line[len("data:"):])
		default:
			t.Fatalf("unexpected SSE line %q", line)
		}
	}
	return frames
}

// TestHubFanoutConcurrentSubscribers pins fan-out rule 1: every attached
// subscriber receives every published frame, identical bytes in
// identical order, while all of them drain concurrently with the
// publisher (exercised under -race by the CI race job).
func TestHubFanoutConcurrentSubscribers(t *testing.T) {
	tel := telemetry.NewSet()
	h := newEventHub(tel.SSE)
	const nSubs, nEvents = 8, 60 // < subscriberBuffer: no drain pace can evict
	subs := make([]*hubSub, nSubs)
	for i := range subs {
		subs[i] = h.subscribe(0)
	}
	got := make([][]string, nSubs)
	var wg sync.WaitGroup
	for i := range subs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for f := range subs[i].ch {
				got[i] = append(got[i], string(f))
			}
		}(i)
	}
	for e := 0; e < nEvents; e++ {
		h.publish(sseEventCell, []byte(fmt.Sprintf(`{"n":%d}`, e)))
	}
	h.close()
	wg.Wait()
	for i := range got {
		if len(got[i]) != nEvents {
			t.Fatalf("subscriber %d received %d/%d events", i, len(got[i]), nEvents)
		}
		if !reflect.DeepEqual(got[i], got[0]) {
			t.Fatalf("subscriber %d saw a different byte stream than subscriber 0", i)
		}
	}
	// Frames carry their 1-based log position as the SSE id.
	for e, frame := range got[0] {
		if !strings.HasPrefix(frame, fmt.Sprintf("id: %d\n", e+1)) {
			t.Fatalf("frame %d = %q, want id %d", e, frame, e+1)
		}
	}
	// Rule 3: a subscriber attaching after close replays everything then
	// EOFs; a resume cursor replays only the suffix.
	late := h.subscribe(0)
	for e := 0; e < nEvents; e++ {
		if frame, ok := <-late.ch; !ok || string(frame) != got[0][e] {
			t.Fatalf("late subscriber replay diverged at frame %d", e)
		}
	}
	if _, ok := <-late.ch; ok {
		t.Fatal("late subscriber's channel did not close after replay")
	}
	resumed := h.subscribe(nEvents - 2)
	var tail []string
	for f := range resumed.ch {
		tail = append(tail, string(f))
	}
	if len(tail) != 2 || !reflect.DeepEqual(tail, got[0][nEvents-2:]) {
		t.Fatalf("resume after id %d replayed %d frames, want the 2-frame suffix", nEvents-2, len(tail))
	}
}

// TestHubEvictsStalledSubscriber pins fan-out rule 2: a subscriber whose
// queue is full at publish time is evicted — dropped event counted,
// channel closed — and publish itself never waits on it, while a healthy
// subscriber keeps receiving everything.
func TestHubEvictsStalledSubscriber(t *testing.T) {
	tel := telemetry.NewSet()
	h := newEventHub(tel.SSE)
	stalled := h.subscribe(0) // never drained
	healthy := h.subscribe(0)
	for i := 0; i < subscriberBuffer; i++ {
		h.publish(sseEventCell, []byte(fmt.Sprintf(`{"n":%d}`, i)))
	}
	for i := 0; i < subscriberBuffer; i++ {
		<-healthy.ch // keep the healthy queue empty; the stalled one is now full
	}
	start := time.Now()
	h.publish(sseEventCell, []byte(`{"over":true}`))
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("publish over a full queue took %v; it must never wait on a consumer", elapsed)
	}
	if frame, ok := <-healthy.ch; !ok || !strings.Contains(string(frame), "over") {
		t.Fatalf("healthy subscriber missed the event that evicted the stalled one: %q", frame)
	}
	// The stalled subscriber keeps its buffered backlog but the channel is
	// closed right after it — evicted, not wedged.
	for i := 0; i < subscriberBuffer; i++ {
		if _, ok := <-stalled.ch; !ok {
			t.Fatalf("stalled subscriber lost buffered frame %d", i)
		}
	}
	if _, ok := <-stalled.ch; ok {
		t.Fatal("stalled subscriber's channel was not closed on eviction")
	}
	reg := tel.Registry
	subscribers := reg.Gauge("wb_sse_subscribers", "").Value()
	events := reg.Counter("wb_sse_events_total", "").Value()
	dropped := reg.Counter("wb_sse_dropped_events_total", "").Value()
	evicted := reg.Counter("wb_sse_evicted_subscribers_total", "").Value()
	if subscribers != 1 || events != int64(subscriberBuffer)+1 || dropped != 1 || evicted != 1 {
		t.Errorf("SSE counts = %d subscribed / %d events / %d dropped / %d evicted, want 1/%d/1/1",
			subscribers, events, dropped, evicted, subscriberBuffer+1)
	}
	// An evicted client that reconnects with its last id loses nothing.
	resumed := h.subscribe(subscriberBuffer)
	if frame, ok := <-resumed.ch; !ok || !strings.Contains(string(frame), "over") {
		t.Fatalf("resume after eviction did not replay the dropped event: %q", frame)
	}
}

// submitJob posts a spec and returns the accepted status document.
func (f *fixture) submitJob(t *testing.T, spec campaign.Spec) jobStatus {
	t.Helper()
	rec := f.do(t, "POST", "/api/v1/campaigns", nil, specBody(t, spec))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", rec.Code, rec.Body.String())
	}
	var st jobStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestStreamedVsStoredEquivalence is the acceptance pin: the job's SSE
// cell events, decoded and re-rendered, are byte-identical to the stored
// report's cells, at any worker count — the stream and the report are two
// views of the same aggregation, never two computations.
func TestStreamedVsStoredEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			f := newFixture(t, Options{JobWorkers: workers})
			spec := smokeSpec()
			spec.Name = "sse-equiv"
			spec.Sizes = []int{4, 5, 6}
			st := f.submitJob(t, spec)
			final := f.pollJob(t, st.ID)
			if final.State != jobDone {
				t.Fatalf("job ended %q: %s", final.State, final.Error)
			}

			// A post-completion subscription replays the whole event log and
			// EOFs, so a plain recorder captures the entire stream.
			rec := f.do(t, "GET", "/api/v1/campaigns/"+st.ID+"/events", nil, nil)
			if rec.Code != 200 || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/event-stream") {
				t.Fatalf("events route: %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
			}
			frames := parseSSE(t, rec.Body.String())
			if len(frames) == 0 {
				t.Fatal("no frames")
			}
			for i, fr := range frames {
				if fr.id != i+1 {
					t.Fatalf("frame %d has id %d, want contiguous 1-based ids", i, fr.id)
				}
			}
			last := frames[len(frames)-1]
			if last.event != sseEventState {
				t.Fatalf("final frame is %q, want the terminal state document", last.event)
			}
			var term jobStatus
			if err := json.Unmarshal([]byte(last.data), &term); err != nil {
				t.Fatal(err)
			}
			if term.State != jobDone || term.Ref != final.Ref {
				t.Errorf("terminal frame %+v disagrees with the status route %+v", term, final)
			}

			// Decode the cell events and re-render them next to the stored
			// report's cells.
			var streamed []campaign.CellResult
			for _, fr := range frames[:len(frames)-1] {
				if fr.event != sseEventCell {
					t.Fatalf("unexpected mid-stream event %q", fr.event)
				}
				var cr campaign.CellResult
				if err := json.Unmarshal([]byte(fr.data), &cr); err != nil {
					t.Fatalf("cell frame %d: %v", fr.id, err)
				}
				streamed = append(streamed, cr)
			}
			sort.Slice(streamed, func(i, j int) bool { return streamed[i].Index < streamed[j].Index })
			rep := f.do(t, "GET", final.ReportURL, nil, nil)
			if rep.Code != 200 {
				t.Fatalf("stored report: %d", rep.Code)
			}
			var stored struct {
				Cells []json.RawMessage `json:"cells"`
			}
			if err := json.Unmarshal(rep.Body.Bytes(), &stored); err != nil {
				t.Fatal(err)
			}
			if len(streamed) != len(stored.Cells) || len(streamed) != 3 {
				t.Fatalf("streamed %d cells, stored %d, want 3", len(streamed), len(stored.Cells))
			}
			for i, cr := range streamed {
				if cr.Index != i || cr.Total != len(stored.Cells) {
					t.Fatalf("cell cursor %d/%d at position %d", cr.Index, cr.Total, i)
				}
				fromStream, err := json.Marshal(cr.Cell)
				if err != nil {
					t.Fatal(err)
				}
				var storedCell campaign.Cell
				if err := json.Unmarshal(stored.Cells[i], &storedCell); err != nil {
					t.Fatal(err)
				}
				fromStore, err := json.Marshal(storedCell)
				if err != nil {
					t.Fatal(err)
				}
				if string(fromStream) != string(fromStore) {
					t.Errorf("cell %d: streamed %s\nstored %s", i, fromStream, fromStore)
				}
			}

			// Last-Event-ID resumes exactly after the cursor: everything
			// before it is skipped, nothing after it is lost.
			cursor := len(frames) - 1
			resume := f.do(t, "GET", "/api/v1/campaigns/"+st.ID+"/events",
				map[string]string{"Last-Event-ID": strconv.Itoa(cursor)}, nil)
			tail := parseSSE(t, resume.Body.String())
			if len(tail) != 1 {
				t.Fatalf("resume after id %d returned %d frames, want only the terminal frame", cursor, len(tail))
			}
			if tail[0].id != cursor+1 || tail[0].event != sseEventState {
				t.Fatalf("resume after id %d returned frame id %d event %q, want the terminal frame",
					cursor, tail[0].id, tail[0].event)
			}
			// A cursor from another stream (or garbage) replays from the start.
			replay := f.do(t, "GET", "/api/v1/campaigns/"+st.ID+"/events",
				map[string]string{"Last-Event-ID": "not-a-number"}, nil)
			if got := parseSSE(t, replay.Body.String()); len(got) != len(frames) {
				t.Errorf("garbage cursor replayed %d frames, want the full %d", len(got), len(frames))
			}
		})
	}
}

// TestJobEventsLiveStream pins the realtime half of the contract through
// the real network stack: while the job is held mid-sweep, a subscriber
// already sees the first completed cell — which also proves the
// instrument middleware forwards Flush (without it the frame would sit
// in the wrapper until the handler returned, i.e. after job completion).
func TestJobEventsLiveStream(t *testing.T) {
	f := newFixture(t, Options{JobWorkers: 1})
	entered := make(chan struct{})
	release := make(chan struct{})
	f.srv.jobs.testHookCell = func(j *campaignJob, cr campaign.CellResult) {
		// Workers=1 completes cells in matrix order: cell 0's event is
		// published before cell 1's hook parks the sweep here.
		if cr.Index == 1 {
			close(entered)
			<-release
		}
	}
	ts := httptest.NewServer(f.srv.Handler())
	defer ts.Close()
	st := f.submitJob(t, smokeSpec())
	<-entered

	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	firstEvent := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event:") {
				firstEvent <- strings.TrimSpace(line[len("event:"):])
				return
			}
		}
		firstEvent <- "<stream ended>"
	}()
	select {
	case ev := <-firstEvent:
		if ev != sseEventCell {
			t.Fatalf("first live event %q, want %q", ev, sseEventCell)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no event arrived while the job was mid-sweep: the stream is being buffered")
	}
	// The job really is still running — the frame beat handler return.
	if cur := f.do(t, "GET", "/api/v1/campaigns/"+st.ID, nil, nil); !strings.Contains(cur.Body.String(), jobRunning) {
		t.Fatalf("job left running state early: %s", cur.Body.String())
	}
	close(release)
	if final := f.pollJob(t, st.ID); final.State != jobDone {
		t.Fatalf("job ended %q", final.State)
	}
	// With the job released, the stream runs to its terminal frame and EOF.
	rest := make(chan bool, 1)
	go func() {
		sawState := false
		for sc.Scan() {
			if strings.Contains(sc.Text(), "event: "+sseEventState) {
				sawState = true
			}
		}
		rest <- sawState
	}()
	select {
	case sawState := <-rest:
		if !sawState {
			t.Error("stream ended without a terminal state frame")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after the job finished")
	}
}

// TestJobEventsUnknown pins the error surface of the two new routes.
func TestJobEventsUnknown(t *testing.T) {
	f := newFixture(t, Options{})
	if rec := f.do(t, "GET", "/api/v1/campaigns/job-999/events", nil, nil); rec.Code != 404 {
		t.Errorf("events for unknown job: %d, want 404", rec.Code)
	}
	if rec := f.do(t, "GET", "/watch/job-999", nil, nil); rec.Code != 404 {
		t.Errorf("watch for unknown job: %d, want 404", rec.Code)
	}
}

// TestWatchPage pins that the embedded page is served for a live job and
// wires itself to the events route.
func TestWatchPage(t *testing.T) {
	f := newFixture(t, Options{})
	st := f.submitJob(t, smokeSpec())
	rec := f.do(t, "GET", "/watch/"+st.ID, nil, nil)
	if rec.Code != 200 || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/html") {
		t.Fatalf("watch page: %d, Content-Type %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	if body := rec.Body.String(); !strings.Contains(body, "EventSource") || !strings.Contains(body, "/events") {
		t.Error("watch page does not attach an EventSource to the events route")
	}
	f.pollJob(t, st.ID)
}

// TestJobProgressMonotone is the regression for cells_done moving
// backwards: with the fix, progress counts completions, so an
// out-of-order completion (cell 1 before cell 0) first reads 1, then 2 —
// never 2 then 1 as the old cr.Index+1 arithmetic reported.
func TestJobProgressMonotone(t *testing.T) {
	f := newFixture(t, Options{JobWorkers: 2})
	cell1Recorded := make(chan struct{})
	f.srv.jobs.testHookCell = func(j *campaignJob, cr campaign.CellResult) {
		switch cr.Index {
		case 0:
			// Park cell 0's completion until cell 1's is recorded, forcing
			// the out-of-order arrival a 2-worker pool merely makes likely.
			<-cell1Recorded
		case 1:
		}
	}
	st := f.submitJob(t, smokeSpec()) // 2 cells, one seed each
	// Wait for the first recorded completion — deterministically cell 1,
	// since cell 0's hook is parked. Completion-counted progress reads 1;
	// the index-derived bug read 2 here (and 1 at the end).
	deadline := time.Now().Add(10 * time.Second)
	var seen []int
	for {
		rec := f.do(t, "GET", "/api/v1/campaigns/"+st.ID, nil, nil)
		var cur jobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &cur); err != nil {
			t.Fatal(err)
		}
		if len(seen) == 0 || cur.CellsDone != seen[len(seen)-1] {
			seen = append(seen, cur.CellsDone)
		}
		if cur.CellsDone > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no cell completion recorded after 10s")
		}
		time.Sleep(time.Millisecond)
	}
	if first := seen[len(seen)-1]; first != 1 {
		t.Errorf("first recorded completion shows cells_done=%d, want 1 (completions, not indices)", first)
	}
	close(cell1Recorded)
	final := f.pollJob(t, st.ID)
	seen = append(seen, final.CellsDone)
	for i := 1; i < len(seen); i++ {
		if seen[i] < seen[i-1] {
			t.Fatalf("cells_done moved backwards: %v", seen)
		}
	}
	if final.State != jobDone || final.CellsDone != final.CellsTotal {
		t.Errorf("final %q %d/%d cells, want done at totals", final.State, final.CellsDone, final.CellsTotal)
	}
}

// TestJobListStateFilter pins the ?state= validation: known states
// filter, anything else — notably near-miss typos — is a 400, never a
// silently empty list.
func TestJobListStateFilter(t *testing.T) {
	f := newFixture(t, Options{})
	st := f.submitJob(t, smokeSpec())
	if final := f.pollJob(t, st.ID); final.State != jobDone {
		t.Fatalf("job ended %q", final.State)
	}
	cases := []struct {
		state      string
		wantStatus int
		wantCount  int // only checked on 200
	}{
		{"running", 200, 0},
		{"done", 200, 1},
		{"failed", 200, 0},
		{"canceled", 200, 0},
		{"runnning", 400, 0}, // the motivating typo
		{"DONE", 400, 0},     // states are lowercase tokens, not case-folded
		{"all", 400, 0},
		{"cancelled", 400, 0},
	}
	for _, tc := range cases {
		t.Run(tc.state, func(t *testing.T) {
			rec := f.do(t, "GET", "/api/v1/campaigns?state="+tc.state, nil, nil)
			if rec.Code != tc.wantStatus {
				t.Fatalf("?state=%s: %d, want %d: %s", tc.state, rec.Code, tc.wantStatus, rec.Body.String())
			}
			if tc.wantStatus != 200 {
				if !strings.Contains(rec.Body.String(), "unknown state") {
					t.Errorf("400 body does not name the problem: %s", rec.Body.String())
				}
				return
			}
			var jl struct {
				Count int `json:"count"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &jl); err != nil {
				t.Fatal(err)
			}
			if jl.Count != tc.wantCount {
				t.Errorf("?state=%s count = %d, want %d", tc.state, jl.Count, tc.wantCount)
			}
		})
	}
}
