package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/adversary"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// span is one timed call the harness made into a layer: its name, its
// interval in nanoseconds since the trace began, the span that caused it
// (0 for a root) and the op it belongs to.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id and start offset.
func (t *tracer) begin() (int64, int64) {
	if t == nil {
		return 0, 0
	}
	return t.next.Add(1), int64(time.Since(t.t0))
}

// end closes a span opened by begin.
func (t *tracer) end(id, start, parent int64, op int, name string) {
	if t == nil {
		return
	}
	sp := span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: int64(time.Since(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

// do runs f inside a span and passes f the span's id, to parent its
// children.
func (t *tracer) do(name string, parent int64, op int, f func(id int64)) {
	id, start := t.begin()
	f(id)
	t.end(id, start, parent, op, name)
}

// graft copies spans the program recorded into its own tracer (a
// telemetry.Tracer ring) under parent, so one span file holds the
// harness's calls and the program's shard, cell and engine spans.
func (t *tracer) graft(recs []telemetry.SpanRecord, parent int64, op int) {
	if t == nil || len(recs) == 0 {
		return
	}
	ids := make(map[uint64]int64, len(recs))
	for _, r := range recs {
		ids[r.ID] = t.next.Add(1)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, r := range recs {
		p, ok := ids[r.Parent]
		if !ok {
			p = parent
		}
		start := int64(r.Start.Sub(t.t0))
		t.spans = append(t.spans, span{
			ID: ids[r.ID], Parent: p, Op: op, Name: "program." + r.Name,
			Start: start, End: start + int64(r.Seconds*1e9),
		})
	}
}

// selfMillis sums, per span name, the spans' self times: each span's
// duration minus the part its children cover.
func (t *tracer) selfMillis() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]interval{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += float64(selfTime(interval{s.Start, s.End}, children[s.ID])) / 1e6
	}
	return out
}

// write saves the spans, with the per-name self times, as one JSON
// document.
func (t *tracer) write(path string) error {
	self := t.selfMillis()
	t.mu.Lock()
	doc := map[string]any{"started": t.t0.Format(time.RFC3339Nano), "spans": t.spans, "self_ms": self}
	data, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// callbackTimes accumulates the time spent inside protocol and adversary
// callbacks, so a layer's engine time can be split from its callback
// time. It is used from one goroutine at a time.
type callbackTimes struct {
	activate, compose, output, choose time.Duration
}

func (c *callbackTimes) protocol() time.Duration { return c.activate + c.compose + c.output }

// timedProtocol forwards every call to the wrapped protocol, timing the
// three callbacks the engine makes per node and per run.
type timedProtocol struct {
	core.Protocol
	acc *callbackTimes
}

func (p timedProtocol) Activate(v core.NodeView, b *core.Board) bool {
	t := time.Now()
	ok := p.Protocol.Activate(v, b)
	p.acc.activate += time.Since(t)
	return ok
}

func (p timedProtocol) Compose(v core.NodeView, b *core.Board) core.Message {
	t := time.Now()
	m := p.Protocol.Compose(v, b)
	p.acc.compose += time.Since(t)
	return m
}

func (p timedProtocol) Output(n int, b *core.Board) (any, error) {
	t := time.Now()
	out, err := p.Protocol.Output(n, b)
	p.acc.output += time.Since(t)
	return out, err
}

// timedAdversary forwards Choose with timing and passes the wrapped
// adversary's adversary.Faulter through, so a scripted adversary's budget
// fault still fails the run with its cause.
type timedAdversary struct {
	adversary.Adversary
	acc *callbackTimes
}

func (a timedAdversary) Choose(round int, candidates []int, b *core.Board) int {
	t := time.Now()
	w := a.Adversary.Choose(round, candidates, b)
	a.acc.choose += time.Since(t)
	return w
}

func (a timedAdversary) Fault() error {
	if f, ok := a.Adversary.(adversary.Faulter); ok {
		return f.Fault()
	}
	return nil
}

var _ adversary.Faulter = timedAdversary{}

// requestKind names a worker API call by its route, the way the
// per-layer client.requests.<kind> metrics count them.
func requestKind(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/healthz":
		return "health"
	case r.Method == http.MethodPost && p == "/api/v1/campaigns":
		return "submit"
	case strings.HasSuffix(p, "/events"):
		return "events"
	case strings.HasSuffix(p, "/cancel"):
		return "cancel"
	case strings.HasPrefix(p, "/api/v1/campaigns/"):
		return "status"
	case strings.HasPrefix(p, "/api/v1/reports/"):
		return "report"
	default:
		return "other"
	}
}

// clientKinds are the request kinds the fleet coordinator makes.
var clientKinds = []string{"health", "submit", "events", "status", "cancel", "report"}

// recorder is an http.RoundTripper that counts and times the fleet
// coordinator's requests per op, records a span for each, and notes when
// the first cell frame of an event stream arrives.
type recorder struct {
	base http.RoundTripper
	tr   *tracer

	mu         sync.Mutex
	op         int
	parent     int64
	opStart    time.Time
	counts     map[string]int
	firstPost  time.Time // first submit of the op
	firstCell  time.Time // first cell frame after that submit
	submitSeen bool
}

// startOp resets the per-op counters; parent is the op's span.
func (rc *recorder) startOp(op int, parent int64) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	rc.op, rc.parent, rc.opStart = op, parent, time.Now()
	rc.counts = map[string]int{}
	rc.firstPost, rc.firstCell, rc.submitSeen = time.Time{}, time.Time{}, false
}

// opStats returns the op's request counts, the time from op start to the
// first submit, and the time from that submit to the first cell frame.
func (rc *recorder) opStats() (map[string]int, time.Duration, time.Duration) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	var toSubmit, toCell time.Duration
	if !rc.firstPost.IsZero() {
		toSubmit = rc.firstPost.Sub(rc.opStart)
		if !rc.firstCell.IsZero() {
			toCell = rc.firstCell.Sub(rc.firstPost)
		}
	}
	return rc.counts, toSubmit, toCell
}

func (rc *recorder) RoundTrip(r *http.Request) (*http.Response, error) {
	kind := requestKind(r)
	rc.mu.Lock()
	rc.counts[kind]++
	op, parent := rc.op, rc.parent
	if kind == "submit" && !rc.submitSeen {
		rc.submitSeen = true
		rc.firstPost = time.Now()
	}
	rc.mu.Unlock()
	id, start := rc.tr.begin()
	resp, err := rc.base.RoundTrip(r)
	if err != nil || kind != "events" {
		rc.tr.end(id, start, parent, op, "http."+kind)
		return resp, err
	}
	// An event stream's span lasts until its body is closed; its first
	// cell frame marks sse.first_cell_ms.
	resp.Body = &streamBody{ReadCloser: resp.Body, rc: rc, done: func() {
		rc.tr.end(id, start, parent, op, "http.events")
	}}
	return resp, nil
}

// streamBody watches an SSE body for the first cell frame.
type streamBody struct {
	io.ReadCloser
	rc    *recorder
	done  func()
	seen  bool
	close sync.Once
}

func (b *streamBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if !b.seen && bytes.Contains(p[:n], []byte("event: cell")) {
		b.seen = true
		b.rc.mu.Lock()
		if b.rc.firstCell.IsZero() && !b.rc.firstPost.IsZero() {
			b.rc.firstCell = time.Now()
		}
		b.rc.mu.Unlock()
	}
	return n, err
}

func (b *streamBody) Close() error {
	b.close.Do(b.done)
	return b.ReadCloser.Close()
}

// promSums parses Prometheus text exposition and sums each family's
// samples over all label sets, keyed by the sample name (histograms keep
// their _sum and _count suffixes).
func promSums(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q has no value", line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// scrape reads a server's /metrics page.
func scrape(hc *http.Client, baseURL string) (map[string]float64, error) {
	resp, err := hc.Get(baseURL + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return promSums(resp.Body)
}
