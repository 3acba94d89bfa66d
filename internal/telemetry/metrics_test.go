package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestExpositionGolden pins the Prometheus text rendering byte for byte:
// HELP/TYPE lines, deterministic family and label ordering, histogram
// bucket cumulativity with an explicit +Inf bound, and label escaping.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("wb_test_events_total", "Events observed.").Add(42)
	rv := r.CounterVec("wb_test_requests_total", "Requests by route.", "route")
	rv.With("GET /api/v1/reports").Add(3)
	rv.With("GET /api/v1/diff").Add(7)
	rv.With(`odd"route\with` + "\n").Inc()
	r.Gauge("wb_test_in_flight", "In-flight requests.").Set(2)
	h := r.Histogram("wb_test_seconds", "Latency in seconds.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	hv := r.HistogramVec("wb_test_sized_seconds", "Labeled latency.", []float64{0.5}, "op")
	hv.With("load").Observe(0.25)
	hv.With("save").Observe(5)

	checkGolden(t, r, "exposition.golden")
}

// TestNewSetGolden pins the zero-value exposition of a fresh NewSet: every
// family the stack registers, with its help text and type, so adding or
// removing one shows up as a reviewed golden diff.
func TestNewSetGolden(t *testing.T) {
	checkGolden(t, NewSet().Registry, "newset.golden")
}

// checkGolden compares r's exposition with testdata/name byte for byte,
// rewriting the file first under -update.
func checkGolden(t *testing.T, r *Registry, name string) {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	golden := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test ./internal/telemetry -update)", err)
	}
	if got != string(want) {
		t.Errorf("exposition drifted from %s (regenerate with -update if intended):\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

// TestHistogramBucketing pins the le boundary rule: a value equal to a
// bound lands in that bound's bucket, values beyond every bound land in
// +Inf only.
func TestHistogramBucketing(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("wb_test_h", "h", []float64{1, 2})
	h.Observe(1) // exactly on the first bound
	h.Observe(2) // exactly on the second
	h.Observe(3) // beyond all bounds
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		`wb_test_h_bucket{le="1"} 1`,
		`wb_test_h_bucket{le="2"} 2`,
		`wb_test_h_bucket{le="+Inf"} 3`,
		`wb_test_h_sum 6`,
		`wb_test_h_count 3`,
	} {
		if !strings.Contains(b.String(), line) {
			t.Errorf("exposition missing %q:\n%s", line, b.String())
		}
	}
}

// TestNilInstrumentsAreInert pins the Nop contract: every recording and
// reading method on nil instruments and nil groups is a no-op.
func TestNilInstrumentsAreInert(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter holds a value")
	}
	var g *Gauge
	g.Set(3)
	g.Add(-1)
	_ = g.Value()
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram holds observations")
	}
	Nop.HTTP.Request("GET /x", 0.1)
	Nop.HTTP.InFlightAdd(1)
	Nop.Engine.RunDone(10)
	Nop.Engine.ExhaustiveDone(1, 2, 3, 4)
	Nop.Campaign.JobDone()
	Nop.Campaign.CellDone(0.5)
	if Nop.Campaign.EngineMetrics() != nil {
		t.Error("Nop campaign group leaks an engine group")
	}
	Nop.Store.Ingest()
	Nop.Store.GCRemoved(2)
	Nop.Jobs.Submitted()
	Nop.Jobs.Finished("done")
}

// TestCounterNeverDecreases pins that negative adds are discarded.
func TestCounterNeverDecreases(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3)
	if c.Value() != 5 {
		t.Errorf("counter = %d after negative add, want 5", c.Value())
	}
}

// TestRegistryReregistration pins idempotent registration: asking for the
// same family twice returns the same instrument, and a kind mismatch
// panics instead of silently splitting the series.
func TestRegistryReregistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("wb_test_x_total", "x")
	b := r.Counter("wb_test_x_total", "x")
	a.Add(2)
	if b.Value() != 2 {
		t.Error("re-registration returned a distinct counter")
	}
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("wb_test_x_total", "x")
}

// TestConcurrentRecording hammers every instrument kind from parallel
// goroutines; under -race this pins the atomic hot paths, and the exact
// totals pin that no increment is lost.
func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("wb_test_c_total", "c")
	g := r.Gauge("wb_test_g", "g")
	h := r.Histogram("wb_test_h_seconds", "h", DefLatencyBounds)
	cv := r.CounterVec("wb_test_cv_total", "cv", "k")
	hv := r.HistogramVec("wb_test_hv_seconds", "hv", []float64{0.5}, "k")

	const goroutines, iters = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(float64(i%7) / 10)
				cv.With("a").Inc()
				cv.With("b").Add(2)
				hv.With("x").Observe(0.25)
			}
		}(w)
	}
	// One goroutine scrapes concurrently: exposition must never race with
	// recording even if the snapshot it renders is torn.
	stop := make(chan struct{})
	var scrape sync.WaitGroup
	scrape.Add(1)
	go func() {
		defer scrape.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var b strings.Builder
				_ = r.WriteText(&b)
			}
		}
	}()
	wg.Wait()
	close(stop)
	scrape.Wait()

	if got := c.Value(); got != goroutines*iters {
		t.Errorf("counter = %d, want %d", got, goroutines*iters)
	}
	if got := g.Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	if got := h.Count(); got != goroutines*iters {
		t.Errorf("histogram count = %d, want %d", got, goroutines*iters)
	}
	if a, b := cv.With("a").Value(), cv.With("b").Value(); a != goroutines*iters || b != 2*goroutines*iters {
		t.Errorf("vec children a=%d b=%d, want %d and %d", a, b, goroutines*iters, 2*goroutines*iters)
	}
	if got := hv.With("x").Count(); got != goroutines*iters {
		t.Errorf("labeled histogram count = %d, want %d", got, goroutines*iters)
	}
}
