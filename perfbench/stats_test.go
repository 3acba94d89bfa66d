package main

import (
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	values := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 3}, {0.2, 1}, {0.21, 2}, {0.99, 5}, {1, 5}, {0.01, 1},
	} {
		if got := percentile(values, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", values, c.q, got, c.want)
		}
	}
	if values[0] != 5 {
		t.Errorf("percentile sorted its input in place: %v", values)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
	// With 1,000 samples, p99 leaves exactly ten above it.
	many := make([]float64, 1000)
	for i := range many {
		many[i] = float64(i + 1)
	}
	if got := percentile(many, 0.99); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2 {
		t.Errorf("median of an even count = %v, want the lower middle 2", got)
	}
}

func TestRatio(t *testing.T) {
	if got := ratio(3, 4); got != 0.75 {
		t.Errorf("ratio(3, 4) = %v", got)
	}
	if got := ratio(3, 0); got != 0 {
		t.Errorf("ratio(3, 0) = %v, want 0 for an unexercised layer", got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{0, 100}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-50, 10}, {90, 200}}, 80},
		{"outside the parent", []interval{{200, 300}}, 100},
		{"unsorted", []interval{{70, 80}, {0, 10}, {5, 15}}, 75},
		{"covering all", []interval{{0, 100}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTracerSelfMillis(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{ID: 1, Name: "op", Start: 0, End: 10e6},
		{ID: 2, Parent: 1, Name: "call", Start: 1e6, End: 4e6},
		{ID: 3, Parent: 1, Name: "call", Start: 3e6, End: 6e6},
	}
	self := tr.selfMillis()
	if self["op"] != 5 || self["call"] != 6 {
		t.Errorf("self times = %v, want op 5 ms and call 6 ms", self)
	}
	var nilTracer *tracer
	id, start := nilTracer.begin()
	nilTracer.end(id, start, 0, 0, "ignored") // a nil tracer records nothing
}

func TestPromSums(t *testing.T) {
	text := `# HELP wb_a help
# TYPE wb_a counter
wb_a 3
wb_b{route="x"} 2
wb_b{route="y"} 5
wb_h_sum 1.5
wb_h_count 4
`
	got, err := promSums(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"wb_a": 3, "wb_b": 7, "wb_h_sum": 1.5, "wb_h_count": 4}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if _, err := promSums(strings.NewReader("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}
