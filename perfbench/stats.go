package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1) of values:
// the smallest sample with at least q of all samples at or below it. It
// never interpolates, so every reported latency is one that was observed.
// An empty input gives 0.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is percentile(values, 0.5).
func median(values []float64) float64 { return percentile(values, 0.5) }

// ratio divides num by den, giving 0 when den is 0 so that a layer the
// workload never exercised reads as 0 instead of NaN.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open [start, end) stretch of time, in nanoseconds
// since the trace began.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of children covers.
// Children are clipped to parent and may overlap one another (concurrent
// child calls), so overlapping stretches count once.
func covered(parent interval, children []interval) int64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64
	reach = parent.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		total += c.end - max(c.start, reach)
		reach = c.end
	}
	return total
}

// selfTime is a span's duration minus the part of it its child spans
// cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}
