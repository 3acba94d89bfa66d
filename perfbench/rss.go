package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// rssEvery is how often the sampler reads the resident set.
const rssEvery = 5 * time.Millisecond

// rssSampler reads the process's resident set size from /proc/self/statm
// every rssEvery until stopped, so a run can report the high-water mark
// of each op rather than of the whole process, whose brief set-up spikes
// vary from run to run.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}

	mu sync.Mutex
	at []time.Time
	mb []float64
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return
	}
	f := bytes.Fields(data)
	if len(f) < 2 {
		return
	}
	pages, err := strconv.ParseFloat(string(f[1]), 64)
	if err != nil {
		return
	}
	mb := pages * float64(os.Getpagesize()) / (1 << 20)
	s.mu.Lock()
	s.at = append(s.at, time.Now())
	s.mb = append(s.mb, mb)
	s.mu.Unlock()
}

// close stops the sampler and waits for it.
func (s *rssSampler) close() {
	close(s.stop)
	<-s.done
}

// peak is the largest sample taken in [from, to], or 0 if none was.
func (s *rssSampler) peak(from, to time.Time) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := 0.0
	for i, t := range s.at {
		if !t.Before(from) && !t.After(to) {
			p = max(p, s.mb[i])
		}
	}
	return p
}

// slicePeaks cuts [from, to] into slices of length d and returns each
// slice's peak.
func (s *rssSampler) slicePeaks(from, to time.Time, d time.Duration) []float64 {
	var out []float64
	for t := from; t.Before(to); t = t.Add(d) {
		end := t.Add(d)
		if end.After(to) {
			end = to
		}
		if p := s.peak(t, end); p > 0 {
			out = append(out, p)
		}
	}
	return out
}
