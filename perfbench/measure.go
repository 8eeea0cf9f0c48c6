package main

import (
	"bytes"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a percentile before it
// is reported: a tail estimated from fewer is mostly noise.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of
// samples and whether at least minBeyond samples lie beyond it.
func percentile(samples []float64, p float64) (float64, bool) {
	if len(samples) == 0 {
		return 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1], len(s)-rank >= minBeyond
}

// tailLadder lists the tail percentiles tailPercentile considers,
// highest first. It stops at p99 so that a workload's tail keeps one
// meaning while its sample count varies between thousands and tens of
// thousands.
var tailLadder = []float64{0.99, 0.9, 0.5}

// tailPercentile returns the highest percentile of tailLadder that has
// at least minBeyond samples beyond it, and its value. A run of whole
// jobs has too few samples for any tail; it returns their median, as
// p = 0.5, since the slowest of a dozen jobs is noise, not a tail.
func tailPercentile(samples []float64) (p, v float64) {
	for _, p := range tailLadder {
		if v, ok := percentile(samples, p); ok {
			return p, v
		}
	}
	return 0.5, median(samples)
}

// median returns the middle value (the mean of the two middle values
// for an even count); 0 for no samples.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeSetups runs setup n times and returns each duration.
// Every repetition rebuilds the workload's state from scratch; the
// last one's state is what the timed phase uses.
func timeSetups(n int, setup func() error) ([]time.Duration, error) {
	out := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := setup(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start))
	}
	return out, nil
}

// jobLoop calls job with 0, 1, 2, ... while the next call, taking as
// long as the last one did, would end within d; it always calls once.
// It stops at the first error.
func jobLoop(d time.Duration, job func(i int) error) error {
	start := time.Now()
	for i := 0; ; i++ {
		began := time.Now()
		if err := job(i); err != nil {
			return err
		}
		if time.Since(start)+time.Since(began) > d {
			return nil
		}
	}
}

// rssSampler tracks the resident set size of the process while it
// runs, by sampling /proc/self/statm. It reports the median over the
// run's one-second windows of each window's peak: a single highest
// sample hinges on whether two large allocations happen to meet one
// garbage collection, and varies too much from run to run.
type rssSampler struct {
	stop  chan struct{}
	done  chan struct{}
	mu    sync.Mutex
	start time.Time
	cur   int64   // peak of the current window
	peaks []int64 // peaks of the closed windows
}

const (
	rssEvery  = 5 * time.Millisecond
	rssWindow = time.Second
)

// startRSS returns memory freed during set-up to the OS first, so the
// peaks reflect the timed phase, then samples until Stop.
func startRSS() *rssSampler {
	runtime.GC()
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), start: time.Now()}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	rss := residentBytes()
	s.mu.Lock()
	defer s.mu.Unlock()
	if time.Since(s.start) >= time.Duration(len(s.peaks)+1)*rssWindow {
		s.peaks = append(s.peaks, s.cur)
		s.cur = 0
	}
	s.cur = max(s.cur, rss)
}

// Stop ends sampling and returns the median window peak in megabytes.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	peaks := make([]float64, 0, len(s.peaks)+1)
	for _, p := range append(s.peaks, s.cur) {
		peaks = append(peaks, float64(p)/(1<<20))
	}
	return median(peaks)
}

var pageSize = int64(os.Getpagesize())

// residentBytes reads the resident set size; where /proc is missing it
// falls back to the memory the Go runtime holds from the OS.
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err == nil {
		fields := bytes.Fields(raw)
		if len(fields) > 1 {
			if pages, err := strconv.ParseInt(string(fields[1]), 10, 64); err == nil {
				return pages * pageSize
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.Sys - m.HeapReleased)
}
