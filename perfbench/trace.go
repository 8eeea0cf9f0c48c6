package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one recorded call into a layer: the benchmark's wrapper
// stamps it on the way in and out. Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// laneCap bounds the intervals one lane keeps: a week of frames fits
// with room to spare, and a run that exceeds it keeps counting.
const laneCap = 1 << 21

// lane records a call repeated per frame or per observation on one
// goroutine (gtpsim's Next, rollup's Observe). Such calls are too many
// to store as spans, so a lane keeps their count and total time and,
// when asked to keep them, the raw intervals, which count as children
// of the lane's parent span in the self-time arithmetic. A parent with
// a lane that dropped intervals gets no self time.
type lane struct {
	tr     *tracer
	name   string
	parent int
	keep   bool
	count  int64
	total  int64
	iv     []int64 // start, end pairs
}

// tracer keeps every span in memory until the run writes them out.
// All methods are safe on a nil tracer, which is what an untraced run
// holds, so workload code calls them unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	lanes []*lane
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: start})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// spanMs returns the length of closed span id in milliseconds.
func (t *tracer) spanMs(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e6
}

// newLane returns a lane whose calls are children of span parent,
// keeping their intervals if keep is set. Use one lane per goroutine.
func (t *tracer) newLane(name string, parent int, keep bool) *lane {
	if t == nil {
		return nil
	}
	l := &lane{tr: t, name: name, parent: parent, keep: keep}
	t.mu.Lock()
	t.lanes = append(t.lanes, l)
	t.mu.Unlock()
	return l
}

// enter stamps the start of one call.
func (l *lane) enter() int64 { return l.tr.now() }

// exit records the call that entered at start and returns its length.
func (l *lane) exit(start int64) int64 {
	end := l.tr.now()
	l.count++
	l.total += end - start
	if l.keep && len(l.iv) < 2*laneCap {
		l.iv = append(l.iv, start, end)
	}
	return end - start
}

// laneTotals sums count and time over every lane with the given name.
func (t *tracer) laneTotals(name string) (count, total int64) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, l := range t.lanes {
		if l.name == name {
			count += l.count
			total += l.total
		}
	}
	return count, total
}

// spanCount is the number of recorded calls, spans and lane calls.
func (t *tracer) spanCount() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := int64(len(t.spans))
	for _, l := range t.lanes {
		n += l.count
	}
	return n
}

// interval is a half-open [start, end) stretch of time in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns how much of [start, end) no child interval covers.
// Children may overlap each other (calls on other goroutines run
// concurrently with the parent's own work and with each other), so the
// covered part is the length of their union, clipped to the parent.
func selfTime(start, end int64, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start, c.end = max(c.start, start), min(c.end, end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return end - start - covered
}

// selfStat is the self time of every span of one name that has it.
type selfStat struct {
	Seconds float64 `json:"seconds"`
	Spans   int     `json:"spans"`
}

// selfTimes returns, per span name, the summed self time of the spans
// of that name: each one's duration minus the union of its child spans
// and child lane calls. Spans with a lane that dropped intervals are
// left out.
func (t *tracer) selfTimes() map[string]selfStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]interval{}
	partial := map[int]bool{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	for _, l := range t.lanes {
		if int64(len(l.iv)/2) != l.count {
			partial[l.parent] = true
		}
		for i := 0; i+1 < len(l.iv); i += 2 {
			children[l.parent] = append(children[l.parent], interval{l.iv[i], l.iv[i+1]})
		}
	}
	out := map[string]selfStat{}
	for _, s := range t.spans {
		if partial[s.ID] {
			continue
		}
		st := out[s.Name]
		st.Seconds += float64(selfTime(s.Start, s.End, children[s.ID])) / 1e9
		st.Spans++
		out[s.Name] = st
	}
	return out
}

// writeFile writes the spans, the lane summaries and the self times
// as one JSON document.
func (t *tracer) writeFile(path string) error {
	self := t.selfTimes()
	type laneSummary struct {
		Name     string `json:"name"`
		Parent   int    `json:"parent"`
		Calls    int64  `json:"calls"`
		TotalNs  int64  `json:"total_ns"`
		Recorded int    `json:"intervals_recorded"`
	}
	t.mu.Lock()
	doc := struct {
		Spans []span              `json:"spans"`
		Lanes []laneSummary       `json:"lanes"`
		Self  map[string]selfStat `json:"self"`
	}{Spans: t.spans, Self: self}
	for _, l := range t.lanes {
		doc.Lanes = append(doc.Lanes, laneSummary{l.name, l.parent, l.count, l.total, len(l.iv) / 2})
	}
	raw, err := json.MarshalIndent(doc, "", " ")
	t.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
