package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so sorting matters
	}
	return s
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	if v, ok := percentile(seq(1000), 0.99); v != 990 || !ok {
		t.Errorf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, ok)
	}
	if v, ok := percentile(seq(999), 0.99); v != 990 || ok {
		t.Errorf("p99 of 1..999 = %v, %v; want 990 with only 9 beyond", v, ok)
	}
	for _, tc := range []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{1000, 0.99, 990},
		{999, 0.9, 900},
		{100, 0.9, 90},
		{99, 0.5, 50},
		{20, 0.5, 10},
		{19, 0.5, 10}, // no percentile has ten beyond: the median
		{4, 0.5, 2.5},
	} {
		p, v := tailPercentile(seq(tc.n))
		if p != tc.wantP || v != tc.wantV {
			t.Errorf("tail of 1..%d = p%v %v; want p%v %v", tc.n, p, v, tc.wantP, tc.wantV)
		}
	}
	if p, v := tailPercentile(nil); p != 0.5 || v != 0 {
		t.Errorf("tail of nothing = p%v %v", p, v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	children := []interval{
		{10, 30}, {20, 40}, // overlap: 30 covered, not 40
		{25, 35},   // nested in the union
		{90, 120},  // clipped at the parent's end: 10
		{-5, 5},    // clipped at the parent's start: 5
		{200, 300}, // outside: nothing
	}
	if got := selfTime(0, 100, children); got != 55 {
		t.Errorf("self time = %d, want 100-(30+10+5) = 55", got)
	}
	if got := selfTime(0, 100, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}

	// The same arithmetic through the tracer: a span with a child span
	// and a lane on another goroutine whose calls overlap it.
	tr := newTracer()
	tr.spans = []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "child", Start: 10, End: 50},
	}
	tr.lanes = []*lane{{tr: tr, name: "calls", parent: 1, count: 2, iv: []int64{40, 60, 70, 80}}}
	self := tr.selfTimes()
	if self["parent"] != (selfStat{40e-9, 1}) || self["child"] != (selfStat{40e-9, 1}) {
		t.Errorf("self times = %v, want parent 40ns (100 - [10,60) - [70,80)), child 40ns", self)
	}

	// A lane that dropped intervals leaves its parent without a self
	// time rather than with an overstated one.
	tr.lanes[0].count = 3
	if self := tr.selfTimes(); self["parent"].Spans != 0 || self["child"].Spans != 1 {
		t.Errorf("self times with a partial lane = %v, want no parent entry", self)
	}
}

func TestDurableTrackerMapsSeqToSealTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var d durableTracker
	for seq := uint64(1); seq <= 4; seq++ {
		d.sealed(seq, t0.Add(time.Duration(seq)*time.Millisecond))
	}
	// seq 5 is the fin: spooled, never sealed.
	got := d.advance(3, t0.Add(10*time.Millisecond))
	if want := []float64{9, 8, 7}; !equalFloats(got, want) {
		t.Errorf("advance to 3 = %v, want %v", got, want)
	}
	if got := d.advance(3, t0.Add(20*time.Millisecond)); len(got) != 0 {
		t.Errorf("repeated cursor produced %v", got)
	}
	if got := d.advance(5, t0.Add(30*time.Millisecond)); !equalFloats(got, []float64{26}) {
		t.Errorf("advance past the fin = %v, want [26]", got)
	}
	// Sequences past the current end of the map extend it.
	d.sealed(6, t0)
	if got := d.advance(6, t0.Add(40*time.Millisecond)); !equalFloats(got, []float64{40}) {
		t.Errorf("advance to 6 = %v, want [40]", got)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// tinyScale runs every workload in well under a second of timed phase.
var tinyScale = scale{
	Sessions:     700,
	Specs:        6,
	Clients:      2,
	SampleFrames: 2000,
	IDs:          []string{"fig2", "fig8"},
}

func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			w.setups = 1
			for _, traced := range []bool{false, true} {
				res, err := runWorkload(w, 7, 200*time.Millisecond, traced, t.TempDir(), tinyScale, io.Discard)
				if err != nil {
					t.Fatalf("traced=%v: %v", traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("traced=%v: correct=%v attempted=%d failed=%d", traced, res.Correct, res.Attempted, res.Failed)
				}
				want := len(layerMetrics)
				if !traced {
					want = len(endToEnd(&outcome{}))
				}
				if len(res.Metrics) != want {
					t.Errorf("traced=%v: %d metrics, want %d", traced, len(res.Metrics), want)
				}
				for name, m := range res.Metrics {
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end %s = %v, want > 0", name, m.Value)
					}
				}
			}
		})
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json, which names
// the workloads and metrics for the runner, in step with the code.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in code", i, w.Name, workloads[i].name)
		}
	}
	e2e := endToEnd(&outcome{})
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q in BENCHMARK.json, %q in code", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	if len(doc.PerLayer) != len(layerMetrics) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in code", len(doc.PerLayer), len(layerMetrics))
	}
	for i, m := range doc.PerLayer {
		if i < len(layerMetrics) && (m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit) {
			t.Errorf("per-layer %d: %s [%s] in BENCHMARK.json, %s [%s] in code",
				i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}
