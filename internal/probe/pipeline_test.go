package probe_test

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/probe"
	"repro/internal/probe/probetest"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// shardSweep returns the shard counts of the conformance contract —
// 1, 2 and NumCPU — deduplicated for small machines.
func shardSweep() []int {
	counts := []int{1, 2, runtime.NumCPU()}
	seen := map[int]bool{}
	var out []int
	for _, n := range counts {
		if !seen[n] {
			seen[n] = true
			out = append(out, n)
		}
	}
	return out
}

// diffReports reports the first field where two reports disagree, in a
// form small enough to read in a test log.
func diffReports(t *testing.T, want, got *probe.Report) {
	t.Helper()
	for d := services.Direction(0); d < services.NumDirections; d++ {
		if want.TotalBytes[d] != got.TotalBytes[d] {
			t.Errorf("%v TotalBytes: %v != %v", d, got.TotalBytes[d], want.TotalBytes[d])
		}
		if want.ClassifiedBytes[d] != got.ClassifiedBytes[d] {
			t.Errorf("%v ClassifiedBytes: %v != %v", d, got.ClassifiedBytes[d], want.ClassifiedBytes[d])
		}
		if !reflect.DeepEqual(want.SvcBytes[d], got.SvcBytes[d]) {
			t.Errorf("%v SvcBytes differ: %d vs %d services", d, len(got.SvcBytes[d]), len(want.SvcBytes[d]))
		}
		if !reflect.DeepEqual(want.SvcCommuneBytes[d], got.SvcCommuneBytes[d]) {
			t.Errorf("%v SvcCommuneBytes differ", d)
		}
		if !reflect.DeepEqual(want.SvcSeries[d], got.SvcSeries[d]) {
			t.Errorf("%v SvcSeries differ", d)
		}
		if !reflect.DeepEqual(want.SvcClassSeries[d], got.SvcClassSeries[d]) {
			t.Errorf("%v SvcClassSeries differ", d)
		}
	}
	for _, c := range []struct {
		name      string
		want, got int
	}{
		{"DecodeErrors", want.DecodeErrors, got.DecodeErrors},
		{"UnknownTEID", want.UnknownTEID, got.UnknownTEID},
		{"UnknownCell", want.UnknownCell, got.UnknownCell},
		{"ControlMessages", want.ControlMessages, got.ControlMessages},
		{"UserPlanePackets", want.UserPlanePackets, got.UserPlanePackets},
	} {
		if c.want != c.got {
			t.Errorf("%s: %d != %d", c.name, c.got, c.want)
		}
	}
}

// runReferenced runs src through a pipeline of the given shard count
// with one reference sink shared by every shard, and returns the live
// (scalar) report and the reference's full report.
func runReferenced(t *testing.T, country *geo.Country, cells *gtpsim.CellRegistry, shards int, src capture.Source) (live, full *probe.Report) {
	t.Helper()
	cls := dpi.NewClassifier(services.Catalog())
	ref := probetest.NewReference(probe.DefaultConfig(), country, cls.Names())
	pl := probe.NewPipeline(probe.DefaultConfig(), cells, cls, shards).
		WithSinks(func(int) probe.Sink { return ref })
	live, err := pl.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	return live, ref.Report(live)
}

// TestStreamingMatchesMaterializedReport is the conformance contract
// of the sharded pipeline: a gtpsim run consumed via capture.Source
// through the pipeline must measure identically to the materialized
// []Frame path through a single probe — at every shard count. Two
// things must agree exactly: the live reports (totals and counters),
// and the full per-service reports a reference sink builds from each
// run's observation stream (reflect.DeepEqual over every float),
// because all accounting sums integer-valued byte counts and the
// router keeps per-tunnel state shard-local.
func TestStreamingMatchesMaterializedReport(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 600

	// Materialized path: the whole capture, consumed on one goroutine.
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	cls := dpi.NewClassifier(catalog)
	ref := probetest.NewReference(probe.DefaultConfig(), country, cls.Names())
	single := probe.New(probe.DefaultConfig(), sim.Cells, cls)
	single.SetSink(ref)
	for _, f := range frames {
		single.HandleFrame(f.Time, f.Data)
	}
	wantLive := *single.Report()
	want := ref.Report(&wantLive)

	for _, shards := range shardSweep() {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			// A fresh simulator replays the identical workload (same
			// seed) as a stream, never materialized.
			sim2, err := gtpsim.New(country, catalog, cfg)
			if err != nil {
				t.Fatal(err)
			}
			live, got := runReferenced(t, country, sim2.Cells, shards, sim2.Stream())
			if !reflect.DeepEqual(&wantLive, live) {
				diffReports(t, &wantLive, live)
				t.Fatal("streamed/sharded totals differ from the single probe's")
			}
			if !reflect.DeepEqual(want, got) {
				diffReports(t, want, got)
				t.Fatal("streamed/sharded observations differ from the materialized single-probe ones")
			}
		})
	}
}

// TestPipelineTraceReplayMatchesLive closes the persistence loop: a
// capture written to the binary trace format and replayed from it must
// measure identically to the live stream.
func TestPipelineTraceReplayMatchesLive(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 150

	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := capture.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := capture.Copy(w, sim.Stream()); err != nil {
		t.Fatal(err)
	}

	sim2, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	liveTotals, live := runReferenced(t, country, sim2.Cells, 2, sim2.Stream())

	rd, err := capture.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	replayedTotals, replayed := runReferenced(t, country, sim.Cells, 2, rd)
	if !reflect.DeepEqual(liveTotals, replayedTotals) || !reflect.DeepEqual(live, replayed) {
		diffReports(t, live, replayed)
		t.Fatal("trace replay measures differently from the live stream")
	}
}

// TestPipelineUnroutableFramesCounted pins the shard-0 fallback: a
// frame the router cannot key is still accounted (as a decode error)
// exactly once.
func TestPipelineUnroutableFramesCounted(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	cells := gtpsim.BuildCells(country, 1)
	frames := []capture.Frame{
		{Time: timeseries.StudyStart, Data: []byte{0xde, 0xad}},
		{Time: timeseries.StudyStart, Data: make([]byte, 40)},
	}
	pl := probe.NewPipeline(probe.DefaultConfig(), cells, dpi.NewClassifier(services.Catalog()), 4)
	rep, err := pl.Run(capture.NewSliceSource(frames))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecodeErrors != 2 {
		t.Errorf("DecodeErrors = %d, want 2", rep.DecodeErrors)
	}
}

// TestPipelineDefaultShards pins the shards<=0 → NumCPU default.
func TestPipelineDefaultShards(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	pl := probe.NewPipeline(probe.DefaultConfig(), gtpsim.BuildCells(country, 1), dpi.NewClassifier(services.Catalog()), 0)
	if pl.Shards() != runtime.NumCPU() {
		t.Errorf("Shards() = %d, want NumCPU = %d", pl.Shards(), runtime.NumCPU())
	}
}
