package probe_test

import (
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// TestPipelineMetricsConservation runs an instrumented pipeline over a
// counted source and checks the first link of the telemetry plane's
// conservation chain: every frame the capture layer delivered is seen
// by the router, every routed frame is handled by exactly one shard,
// and every broadcast batch comes back to the pool.
func TestPipelineMetricsConservation(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	simCfg := gtpsim.DefaultConfig()
	simCfg.Sessions = 150
	sim, err := gtpsim.New(country, catalog, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	var wantBytes uint64
	for _, f := range frames {
		wantBytes += uint64(len(f.Data))
	}

	const shards = 3
	reg := obs.NewRegistry()
	pm := probe.NewMetrics(reg, shards)
	pl := probe.NewPipeline(probe.DefaultConfig(), sim.Cells, dpi.NewClassifier(catalog), shards).WithMetrics(pm)
	src := capture.NewCountingSource(capture.NewSliceSource(frames), reg)
	rep, err := pl.Run(src)
	if err != nil {
		t.Fatal(err)
	}

	if got := pm.Frames.Load(); got != uint64(len(frames)) {
		t.Fatalf("pipeline_frames_total = %d, want %d", got, len(frames))
	}
	if got := reg.Counter("capture_frames_total", "").Load(); got != pm.Frames.Load() {
		t.Fatalf("capture (%d) and pipeline (%d) frame counts diverge", got, pm.Frames.Load())
	}
	if got := pm.Bytes.Load(); got != wantBytes {
		t.Fatalf("pipeline_bytes_total = %d, want %d", got, wantBytes)
	}
	if got := reg.Counter("capture_bytes_total", "").Load(); got != wantBytes {
		t.Fatalf("capture_bytes_total = %d, want %d", got, wantBytes)
	}
	var handled uint64
	for _, c := range pm.ShardFrames {
		handled += c.Load()
	}
	if handled != uint64(len(frames)) {
		t.Fatalf("shards handled %d frames, want %d (each frame exactly one shard)", handled, len(frames))
	}
	if got := uint64(rep.UserPlanePackets + rep.ControlMessages + rep.DecodeErrors); got > handled {
		t.Fatalf("report accounts %d frames but shards only handled %d", got, handled)
	}
	// Every broadcast batch is recycled once; the router's final
	// (possibly empty) batch adds one more.
	if got, want := pm.Recycled.Load(), pm.Batches.Load()+1; got != want {
		t.Fatalf("pipeline_batches_recycled_total = %d, want %d", got, want)
	}
	if got := pm.BatchFrames.Count(); got != pm.Batches.Load() {
		t.Fatalf("batch histogram count %d != batches %d", got, pm.Batches.Load())
	}
	if got := pm.BatchFrames.Sum(); got != int64(len(frames)) {
		t.Fatalf("batch histogram sum %d != frames %d", got, len(frames))
	}
}

// TestHandleFrameSteadyStateAllocsInstrumented replays the pinned
// zero-allocation steady state with the full per-frame metric touches
// the instrumented router and worker add (frame counter, byte
// counter, shard counter, batch histogram) live in the loop: the
// telemetry plane must not cost a single allocation.
func TestHandleFrameSteadyStateAllocsInstrumented(t *testing.T) {
	p, data := allocProbe(t)
	reg := obs.NewRegistry()
	m := probe.NewMetrics(reg, 1)
	mine := m.ShardFrames[0]
	at := timeseries.StudyStart.Add(time.Hour)
	p.HandleFrame(at, data)
	allocs := testing.AllocsPerRun(200, func() {
		m.Frames.Inc()
		m.Bytes.Add(uint64(len(data)))
		m.BatchFrames.Observe(1)
		p.HandleFrame(at, data)
		mine.Inc()
	})
	if allocs != 0 {
		t.Errorf("instrumented HandleFrame allocates %.1f objects per steady-state frame, want 0", allocs)
	}
	if m.Frames.Load() < 200 || mine.Load() < 200 {
		t.Fatal("metrics were not recorded")
	}
}
