package probe_test

import (
	"testing"
	"time"

	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/pkt"
	"repro/internal/probe"
	"repro/internal/probe/probetest"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// allocProbe builds a probe with one established tunnel and returns it
// together with a classified, geo-referenced data frame for that
// tunnel — the steady-state packet every probe core spends its life
// on.
func allocProbe(t *testing.T) (*probe.Probe, []byte) {
	t.Helper()
	country := geo.Generate(geo.SmallConfig())
	cells := gtpsim.BuildCells(country, 1)
	p := probe.New(probe.DefaultConfig(), cells, dpi.NewClassifier(services.Catalog()))
	cell := &cells.Cells[0]
	p.HandleFrame(timeseries.StudyStart, probetest.ControlFrame(pkt.GTPv2MsgCreateSessionRequest, 77,
		pkt.ULI{AreaCode: cell.AreaCode, CellID: cell.ID}))
	return p, probetest.DownlinkFrame(77, 1340)
}

// TestHandleFrameSteadyStateAllocs pins the probe's zero-allocation
// hot path: once a flow is classified and its accumulators exist,
// accounting a further data frame of that flow allocates nothing —
// decode, direction, ULI lookup, DPI memo hit, byte accounting and
// observation hand-off are all in-place. Budget: exactly zero, so any future
// per-frame garbage fails loudly.
func TestHandleFrameSteadyStateAllocs(t *testing.T) {
	p, data := allocProbe(t)
	at := timeseries.StudyStart.Add(time.Hour)
	// Warm-up: classifies the flow.
	p.HandleFrame(at, data)
	allocs := testing.AllocsPerRun(200, func() {
		p.HandleFrame(at, data)
	})
	if allocs != 0 {
		t.Errorf("HandleFrame allocates %.1f objects per steady-state frame, want 0", allocs)
	}
	if p.Report().UserPlanePackets < 200 {
		t.Fatal("frames were not accounted")
	}
}

// TestHandleFrameAmortizedAllocs bounds the amortized cost including
// cold starts: replaying the same capture into a fresh probe twice,
// the second pass (every flow and tunnel cached) must
// stay allocation-free even across many distinct flows and services.
func TestHandleFrameAmortizedAllocs(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 120
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	p := probe.New(probe.DefaultConfig(), sim.Cells, dpi.NewClassifier(catalog))
	feed := func() {
		for _, f := range frames {
			p.HandleFrame(f.Time, f.Data)
		}
	}
	feed() // cold pass: builds flows and tunnels
	allocs := testing.AllocsPerRun(3, feed)
	perFrame := allocs / float64(len(frames))
	// The warm replay re-walks every flow; nothing new should
	// be created. A tiny budget absorbs map-internals noise.
	if perFrame > 0.01 {
		t.Errorf("warm replay allocates %.4f objects/frame over %d frames, want <= 0.01", perFrame, len(frames))
	}
}
