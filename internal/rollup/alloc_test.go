package rollup

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
)

// TestObserveSteadyStateAllocs pins the builder's zero-allocation
// ingest: once an epoch's cell table exists and has capacity,
// accumulating further observations — same bin, any established cell —
// is a packed-key hash probe and an in-place +=, nothing more.
func TestObserveSteadyStateAllocs(t *testing.T) {
	cfg := tinyConfig()
	cfg.Lateness = -1 // no sealing inside the measured loop
	b := NewBuilder(cfg)
	at := cfg.Start.Add(cfg.Step / 2)
	ev := obs(at, services.DL, "Facebook", 7, 10)
	// Warm-up: creates the epoch table and the cell slot.
	b.Observe(ev)
	allocs := testing.AllocsPerRun(500, func() {
		b.Observe(ev)
	})
	if allocs != 0 {
		t.Errorf("Observe allocates %.1f objects per steady-state event, want 0", allocs)
	}
}

// TestObserveAmortizedAllocs bounds the amortized ingest cost of a
// realistic mixed stream: many communes and services, bins advancing
// with the watermark so epochs seal (and their tables recycle) while
// the stream flows. The budget charges sealing, table growth and slab
// refills to the events that cause them.
func TestObserveAmortizedAllocs(t *testing.T) {
	cfg := tinyConfig()
	cfg.Bins = 672
	cfg.Lateness = 4
	b := NewBuilder(cfg)
	svcs := []string{"Facebook", "YouTube", "iCloud", "Netflix", "WhatsApp"}
	ids := make([]services.ID, len(svcs))
	for i, s := range svcs {
		ids[i], _ = testNames.Lookup(s)
	}
	const events = 120_000
	var n int
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < events; i++ {
			bin := (i * 672) / events // sweeps the whole week once
			at := cfg.Start.Add(time.Duration(bin)*cfg.Step + time.Minute)
			j := i % len(svcs)
			b.Observe(obs(at, services.Direction(i&1), svcs[j], i%40, 1))
			n++
		}
	})
	perEvent := allocs / float64(events)
	// ~672 sealed epochs (one cells slice each, slab-amortized), a
	// handful of recycled tables and slabs: well under 0.02 per event.
	if perEvent > 0.02 {
		t.Errorf("mixed ingest allocates %.4f objects/event, want <= 0.02", perEvent)
	}
	_ = n
}

// TestProbeWithBuilderSteadyStateAllocs pins the production per-frame
// accounting as one unit: a probe with a builder attached as its sink,
// handling a further data frame of an established, classified tunnel,
// allocates nothing — decode, DPI memo hit, totals, the observation
// hand-off and the cell += together.
func TestProbeWithBuilderSteadyStateAllocs(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	cells := gtpsim.BuildCells(country, 1)
	pcfg := probe.DefaultConfig()
	cfg := ConfigFrom(pcfg, geo.SmallConfig())
	cfg.Lateness = -1 // no sealing inside the measured loop
	b := NewBuilder(cfg)
	p := probe.New(pcfg, cells, dpi.NewClassifier(services.Catalog()))
	p.SetSink(b)
	cell := &cells.Cells[0]
	at := pcfg.Start.Add(time.Hour)
	p.HandleFrame(at, probetest.ControlFrame(pkt.GTPv2MsgCreateSessionRequest, 77,
		pkt.ULI{AreaCode: cell.AreaCode, CellID: cell.ID}))
	data := probetest.DownlinkFrame(77, 1340)
	// Warm-up: classifies the flow, creates the epoch table and the
	// cell slot.
	p.HandleFrame(at, data)
	allocs := testing.AllocsPerRun(200, func() {
		p.HandleFrame(at, data)
	})
	if allocs != 0 {
		t.Errorf("probe+builder allocates %.1f objects per steady-state frame, want 0", allocs)
	}
	if got := b.Seal().CellTotals()[services.DL]; got == 0 || got != p.Report().ClassifiedBytes[services.DL] {
		t.Fatalf("builder cells hold %v DL bytes, probe classified %v", got, p.Report().ClassifiedBytes[services.DL])
	}
}
