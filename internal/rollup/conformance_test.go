package rollup_test

import (
	"bytes"
	"context"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/experiments"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/measured"
	"repro/internal/probe"
	"repro/internal/probe/probetest"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// fixture runs one simulated capture and returns its frames plus the
// shared inputs of both backends.
type fixture struct {
	country *geo.Country
	catalog []services.Service
	cells   *gtpsim.CellRegistry
	frames  []capture.Frame
}

func newFixture(t testing.TB, sessions int) *fixture {
	t.Helper()
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = sessions
	sim, err := gtpsim.New(country, catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames, _ := sim.Run()
	return &fixture{country: country, catalog: catalog, cells: sim.Cells, frames: frames}
}

// run pushes the fixture's capture through the sharded pipeline with a
// rollup collector attached and returns the sealed partial. With ref
// set, a reference sink observes the same stream next to the
// collector, and run also returns the full report it built.
func (fx *fixture) run(t testing.TB, shards int, ref bool) (*rollup.Partial, *probe.Report) {
	t.Helper()
	pcfg := probe.DefaultConfig()
	cls := dpi.NewClassifier(fx.catalog)
	pl := probe.NewPipeline(pcfg, fx.cells, cls, shards)
	col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
	sinks := col.Sink
	var reference *probetest.Reference
	if ref {
		reference = probetest.NewReference(pcfg, fx.country, cls.Names())
		sinks = func(i int) probe.Sink { return probetest.Tee(col.Sink(i), reference) }
	}
	rep, err := pl.WithSinks(sinks).Run(capture.NewSliceSource(fx.frames))
	if err != nil {
		t.Fatal(err)
	}
	part, err := col.Finish(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !ref {
		return part, nil
	}
	return part, reference.Report(rep)
}

// reference runs the fixture's capture through a single-shard pipeline
// whose only sink is the reference accumulator, and returns the full
// report it built: the rollup-free side of the identity oracles.
func (fx *fixture) reference(t testing.TB) *probe.Report {
	t.Helper()
	pcfg := probe.DefaultConfig()
	cls := dpi.NewClassifier(fx.catalog)
	ref := probetest.NewReference(pcfg, fx.country, cls.Names())
	rep, err := probe.NewPipeline(pcfg, fx.cells, cls, 1).
		WithSinks(func(int) probe.Sink { return ref }).
		Run(capture.NewSliceSource(fx.frames))
	if err != nil {
		t.Fatal(err)
	}
	return ref.Report(rep)
}

// referenceDataset materializes a reference report on the study-week
// grid of probe.DefaultConfig.
func referenceDataset(t testing.TB, rep *probe.Report, country *geo.Country, catalog []services.Service) *measured.Dataset {
	t.Helper()
	pcfg := probe.DefaultConfig()
	ds, err := measured.FromProbeGrid(rep, country, catalog, pcfg.Start, pcfg.Step, pcfg.Bins)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// engineJSON runs the Figs. 2-11 suite over a dataset and returns the
// encoded results. fig5 (the k-Shape sweep, ~12 s per run on this
// 600-session fixture on a 2-vCPU Xeon) is omitted: the structural
// DeepEqual of the materialized datasets below is
// strictly stronger — the engine is deterministic in (dataset, seed),
// so equal datasets give equal fig5 output by construction.
func engineJSON(t testing.TB, ds core.Dataset) []byte {
	t.Helper()
	ids := []string{"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"}
	eng := experiments.NewEngine(experiments.NewEnvFrom(ds, 1))
	results, err := eng.Run(context.Background(), experiments.Options{Concurrency: 2, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	buf, err := experiments.EncodeJSON(results)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestEndToEndIdentity is the acceptance gate of the rollup store: for
// the same seed, the experiment-engine JSON produced via a snapshot
// round trip of the online rollup is byte-identical to the reference
// path — a report accumulated straight from the observation stream by
// probetest.Reference, materialized by measured.FromProbeGrid — at 1,
// 2 and NumCPU shards.
func TestEndToEndIdentity(t *testing.T) {
	fx := newFixture(t, 600)

	// Reference path: no rollup anywhere (shard count is already
	// proven irrelevant for the observations by the probe tests).
	reference := referenceDataset(t, fx.reference(t), fx.country, fx.catalog)
	referenceJSON := engineJSON(t, reference)

	var prevSnap []byte
	for _, shards := range []int{1, 2, runtime.NumCPU()} {
		part, _ := fx.run(t, shards, false)

		// Snapshot round trip: what the engine sees must have been
		// through the persistent format.
		var buf bytes.Buffer
		if err := rollup.Write(&buf, part); err != nil {
			t.Fatal(err)
		}
		// The canonical encoding makes snapshot bytes shard-invariant.
		if prevSnap != nil && !bytes.Equal(prevSnap, buf.Bytes()) {
			t.Errorf("shards=%d: snapshot bytes differ from the previous shard count", shards)
		}
		prevSnap = append([]byte(nil), buf.Bytes()...)

		loaded, err := rollup.Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		ds, err := loaded.Dataset()
		if err != nil {
			t.Fatal(err)
		}
		// Structural identity first: the materialized aggregates must
		// be deep-equal to the reference backend's.
		if !reflect.DeepEqual(measured.Materialize(ds), measured.Materialize(reference)) {
			t.Fatalf("shards=%d: rollup dataset diverges from the reference accumulation", shards)
		}
		if got := engineJSON(t, ds); !bytes.Equal(got, referenceJSON) {
			t.Fatalf("shards=%d: engine JSON diverges between rollup.Open and the reference accumulation", shards)
		}
	}

	// Same capture in *session* order (gtpsim.Stream is not globally
	// time-ordered), at a shard count co-prime with the sweep above:
	// out-of-order arrival maximizes epoch reopens, and the snapshot
	// bytes must still be identical — late-frame accounting is
	// diagnostics, never data.
	cfg := gtpsim.DefaultConfig()
	cfg.Sessions = 600
	sim, err := gtpsim.New(fx.country, fx.catalog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pl := probe.NewPipeline(probe.DefaultConfig(), sim.Cells, dpi.NewClassifier(fx.catalog), 5)
	col := rollup.NewCollector(rollup.ConfigFrom(probe.DefaultConfig(), geo.SmallConfig()), pl.Shards())
	rep2, err := pl.WithSinks(col.Sink).Run(sim.Stream())
	if err != nil {
		t.Fatal(err)
	}
	part, err := col.Finish(rep2)
	if err != nil {
		t.Fatal(err)
	}
	var streamBuf bytes.Buffer
	if err := rollup.Write(&streamBuf, part); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(prevSnap, streamBuf.Bytes()) {
		t.Error("session-ordered stream at 5 shards yields different snapshot bytes than the time-ordered sweep")
	}
}

// TestMultiDaySplitCaptureIdentity is the acceptance gate of the
// snapshot algebra: a capture split into two per-half-week collection
// runs — each simulated in its own observation window, measured by its
// own probe pipeline on its own sub-grid, sealed into its own snapshot
// — streams through rollup.MergeFiles into a snapshot byte-identical
// to the one full-period run over the concatenated frames, and the
// engine JSON of the merged snapshot matches the reference
// accumulation of that full run.
func TestMultiDaySplitCaptureIdentity(t *testing.T) {
	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()
	weekBins := int(timeseries.Week / timeseries.DefaultStep)
	half := weekBins / 2
	// Sessions spill up to a session lifetime past their window, so a
	// window's probe grid extends by slack bins, clamped to the week —
	// windowed grids stay sub-grids of the full-week grid.
	const slack = 3

	// Two windowed simulations with one seed: identical cell
	// registries and TEID sequences, sessions drawn inside each half.
	halfSim := func(winFrom, winTo int) []capture.Frame {
		cfg := gtpsim.DefaultConfig()
		cfg.Sessions = 300
		cfg.Seed = 11
		cfg.Start = timeseries.StudyStart.Add(time.Duration(winFrom) * timeseries.DefaultStep)
		cfg.Duration = time.Duration(winTo-winFrom) * timeseries.DefaultStep
		sim, err := gtpsim.New(country, catalog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		frames, _ := sim.Run()
		return frames
	}
	frames1 := halfSim(0, half)
	frames2 := halfSim(half, weekBins)
	cells := gtpsim.BuildCells(country, 11)

	// runOn measures frames on a grid of bins from startBin, with a
	// reference sink observing next to the collector.
	runOn := func(frames []capture.Frame, startBin, bins int) (*probe.Report, *rollup.Partial) {
		pcfg := probe.DefaultConfig()
		pcfg.Start = timeseries.StudyStart.Add(time.Duration(startBin) * timeseries.DefaultStep)
		pcfg.Bins = bins
		cls := dpi.NewClassifier(catalog)
		ref := probetest.NewReference(pcfg, country, cls.Names())
		pl := probe.NewPipeline(pcfg, cells, cls, 2)
		col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards())
		rep, err := pl.WithSinks(func(i int) probe.Sink { return probetest.Tee(col.Sink(i), ref) }).
			Run(capture.NewSliceSource(frames))
		if err != nil {
			t.Fatal(err)
		}
		part, err := col.Finish(rep)
		if err != nil {
			t.Fatal(err)
		}
		return ref.Report(rep), part
	}

	// The full-period reference: one pipeline, one week grid, the
	// concatenated capture.
	fullRep, fullPart := runOn(append(append([]capture.Frame(nil), frames1...), frames2...), 0, weekBins)
	var fullSnap bytes.Buffer
	if err := rollup.WriteV2(&fullSnap, fullPart); err != nil {
		t.Fatal(err)
	}

	// The split collection: each half measured independently on its
	// windowed grid (plus spill slack, clamped to the week).
	_, part1 := runOn(frames1, 0, min(half+slack, weekBins))
	_, part2 := runOn(frames2, half, weekBins-half)
	dir := t.TempDir()
	day1, day2, merged := dir+"/h1.roll", dir+"/h2.roll", dir+"/merged.roll"
	if err := rollup.WriteFile(day1, part1); err != nil {
		t.Fatal(err)
	}
	if err := rollup.WriteFile(day2, part2); err != nil {
		t.Fatal(err)
	}
	if err := rollup.MergeFiles(merged, day1, day2); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fullSnap.Bytes()) {
		t.Fatal("merged per-half snapshots are not byte-identical to the full-period run")
	}

	// And the analysis cannot tell the difference: engine JSON off the
	// merged snapshot equals the reference accumulation of the full run.
	reference := referenceDataset(t, fullRep, country, catalog)
	mergedDS, err := rollup.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(engineJSON(t, mergedDS), engineJSON(t, reference)) {
		t.Fatal("engine JSON diverges between the merged split capture and the full-period run")
	}
}

// TestReportReconstruction pins the stronger claim behind the identity
// test: the report built from a sealed partial deep-equals the one a
// reference sink accumulated from the same observation stream, field
// for field.
func TestReportReconstruction(t *testing.T) {
	fx := newFixture(t, 400)
	part, want := fx.run(t, 2, true)
	rebuilt, err := part.Report(fx.country)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rebuilt, want) {
		t.Fatal("report built from cells differs from the reference accumulation")
	}
}

// TestOpenFromFile exercises the full produce-once/analyze-many flow
// through the filesystem.
func TestOpenFromFile(t *testing.T) {
	fx := newFixture(t, 300)
	part, _ := fx.run(t, 2, false)
	path := t.TempDir() + "/run.roll"
	if err := rollup.WriteFile(path, part); err != nil {
		t.Fatal(err)
	}
	ds, err := rollup.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Services()) == 0 {
		t.Fatal("snapshot dataset has no services")
	}
	env, err := experiments.NewEnvFromSnapshot(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := experiments.NewEngine(env).Run(context.Background(),
		experiments.Options{IDs: []string{"fig2"}}); err != nil {
		t.Fatal(err)
	}
}

// TestFullRegistryOnShortWindow runs every registered experiment over
// a 192-bin window view (the weekend, as `analyze -snapshot X -window
// 0:192` opens it). A runner must degrade to what the grid covers —
// Fig. 4's Monday panel needs bins 192-287 — never index past it.
func TestFullRegistryOnShortWindow(t *testing.T) {
	fx := newFixture(t, 600)
	part, _ := fx.run(t, 1, false)
	ds, err := rollup.Window(part, 0, 192)
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, r := range experiments.All() {
		ids = append(ids, r.ID)
	}
	eng := experiments.NewEngine(experiments.NewEnvFrom(ds, 1))
	results, err := eng.Run(context.Background(), experiments.Options{Concurrency: 2, IDs: ids})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(ids) {
		t.Fatalf("%d results for %d runners", len(results), len(ids))
	}
}
