// Command probesim demonstrates the packet path end to end: it
// simulates the 3G/4G network of the paper's Fig. 1 (PDP Context / EPS
// Bearer signalling plus tunnelled user traffic) and taps the Gn/S5
// interfaces with the passive probe pipeline — streaming, like the
// paper's probes: frames flow from the simulator (or a recorded binary
// trace) straight into the sharded pipeline without ever materializing
// the capture. Each shard feeds the rollup store, which builds
// epoch-sealed (service, commune, bin) aggregates online; the merged
// partial becomes a core.Dataset and runs through the same analysis
// API the synthetic data flows through.
//
// With -snapshot the partial also persists to a snapshot file that
// cmd/analyze -snapshot analyzes directly — produce once, analyze
// many.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/capture"
	"repro/internal/core"
	"repro/internal/dpi"
	"repro/internal/geo"
	"repro/internal/gtpsim"
	"repro/internal/obs"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/rollup"
	"repro/internal/services"
	"repro/internal/timeseries"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), `probesim: stream a simulated nationwide capture through the probe pipeline

Modes:
  (default)            simulate -sessions IP sessions and measure them live
  -trace file          replay a recorded binary trace (see tracegen -trace)

With -window A:B the simulated sessions start only inside bins [A, B)
of the study week (15-minute bins, 672 per week) and the probe's grid
covers that range plus spill slack: the per-day / per-slice collection
unit whose -snapshot outputs rollupctl merges into longer rollups.

Flag defaults are shown below; -seed and -shards are shared with
tracegen and analyze, and -quiet reduces output to the essentials for
CI use.

`)
		flag.PrintDefaults()
	}
	sessions := flag.Int("sessions", 2000, "number of IP sessions to simulate")
	seed := flag.Uint64("seed", 1, "simulation seed (for -trace: the seed the trace was recorded with)")
	shards := flag.Int("shards", runtime.NumCPU(), "probe pipeline shards (frames hash-partitioned by TEID)")
	trace := flag.String("trace", "", "replay a binary trace file (see cmd/tracegen -trace) instead of simulating")
	window := flag.String("window", "", "simulate only bins A:B of the study week and bin the rollup on that range")
	snapshot := flag.String("snapshot", "", "persist the run as a rollup snapshot to this file (analyze with cmd/analyze -snapshot)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and pprof on this address during the run")
	verbose := flag.Bool("v", false, "log debug detail")
	quiet := flag.Bool("quiet", false, "print only the essential summary lines (CI mode)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the capture run to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile (after the capture run) to this file")
	flag.Parse()

	log := obs.NewLogger(os.Stderr, "probesim", obs.LevelFromFlags(*verbose, *quiet))
	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fail(err)
		}
		defer msrv.Close()
		log.Infof("metrics listening on http://%s/metrics", msrv.Addr())
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer pprof.StopCPUProfile()
	}

	say := func(format string, args ...any) {
		if !*quiet {
			fmt.Printf(format, args...)
		}
	}

	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()

	// The observation window: the whole study week by default, one
	// bin range of it with -window. The probe grid covers the window
	// plus slack for session tails (a session lives under half an
	// hour), clamped to the week so windowed grids stay sub-grids of
	// the full-week grid and their snapshots merge back onto it.
	weekBins := int(timeseries.Week / timeseries.DefaultStep)
	winFrom, winTo := 0, weekBins
	if *window != "" {
		var err error
		if winFrom, winTo, err = rollup.ParseBinRange(*window); err != nil {
			fail(fmt.Errorf("-window wants A:B bin indices, got %q", *window))
		}
		if winFrom < 0 || winTo > weekBins || winFrom >= winTo {
			fail(fmt.Errorf("-window %d:%d outside the %d-bin study week", winFrom, winTo, weekBins))
		}
		if *trace != "" {
			fail(fmt.Errorf("-window shapes the simulation; it cannot re-window a recorded -trace"))
		}
	}
	const spillSlackBins = 3 // sessions live < 30 min ≈ 2 bins; +1 margin
	gridTo := min(winTo+spillSlackBins, weekBins)

	// Assemble the frame source: a live streaming simulation, or a
	// trace replayed from disk. Either way the probe consumes frames
	// one at a time.
	var src capture.Source
	var stream *gtpsim.Stream
	var cells *gtpsim.CellRegistry
	if *trace != "" {
		// A trace carries only frames; the cell registry must be
		// rebuilt from the seed the recording used.
		cells = gtpsim.BuildCells(country, *seed)
		f, err := os.Open(*trace)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		rd, err := capture.NewReader(f)
		if err != nil {
			fail(err)
		}
		src = rd
		say("Replaying %s over %d communes (%d cells, %d shards)...\n",
			*trace, len(country.Communes), len(cells.Cells), *shards)
		say("note: the cell registry is rebuilt from -seed; it must match the recording seed\n")
	} else {
		cfg := gtpsim.DefaultConfig()
		cfg.Sessions = *sessions
		cfg.Seed = *seed
		cfg.Start = timeseries.StudyStart.Add(time.Duration(winFrom) * timeseries.DefaultStep)
		cfg.Duration = time.Duration(winTo-winFrom) * timeseries.DefaultStep
		sim, err := gtpsim.New(country, catalog, cfg)
		if err != nil {
			fail(err)
		}
		cells = sim.Cells
		stream = sim.Stream()
		src = stream
		say("Streaming %d sessions (bins %d:%d of the week) over %d communes (%d cells) into %d probe shards...\n",
			*sessions, winFrom, winTo, len(country.Communes), len(cells.Cells), *shards)
	}

	// Graceful shutdown: the first SIGINT/SIGTERM cuts the source so
	// the pipeline drains its normal end-of-stream path — open epochs
	// seal, the snapshot (of what was measured) is written, exit 0. A
	// second signal force-exits.
	stop := capture.NewStopSource(capture.NewCountingSource(src, reg))
	var interrupted atomic.Bool
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		log.Errorf("signal received, draining (again to force quit)")
		interrupted.Store(true)
		stop.Stop()
		<-sigCh
		log.Errorf("forced quit")
		os.Exit(1)
	}()

	pcfg := probe.DefaultConfig()
	pcfg.Start = timeseries.StudyStart.Add(time.Duration(winFrom) * timeseries.DefaultStep)
	pcfg.Bins = gridTo - winFrom
	pl := probe.NewPipeline(pcfg, cells, dpi.NewClassifier(catalog), *shards).
		WithMetrics(probe.NewMetrics(reg, *shards))
	col := rollup.NewCollector(rollup.ConfigFrom(pcfg, geo.SmallConfig()), pl.Shards()).
		WithMetrics(rollup.NewMetrics(reg))
	rep, err := pl.WithSinks(col.Sink).Run(stop)
	if err != nil {
		log.Errorf("capture broke mid-stream: %v (reporting what was measured)", err)
	}

	fmt.Printf("%d control messages, %d user-plane packets, %d decode errors across %d shards; classification rate %s (paper: 88%%)\n",
		rep.ControlMessages, rep.UserPlanePackets, rep.DecodeErrors, pl.Shards(), report.Pct(rep.ClassificationRate()))
	if stream != nil {
		say("median ULI error: %.2f km (paper: ≈3 km)\n", stream.Stats().MedianULIError())
	}
	say("measured volume: DL %s, UL %s\n\n",
		report.Bytes(rep.TotalBytes[services.DL]), report.Bytes(rep.TotalBytes[services.UL]))

	part, err := col.Finish(rep)
	if err != nil {
		fail(err)
	}
	if *snapshot != "" {
		if err := rollup.WriteFile(*snapshot, part); err != nil {
			fail(err)
		}
		fmt.Printf("wrote rollup snapshot (%d epochs, %d services, %d late frames) to %s\n",
			len(part.Epochs), len(part.Services), part.LateFrames, *snapshot)
		say("analyze with: analyze -snapshot %s\n", *snapshot)
	}

	// The capture plane is done: stop the CPU profile and snapshot the
	// heap here so the profiles reflect the measurement path, not the
	// display ranking below. (The deferred stop then no-ops.)
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		say("wrote CPU profile to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fail(err)
		}
		runtime.GC() // settle accumulators so the profile shows retained state
		if err := pprof.WriteHeapProfile(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		say("wrote heap profile to %s\n", *memprofile)
	}

	// Quiet mode and interrupted runs end here: the ranking below
	// exists only for display, so CI runs skip its materialization
	// cost and a Ctrl-C'd run stops at its (already written) snapshot.
	if *quiet || interrupted.Load() {
		return
	}

	// Materialize the merged partial and rank it through the analysis
	// API — next to the ground truth when it exists (live simulation;
	// a replayed trace carries no generator state).
	mds, err := part.Dataset()
	if err != nil {
		fail(err)
	}
	an := core.New(mds)
	say("measured dataset: %d services through the analysis API\n", len(mds.Services()))
	headers := []string{"service", "measured DL share"}
	var truthTotal float64
	if stream != nil {
		headers = append(headers, "generated DL share")
		for _, v := range stream.Stats().SvcBytesDL {
			truthTotal += v
		}
	}
	table := [][]string{}
	for _, r := range an.Top20(services.DL) {
		row := []string{r.Name, report.Pct(r.Share)}
		if stream != nil {
			row = append(row, report.Pct(stream.Stats().SvcBytesDL[r.Name]/truthTotal))
		}
		table = append(table, row)
	}
	fmt.Println(report.Table(headers, table))
}

func fail(err error) {
	// os.Exit skips the deferred StopCPUProfile; flush here so a failed
	// run still leaves a readable -cpuprofile (no-op when none active).
	pprof.StopCPUProfile()
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
