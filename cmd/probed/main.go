// Command probed is the distributed-collection probe daemon: probesim's
// capture plane as a networked process. It runs the sharded probe
// pipeline over a frame source (live gtpsim simulation or a recorded
// trace), and instead of only writing a snapshot at the end, ships
// every epoch to an aggregator (cmd/aggd) the moment its builder seals
// it — spooled to disk first, so a dead or restarted aggregator never
// stalls the pipeline or loses a sealed epoch.
//
// The run completes when the source drains (or SIGINT/SIGTERM stops it
// gracefully): the pipeline's remaining epochs seal and ship, a FIN
// message carries the run totals, and probed exits 0 only once the
// aggregator reports the whole stream durably applied. Restarting a
// crashed probed re-runs its deterministic source under a fresh
// incarnation, which tells the aggregator to replace that probe's
// stream wholesale — the recovery model that keeps N networked probes
// byte-identical to one local run.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/capture"
	"repro/internal/chaos"
	"repro/internal/dpi"
	"repro/internal/epochwire"
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
		fmt.Fprintf(flag.CommandLine.Output(), `probed: networked probe daemon — stream sealed epochs to an aggregator

Runs the same capture plane as probesim (simulate -sessions, or replay
-trace) but ships each epoch to -aggr as it seals. Source flags
(-sessions, -seed, -shards, -window, -trace) match probesim exactly:
a probed run over -window A:B is the networked twin of the probesim
run with the same flags.

SIGINT/SIGTERM stops the source gracefully: open epochs seal, the run
totals ship as FIN, and probed exits 0 once everything is durable at
the aggregator.

`)
		flag.PrintDefaults()
	}
	aggr := flag.String("aggr", "", "aggregator address to ship epochs to (required)")
	id := flag.String("id", "", "probe identity announced in the handshake (required)")
	sessions := flag.Int("sessions", 2000, "number of IP sessions to simulate")
	seed := flag.Uint64("seed", 1, "simulation seed (for -trace: the seed the trace was recorded with)")
	shards := flag.Int("shards", runtime.NumCPU(), "probe pipeline shards (frames hash-partitioned by TEID)")
	trace := flag.String("trace", "", "replay a binary trace file instead of simulating")
	window := flag.String("window", "", "simulate only bins A:B of the study week and bin the rollup on that range")
	spool := flag.String("spool", "", "on-disk spool file for unacknowledged epochs (default: probed-<id>.spool in the temp dir)")
	snapshot := flag.String("snapshot", "", "also write the local partial to this snapshot file (for cross-checking the aggregate)")
	keepalive := flag.Duration("keepalive", 10*time.Second, "idle interval before a keepalive ping")
	ackTimeout := flag.Duration("ack-timeout", 30*time.Second, "bound on waiting for an ack or pong before reconnecting")
	backoffMax := flag.Duration("backoff-max", 5*time.Second, "cap on the reconnect backoff")
	retryFor := flag.Duration("retry-for", 0, "give up if the aggregator stays unreachable this long (0 = retry forever)")
	spoolBudget := flag.Int64("spool-budget", 0, "spool disk budget in bytes; sealing blocks when the spool is full (0 = unlimited)")
	chaosSpec := flag.String("chaos", "", "inject seeded faults, e.g. 1234:reset=0.05,enospc=0.02,fuel=40 (see internal/chaos)")
	metricsAddr := flag.String("metrics", "", "serve /metrics, /debug/vars and pprof on this address")
	verbose := flag.Bool("v", false, "log debug detail")
	quiet := flag.Bool("quiet", false, "print only the essential summary lines (CI mode)")
	flag.Parse()

	if *aggr == "" || *id == "" {
		fmt.Fprintln(os.Stderr, "probed: -aggr and -id are required")
		flag.Usage()
		os.Exit(2)
	}
	log := obs.NewLogger(os.Stderr, "probed", obs.LevelFromFlags(*verbose, *quiet)).With("probe", *id)
	var inj *chaos.Injector
	if *chaosSpec != "" {
		var err error
		if inj, err = chaos.Parse(*chaosSpec); err != nil {
			fail(err)
		}
		log.Infof("chaos: %s", inj)
	}
	say := func(format string, args ...any) {
		if !*quiet {
			fmt.Printf(format, args...)
		}
	}

	reg := obs.NewRegistry()
	if *metricsAddr != "" {
		msrv, err := obs.Serve(*metricsAddr, reg)
		if err != nil {
			fail(err)
		}
		defer msrv.Close()
		log.Infof("metrics listening on http://%s/metrics", msrv.Addr())
	}

	country := geo.Generate(geo.SmallConfig())
	catalog := services.Catalog()

	// Window and grid arithmetic identical to probesim: the windowed
	// grid covers [A, min(B+slack, week)) so windowed snapshots stay
	// sub-grids of the week and union cleanly at the aggregator.
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

	var src capture.Source
	var cells *gtpsim.CellRegistry
	if *trace != "" {
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
		say("replaying %s into %d shards, shipping to %s as probe %q\n", *trace, *shards, *aggr, *id)
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
		src = sim.Stream()
		say("streaming %d sessions (bins %d:%d) into %d shards, shipping to %s as probe %q\n",
			*sessions, winFrom, winTo, *shards, *aggr, *id)
	}

	// Graceful shutdown: the first signal cuts the source, so the
	// pipeline drains its normal end-of-stream path — seal, FIN, exit 0
	// with whatever was measured. A second signal force-exits.
	stop := capture.NewStopSource(capture.NewCountingSource(src, reg))
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigCh
		log.Errorf("signal received, draining (again to force quit)")
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
	rcfg := rollup.ConfigFrom(pcfg, geo.SmallConfig())

	spoolPath := *spool
	if spoolPath == "" {
		spoolPath = filepath.Join(os.TempDir(), "probed-"+*id+".spool")
	}
	scfg := epochwire.ShipperConfig{
		Addr:        *aggr,
		ProbeID:     *id,
		SpoolPath:   spoolPath,
		Cfg:         rcfg,
		Shards:      pl.Shards(),
		Keepalive:   *keepalive,
		AckTimeout:  *ackTimeout,
		BackoffMax:  *backoffMax,
		RetryFor:    *retryFor,
		SpoolBudget: *spoolBudget,
		Logf:        log.Infof,
		Registry:    reg,
	}
	if inj != nil {
		d := &net.Dialer{Timeout: *ackTimeout}
		scfg.Dial = inj.Dial("probe.wire", d.Dial)
		scfg.FS = inj.FS("probe.spool", chaos.OS)
	}
	sh, err := epochwire.NewShipper(scfg)
	if err != nil {
		fail(err)
	}
	log = log.With("incarnation", sh.Incarnation())
	log.Debugf("spooling to %s", spoolPath)

	col := rollup.NewCollector(rcfg, pl.Shards()).
		WithMetrics(rollup.NewMetrics(reg)).
		WithSealHook(sh.SealHook)
	pl.WithSinks(col.Sink)

	rep, err := pl.Run(stop)
	if err != nil {
		log.Errorf("capture broke mid-stream: %v (shipping what was measured)", err)
	}
	part, err := col.Finish(rep)
	if err != nil {
		sh.Abort()
		fail(err)
	}
	if *snapshot != "" {
		if err := rollup.WriteFile(*snapshot, part); err != nil {
			sh.Abort()
			fail(err)
		}
		say("wrote local snapshot (%d epochs) to %s\n", len(part.Epochs), *snapshot)
	}
	if err := sh.Finish(part); err != nil {
		fail(err)
	}
	fmt.Printf("probed %q: %d epochs + fin durable at %s; DL %s, UL %s\n",
		*id, sh.LastSeq()-1, *aggr,
		report.Bytes(rep.TotalBytes[services.DL]), report.Bytes(rep.TotalBytes[services.UL]))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
