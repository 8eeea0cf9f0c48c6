package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/epochwire"
	"repro/internal/obs"
	"repro/internal/rollup"
)

// durableTracker maps each sealed epoch's spool sequence number to the
// time it sealed, and turns advances of the shipper's durable cursor
// into seal-to-durable latencies. Sequence numbers start at 1 and each
// seal takes the next one; the fin and any unsealed sequence never
// produce a sample.
type durableTracker struct {
	sealedAt []time.Time // index seq-1
	durable  uint64
}

// sealed records that seq sealed at t.
func (d *durableTracker) sealed(seq uint64, t time.Time) {
	for uint64(len(d.sealedAt)) < seq {
		d.sealedAt = append(d.sealedAt, time.Time{})
	}
	d.sealedAt[seq-1] = t
}

// advance moves the durable cursor to cursor at time now and returns
// the latency in milliseconds of every sealed seq it newly covers.
func (d *durableTracker) advance(cursor uint64, now time.Time) []float64 {
	var out []float64
	for ; d.durable < cursor; d.durable++ {
		if d.durable < uint64(len(d.sealedAt)) {
			if t := d.sealedAt[d.durable]; !t.IsZero() {
				out = append(out, ms(now.Sub(t)))
			}
		}
	}
	return out
}

// durablePoll is how often the ship workload reads each shipper's
// durable cursor: far below the milliseconds between state persists,
// and cheap enough not to compete with the shippers.
const durablePoll = 500 * time.Microsecond

// durableWatch polls both shippers' durable cursors and turns their
// advances into seal-to-durable latencies.
type durableWatch struct {
	mu     sync.Mutex
	ships  [2]*epochwire.Shipper
	tracks [2]durableTracker
	lat    []float64
	stop   chan struct{}
	done   chan struct{}
	once   sync.Once
}

func watchDurable(ships [2]*epochwire.Shipper) *durableWatch {
	w := &durableWatch{ships: ships, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		t := time.NewTicker(durablePoll)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-t.C:
				w.poll()
			}
		}
	}()
	return w
}

func (w *durableWatch) poll() {
	now := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	for p, sh := range w.ships {
		w.lat = append(w.lat, w.tracks[p].advance(sh.Durable(), now)...)
	}
}

// sealHook returns probe p's seal hook: the shipper's, stamped with the
// seal time of the seq it takes.
func (w *durableWatch) sealHook(p int) sealHook {
	sh := w.ships[p]
	return func(shard int, ep rollup.Epoch, nameOf func(svc uint32) string) {
		at := time.Now()
		sh.SealHook(shard, ep, nameOf)
		seq := sh.LastSeq()
		w.mu.Lock()
		w.tracks[p].sealed(seq, at)
		w.mu.Unlock()
	}
}

// Stop ends polling, takes a last reading and returns every latency.
// Later calls return the same.
func (w *durableWatch) Stop() []float64 {
	w.once.Do(func() {
		close(w.stop)
		<-w.done
		w.poll()
	})
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lat
}

// probeIDs name the two probes; each measures one half of the week.
var probeIDs = [2]string{"north", "south"}

// sealRecord is one epoch generation as a probe's collector sealed it,
// with the service names its cells reference.
type sealRecord struct {
	shard int
	ep    rollup.Epoch
	names map[uint32]string
}

// probeRecording is one probe's capture as the ship workload replays
// it: every seal in order, and the collector's final partial, encoded
// so that each replay decodes a fresh copy for Shipper.Finish.
type probeRecording struct {
	cfg   rollup.Config
	seals []sealRecord
	final []byte
}

// recordProbe captures spec and records its seals and final partial.
func recordProbe(env *captureEnv, spec captureSpec) (*probeRecording, error) {
	rec := &probeRecording{cfg: spec.rcfg}
	part, _, _, err := env.capture(spec, func(shard int, ep rollup.Epoch, nameOf func(svc uint32) string) {
		r := sealRecord{shard: shard, ep: rollup.Epoch{Bin: ep.Bin, Cells: append([]rollup.Cell(nil), ep.Cells...)},
			names: map[uint32]string{}}
		for _, c := range ep.Cells {
			if _, ok := r.names[c.Svc]; !ok {
				r.names[c.Svc] = nameOf(c.Svc)
			}
		}
		rec.seals = append(rec.seals, r)
	}, nil, 0)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := rollup.Write(&buf, part); err != nil {
		return nil, err
	}
	rec.final = buf.Bytes()
	return rec, nil
}

// runShip measures probed×2 + aggd over loopback in one process. The
// probes' captures run in set-up, which records every seal; each timed
// run starts a fresh aggregator with a state file, replays both probes'
// seals through their own Shipper.SealHook (spool append, then the
// sender ships and the aggregator folds and persists), finishes both
// shippers and drains the aggregator to a snapshot. A sealed epoch
// shipped through to that snapshot is the unit of work, and one whole
// distributed run the operation whose latency is reported.
//
// With live captures in the timed phase, two probes and the aggregator
// overcommit 2 vCPUs, and the run's time followed host contention
// (IQR/median 0.33 over ten seeds, where collect's was 0.09 at the same
// time). gtpsim, pkt, dpi, probe and rollup ingest are measured on
// collect. The recorded captures are those of fixedCaptureSeed.
//
// Each epoch's seal-to-durable time is a per-layer metric: the replay
// runs flat out, so it measures how far the aggregator's backlog grows
// during a run, which varies too much from run to run to gate on.
func runShip(b *bench) (*outcome, error) {
	var recs [2]*probeRecording
	setup, err := timeSetups(b.setups, func() error {
		env := newCaptureEnv()
		half := weekBins / 2
		for p, win := range [2][2]int{{0, half}, {half, weekBins}} {
			var err error
			if recs[p], err = recordProbe(env, env.spec(fixedCaptureSeed, b.sc.Sessions/2, win[0], win[1])); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := &outcome{setup: setup, unit: "epochs", latName: "distributed run"}
	var durable, sealUs []float64

	iterate := func(i int, traced bool, layers map[string]float64) (float64, error) {
		dir := filepath.Join(b.dir, fmt.Sprintf("ship-%d", i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		r, err := shipOnce(b, recs, dir, traced, b.tr != nil && !traced, layers)
		out.attempted++
		if err != nil {
			out.failed++
			fmt.Fprintf(b.log, "ship: %v\n", err)
			return 0, nil
		}
		out.latencies = append(out.latencies, ms(r.wall))
		durable = append(durable, r.durable...)
		sealUs = append(sealUs, r.sealUs...)
		return float64(len(recs[0].seals)+len(recs[1].seals)) / r.wall.Seconds(), nil
	}

	rss := startRSS()
	var rates []float64
	phase := b.seconds
	if b.tr != nil {
		phase /= 2
	}
	err = jobLoop(phase, func(i int) error {
		r, err := iterate(i, false, nil)
		if r > 0 {
			rates = append(rates, r)
		}
		return err
	})
	out.peakRSS = rss.Stop()
	if err != nil {
		return nil, err
	}
	out.throughput = median(rates)
	if b.tr == nil {
		return out, nil
	}

	out.untracedThroughput = out.throughput
	b.layers["epochwire.epoch_durable_ms_p50"] = median(durable)
	b.layers["epochwire.epoch_durable_ms_p99"], _ = percentile(durable, 0.99)
	rates = rates[:0]
	var iters []map[string]float64
	err = jobLoop(phase, func(i int) error {
		layers := map[string]float64{}
		r, err := iterate(1000+i, true, layers)
		if r > 0 {
			iters = append(iters, layers)
			rates = append(rates, r)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	out.throughput = median(rates)
	medianLayers(iters, b.layers)
	b.layers["epochwire.seal_hook_us_p50"] = median(sealUs)
	b.layers["epochwire.seal_hook_us_p99"], _ = percentile(sealUs, 0.99)
	return out, nil
}

// shipRun is what one distributed run measured.
type shipRun struct {
	wall    time.Duration // aggregator start to snapshot written
	durable []float64     // seal-to-durable latencies, ms
	sealUs  []float64     // time in Shipper.SealHook, traced runs only
}

// shipOnce replays both recordings against a fresh aggregator in dir
// and checks the drained snapshot. The run's own output check failing
// is an error, which the caller counts as a failed operation. traced
// wraps every layer call; track measures seal-to-durable latencies.
func shipOnce(b *bench, recs [2]*probeRecording, dir string, traced, track bool, layers map[string]float64) (*shipRun, error) {
	tr := b.tr
	if !traced {
		tr = nil
	}
	root := tr.begin("ship.iteration", 0)
	start := time.Now()
	statePath := filepath.Join(dir, "agg.state")
	acfg := epochwire.AggConfig{Probes: len(probeIDs), StatePath: statePath, Registry: obs.NewRegistry()}
	var ws *wireStats
	var aggFS *countingFS
	if traced {
		ws = &wireStats{}
		aggFS = &countingFS{FS: chaos.OS, statePath: statePath}
		acfg.WrapConn, acfg.FS = ws.wrapConn, aggFS
	}
	agg, err := epochwire.NewAggregator("127.0.0.1:0", "", acfg)
	if err != nil {
		return nil, err
	}
	defer agg.Stop()

	var (
		ships   [2]*epochwire.Shipper
		spoolFS [2]*countingFS
	)
	for p := range probeIDs {
		scfg := epochwire.ShipperConfig{
			Addr:      agg.Addr(),
			ProbeID:   probeIDs[p],
			SpoolPath: filepath.Join(dir, probeIDs[p]+".spool"),
			Cfg:       recs[p].cfg,
			Shards:    1,
			Registry:  obs.NewRegistry(),
		}
		if traced {
			spoolFS[p] = &countingFS{FS: chaos.OS}
			scfg.Dial, scfg.FS = ws.dialer(), spoolFS[p]
		}
		var err error
		if ships[p], err = epochwire.NewShipper(scfg); err != nil {
			return nil, err
		}
	}
	var watch *durableWatch
	if track {
		watch = watchDurable(ships)
		defer watch.Stop()
	}

	var (
		wg    sync.WaitGroup
		mu    sync.Mutex // guards run and layers between the probe goroutines
		parts [2]*rollup.Partial
		errs  [2]error
		run   shipRun
	)
	for p := range probeIDs {
		sh := ships[p]
		seal := sh.SealHook
		if watch != nil {
			seal = watch.sealHook(p)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sealUs []float64
			for _, r := range recs[p].seals {
				at := time.Now()
				seal(r.shard, r.ep, func(svc uint32) string { return r.names[svc] })
				if traced {
					sealUs = append(sealUs, float64(time.Since(at))/1e3)
				}
			}
			part, err := rollup.Read(bytes.NewReader(recs[p].final))
			if err != nil {
				sh.Abort()
				errs[p] = err
				return
			}
			finID := tr.begin("epochwire.finish", root)
			errs[p] = sh.Finish(part)
			tr.end(finID)
			parts[p] = part
			mu.Lock()
			defer mu.Unlock()
			run.sealUs = append(run.sealUs, sealUs...)
			if traced {
				layers["epochwire.finish_ms"] += tr.spanMs(finID) / float64(len(probeIDs))
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	<-agg.Done()
	agg.Stop()
	if watch != nil {
		run.durable = watch.Stop()
	}
	if err := agg.CheckConservation(); err != nil {
		return nil, err
	}
	snapPath := filepath.Join(dir, "agg.roll")
	snapID := tr.begin("epochwire.agg_snapshot", root)
	err = agg.WriteSnapshot(snapPath)
	tr.end(snapID)
	if err != nil {
		return nil, err
	}
	run.wall = time.Since(start)
	tr.end(root)

	// Oracle: the drained snapshot is byte-identical to the merge of the
	// probes' own partials.
	got, err := os.ReadFile(snapPath)
	if err != nil {
		return nil, err
	}
	if err := parts[0].Merge(parts[1]); err != nil {
		return nil, err
	}
	var want bytes.Buffer
	if err := rollup.WriteV2(&want, parts[0]); err != nil {
		return nil, err
	}
	if !bytes.Equal(got, want.Bytes()) {
		return nil, fmt.Errorf("aggregated snapshot (%d bytes) differs from the merge of the probes' partials (%d bytes)",
			len(got), want.Len())
	}
	if traced {
		if _, err := checkSnapshot(tr, snapPath, parts[0].ClassifiedBytes, layers); err != nil {
			return nil, err
		}
		if err := wireLayers(ws, aggFS, spoolFS, statePath, layers); err != nil {
			return nil, err
		}
		layers["epochwire.agg_snapshot_ms"] = tr.spanMs(snapID)
	}
	return &run, nil
}

// wireLayers turns one traced run's wire and disk observations into
// layer metrics.
func wireLayers(ws *wireStats, aggFS *countingFS, spools [2]*countingFS, statePath string, layers map[string]float64) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if ws.err != nil {
		return fmt.Errorf("parsing the wire: %w", ws.err)
	}
	fi, err := os.Stat(statePath)
	if err != nil {
		return err
	}
	layers["epochwire.wire_bytes"] = float64(ws.wireBytes)
	layers["epochwire.resends"] = float64(ws.resends)
	layers["epochwire.ack_rtt_ms_p50"] = median(ws.ackRTT)
	layers["epochwire.ack_rtt_ms_p99"], _ = percentile(ws.ackRTT, 0.99)
	layers["epochwire.agg_turnaround_ms_p50"] = median(ws.turnaround)
	layers["epochwire.agg_turnaround_ms_p99"], _ = percentile(ws.turnaround, 0.99)
	layers["epochwire.agg_persists"] = float64(aggFS.persists)
	layers["epochwire.agg_persist_ms"] = float64(aggFS.persistNs) / 1e6
	layers["epochwire.agg_write_amplification"] = float64(aggFS.written) / float64(fi.Size())
	for _, s := range spools {
		layers["epochwire.spool_bytes"] += float64(s.written)
		layers["epochwire.spool_sync_ms"] += float64(s.syncNs) / 1e6
	}
	return nil
}
