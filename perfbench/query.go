package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/catalog"
	"repro/internal/rollup"
)

// runQuery measures a closed loop of b.sc.Clients clients over the
// per-day store: each client sends its next query only after the
// previous one returned. A completed query is the unit of work.
func runQuery(b *bench) (*outcome, error) {
	var (
		env   *captureEnv
		paths []string
		cat   *catalog.Catalog
		opens []float64
	)
	n := 0
	setup, err := timeSetups(b.setups, func() error {
		if cat != nil {
			cat.Close()
		}
		env = newCaptureEnv()
		dir := filepath.Join(b.dir, fmt.Sprintf("store-%d", n))
		n++
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		var err error
		if paths, err = buildStore(env, b.seed, b.sc.Sessions, dir); err != nil {
			return err
		}
		start := time.Now()
		cat, err = catalog.Open(dir)
		opens = append(opens, ms(time.Since(start)))
		return err
	})
	if err != nil {
		return nil, err
	}
	defer cat.Close()

	// Oracle: the digest of each spec's full-scan answer over the merged
	// week, encoded, computed before the timed phase.
	week, err := rollup.ReadFile(paths[0])
	if err != nil {
		return nil, err
	}
	for _, p := range paths[1:] {
		day, err := rollup.ReadFile(p)
		if err != nil {
			return nil, err
		}
		if err := week.Merge(day); err != nil {
			return nil, err
		}
	}
	mix := specMix(b.seed, b.sc.Specs, cat.Services(), len(env.country.Communes))
	want := make([][sha256.Size]byte, len(mix))
	for i, spec := range mix {
		ref, err := spec.Apply(week)
		if err != nil {
			return nil, fmt.Errorf("reference for %s: %w", spec, err)
		}
		var buf bytes.Buffer
		if err := rollup.Write(&buf, ref); err != nil {
			return nil, err
		}
		want[i] = sha256.Sum256(buf.Bytes())
	}
	week = nil // peak_rss_mb is the timed phase's, not the reference's

	out := &outcome{setup: setup, unit: "queries", latName: "query"}
	rss := startRSS()
	phase := b.seconds
	if b.tr != nil {
		phase /= 2
	}
	loop := closedLoop(b, cat, mix, want, phase, nil)
	out.peakRSS = rss.Stop()
	out.throughput, out.latencies = loop.throughput(), loop.latencies
	out.attempted, out.failed = loop.attempted, loop.failed
	if b.tr == nil {
		return out, nil
	}

	out.untracedThroughput = out.throughput
	traced := closedLoop(b, cat, mix, want, phase, b.tr)
	out.throughput = traced.throughput()
	out.attempted += traced.attempted
	out.failed += traced.failed
	b.layers["catalog.open_ms"] = median(opens)
	st := traced.stats
	b.layers["catalog.epochs_decoded_share"] = float64(st.EpochsDecoded) / float64(st.EpochsTotal)
	b.layers["catalog.files_pruned_share"] = float64(st.FilesPruned) / float64(st.Files)
	b.layers["catalog.cells_decoded"] = float64(st.CellsDecoded) / float64(traced.attempted)
	if err := storeLayers(b.tr, paths, b.layers); err != nil {
		return nil, err
	}
	return out, nil
}

// loopResult is what one closed-loop phase measured.
type loopResult struct {
	clients           int
	latencies         []float64 // ms
	busy              time.Duration
	attempted, failed int64
	stats             catalog.Stats
}

// throughput is completed queries per second of query time per client:
// each client's checks run between its queries, outside its timed
// intervals, so they do not count against the store.
func (r *loopResult) throughput() float64 {
	if r.busy <= 0 {
		return 0
	}
	return float64(r.attempted-r.failed) * float64(r.clients) / r.busy.Seconds()
}

// closedLoop runs the query clients for d. Client c walks the mix in
// order from its own starting point, so every spec is asked equally
// often; every answer is re-encoded and its digest compared with the
// reference's after its latency is taken.
func closedLoop(b *bench, cat *catalog.Catalog, mix []rollup.ViewSpec, want [][sha256.Size]byte, d time.Duration, tr *tracer) *loopResult {
	res := &loopResult{clients: b.sc.Clients}
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for c := 0; c < b.sc.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lat []float64
			var busy time.Duration
			var attempted, failed int64
			var st catalog.Stats
			var buf bytes.Buffer
			for attempted == 0 || time.Now().Before(deadline) {
				i := (c*len(mix)/b.sc.Clients + int(attempted)) % len(mix)
				id := tr.begin("catalog.query", 0)
				start := time.Now()
				got, qs, err := cat.Query(mix[i])
				took := time.Since(start)
				tr.end(id)
				attempted++
				busy += took
				lat = append(lat, ms(took))
				if err == nil {
					buf.Reset()
					err = rollup.Write(&buf, got)
				}
				if err == nil && sha256.Sum256(buf.Bytes()) != want[i] {
					err = fmt.Errorf("answer to %s differs from the full-scan reference", mix[i])
				}
				if err != nil {
					failed++
					fmt.Fprintf(b.log, "query: %v\n", err)
					continue
				}
				st.Files += qs.Files
				st.FilesPruned += qs.FilesPruned
				st.EpochsTotal += qs.EpochsTotal
				st.EpochsDecoded += qs.EpochsDecoded
				st.CellsDecoded += qs.CellsDecoded
			}
			mu.Lock()
			defer mu.Unlock()
			res.latencies = append(res.latencies, lat...)
			res.busy += busy
			res.attempted += attempted
			res.failed += failed
			res.stats.Files += st.Files
			res.stats.FilesPruned += st.FilesPruned
			res.stats.EpochsTotal += st.EpochsTotal
			res.stats.EpochsDecoded += st.EpochsDecoded
			res.stats.CellsDecoded += st.CellsDecoded
		}()
	}
	wg.Wait()
	return res
}

// storeLayers times whole-file reads and indexed seek-decodes over the
// store files.
func storeLayers(tr *tracer, paths []string, layers map[string]float64) error {
	var size int64
	for _, p := range paths {
		fi, err := os.Stat(p)
		if err != nil {
			return err
		}
		size += fi.Size()
	}
	mb := float64(size) / (1 << 20)
	readID := tr.begin("rollup.read", 0)
	for _, p := range paths {
		if _, err := rollup.ReadFile(p); err != nil {
			return err
		}
	}
	tr.end(readID)
	decodeID := tr.begin("rollup.decode_entry", 0)
	for _, p := range paths {
		if err := decodeAll(p); err != nil {
			return err
		}
	}
	tr.end(decodeID)
	layers["rollup.read_mb_per_s"] = mb / (tr.spanMs(readID) / 1e3)
	layers["rollup.decode_entry_mb_per_s"] = mb / (tr.spanMs(decodeID) / 1e3)
	return nil
}
