package main

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/rollup"
	"repro/internal/services"
)

// runCollect measures probesim's path: gtpsim week → 1-shard pipeline
// → collector → snapshot file, repeated for the run's length. One
// frame captured through to a written snapshot is the unit of work.
func runCollect(b *bench) (*outcome, error) {
	var env *captureEnv
	setup, err := timeSetups(b.setups, func() error {
		env = newCaptureEnv()
		return nil
	})
	if err != nil {
		return nil, err
	}
	spec := env.spec(b.seed, b.sc.Sessions, 0, weekBins)
	path := filepath.Join(b.dir, "collect.roll")
	out := &outcome{setup: setup, unit: "frames", latName: "capture run"}
	var firstCRC uint32

	// iterate captures once, writes the snapshot and checks it; it
	// returns frames per second of the capture-to-file interval.
	iterate := func(ct *captureTrace) (float64, error) {
		var tr *tracer
		if ct != nil {
			tr = b.tr
		}
		root := tr.begin("collect.iteration", 0)
		start := time.Now()
		part, rep, frames, err := env.capture(spec, nil, ct, root)
		if err != nil {
			return 0, err
		}
		writeID := tr.begin("rollup.write", root)
		err = rollup.WriteFile(path, part)
		tr.end(writeID)
		if err != nil {
			return 0, err
		}
		wall := time.Since(start)
		tr.end(root)
		out.attempted++
		out.latencies = append(out.latencies, ms(wall))
		var layer map[string]float64
		if ct != nil {
			layer = ct.iterLayers
			if fi, err := os.Stat(path); err == nil {
				layer["rollup.snapshot_bytes"] = float64(fi.Size())
				layer["rollup.write_mb_per_s"] = float64(fi.Size()) / (1 << 20) / (tr.spanMs(writeID) / 1e3)
			}
		}
		crc, err := checkSnapshot(tr, path, rep.ClassifiedBytes, layer)
		if err == nil && firstCRC != 0 && crc != firstCRC {
			err = fmt.Errorf("snapshot bytes differ between runs of one seed")
		}
		if err != nil {
			out.failed++
			fmt.Fprintf(b.log, "collect: output check failed: %v\n", err)
		}
		firstCRC = crc
		return float64(frames) / wall.Seconds(), nil
	}

	rss := startRSS()
	var rates []float64
	phase := b.seconds
	if b.tr != nil {
		phase /= 2
	}
	err = jobLoop(phase, func(int) error {
		r, err := iterate(nil)
		rates = append(rates, r)
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

	// Traced phase: the same iterations with every layer call wrapped.
	out.untracedThroughput = out.throughput
	rates = rates[:0]
	var cts []*captureTrace
	var layers []map[string]float64
	err = jobLoop(phase, func(i int) error {
		ct := newCaptureTrace(b.tr, i == 0, b.sc.SampleFrames)
		cts = append(cts, ct)
		r, err := iterate(ct)
		layers = append(layers, ct.iterLayers)
		rates = append(rates, r)
		return err
	})
	if err != nil {
		return nil, err
	}
	out.throughput = median(rates)
	medianLayers(layers, b.layers)
	captureLayers(b.tr, cts, b.layers)
	if self := b.tr.selfTimes()["probe.run"]; self.Spans > 0 {
		b.layers["probe.run_self_s"] = self.Seconds / float64(self.Spans)
	}
	callLayers(env, cts[0], b.layers)
	return out, nil
}

// checkSnapshot is the collect and ship output oracle: the snapshot at
// path must re-read through rollup.ReadFile (whole-file CRC), open
// indexed with every footer entry seek-decoding under its own CRC, and
// carry cell sums equal to its classified bytes and to want. It
// returns the file's CRC-32 and, in a traced run, times both reads
// into layer.
func checkSnapshot(tr *tracer, path string, want [services.NumDirections]float64, layer map[string]float64) (uint32, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	size := float64(len(raw)) / (1 << 20)
	readID := tr.begin("rollup.read", 0)
	part, err := rollup.ReadFile(path)
	tr.end(readID)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		layer["rollup.read_mb_per_s"] = size / (tr.spanMs(readID) / 1e3)
	}
	if got := part.CellTotals(); got != part.ClassifiedBytes || got != want {
		return 0, fmt.Errorf("cell sums %v, classified bytes %v, probe report %v", got, part.ClassifiedBytes, want)
	}
	decodeID := tr.begin("rollup.decode_entry", 0)
	err = decodeAll(path)
	tr.end(decodeID)
	if err != nil {
		return 0, err
	}
	if tr != nil {
		layer["rollup.decode_entry_mb_per_s"] = size / (tr.spanMs(decodeID) / 1e3)
	}
	return crc32.ChecksumIEEE(raw), nil
}

// decodeAll opens path through its footer index and seek-decodes every
// epoch record.
func decodeAll(path string) error {
	x, err := rollup.OpenIndexed(path)
	if err != nil {
		return err
	}
	defer x.Close()
	if !x.Indexed() {
		return fmt.Errorf("%s has no footer index", path)
	}
	var buf []rollup.Cell
	for i := range x.Entries() {
		ep, err := x.DecodeEntry(i, buf)
		if err != nil {
			return err
		}
		buf = ep.Cells
	}
	return nil
}

// medianLayers stores, per metric, the median over the traced
// iterations' values.
func medianLayers(iters []map[string]float64, into map[string]float64) {
	vals := map[string][]float64{}
	for _, m := range iters {
		for k, v := range m {
			vals[k] = append(vals[k], v)
		}
	}
	for k, v := range vals {
		into[k] = median(v)
	}
}
