package main

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kshape"
	"repro/internal/rollup"
	"repro/internal/services"
)

// runAnalyze measures the analyze -snapshot path: snapshot open →
// Engine.Run over the registry → JSON. One such run is the unit of
// work and its wall time the latency. Its input is fixed (see
// fixedCaptureSeed).
func runAnalyze(b *bench) (*outcome, error) {
	path := filepath.Join(b.dir, "week.roll")
	var part *rollup.Partial
	setup, err := timeSetups(b.setups, func() error {
		env := newCaptureEnv()
		var err error
		part, _, _, err = env.capture(env.spec(fixedCaptureSeed, b.sc.Sessions, 0, weekBins), nil, nil, 0)
		if err != nil {
			return err
		}
		return rollup.WriteFile(path, part)
	})
	if err != nil {
		return nil, err
	}

	// Oracle: the engine JSON of the collector's in-memory partial, one
	// runner at a time in registry order. A traced run times each runner
	// here, which is what experiments.<id>_s reports.
	ds, err := part.Dataset()
	if err != nil {
		return nil, err
	}
	refEnv := experiments.NewEnvFrom(ds, engineSeed)
	runners := experiments.All()
	if len(b.sc.IDs) > 0 {
		runners = runners[:0]
		for _, id := range b.sc.IDs {
			r, err := experiments.ByID(id)
			if err != nil {
				return nil, err
			}
			runners = append(runners, r)
		}
	}
	results := make([]experiments.Result, 0, len(runners))
	for _, r := range runners {
		id := b.tr.begin("experiments."+r.ID, 0)
		res, err := r.Run(context.Background(), refEnv)
		b.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("reference %s: %w", r.ID, err)
		}
		results = append(results, res)
		if b.tr != nil {
			b.layers["experiments."+r.ID+"_s"] = b.tr.spanMs(id) / 1e3
		}
	}
	want, err := experiments.EncodeJSON(results)
	if err != nil {
		return nil, err
	}

	out := &outcome{setup: setup, unit: "engine runs", latName: "snapshot→JSON"}
	iterate := func(tr *tracer) (float64, error) {
		root := tr.begin("analyze.iteration", 0)
		start := time.Now()
		loadID := tr.begin("measured.load", root)
		env, err := experiments.NewEnvFromSnapshot(path, engineSeed)
		tr.end(loadID)
		if err != nil {
			return 0, err
		}
		runID := tr.begin("experiments.engine", root)
		res, err := experiments.NewEngine(env).Run(context.Background(),
			experiments.Options{Concurrency: b.sc.Clients, IDs: b.sc.IDs})
		tr.end(runID)
		if err != nil {
			return 0, err
		}
		got, err := experiments.EncodeJSON(res)
		if err != nil {
			return 0, err
		}
		wall := time.Since(start)
		tr.end(root)
		out.attempted++
		out.latencies = append(out.latencies, ms(wall))
		if !bytes.Equal(got, want) {
			out.failed++
			fmt.Fprintf(b.log, "analyze: engine JSON differs from the reference\n")
		}
		if tr != nil {
			b.layers["measured.load_ms"] = tr.spanMs(loadID)
		}
		return 1 / wall.Seconds(), nil
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

	out.untracedThroughput = out.throughput
	rate, err := iterate(b.tr)
	if err != nil {
		return nil, err
	}
	out.throughput = rate
	b.layers["kshape.cluster_ms"], err = clusterMs(b.tr, ds)
	if err != nil {
		return nil, err
	}
	if err := storeLayers(b.tr, []string{path}, b.layers); err != nil {
		return nil, err
	}
	return out, nil
}

// clusterK is the cluster count of the k-Shape measurement, a mid
// point of fig5's 2..19 sweep.
const clusterK = 4

// clusterMs times one kshape.Cluster of the 20 national downlink
// series, z-normalized, at the engine's seed.
func clusterMs(tr *tracer, ds core.Dataset) (float64, error) {
	series := make([][]float64, len(ds.Services()))
	for i := range series {
		series[i] = ds.NationalSeries(services.DL, i).Values
	}
	id := tr.begin("kshape.cluster", 0)
	_, err := kshape.Cluster(series, min(clusterK, len(series)), kshape.Options{Seed: engineSeed, ZNormalize: true})
	tr.end(id)
	return tr.spanMs(id), err
}
