package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/kshape"
	"repro/internal/services"
	"repro/internal/timeseries"
)

// The goldens below pin the exact IEEE-754 bits of the Fig. 5 k-Shape
// sweep on synth.SmallConfig() at seed 1. They were recorded before the
// k-Shape kernel's caching and row-parallel matrix-vector product were
// introduced; any change to the kernel must reproduce them bit for bit,
// not merely within a tolerance.

var (
	sweepOnce  sync.Once
	sweepByDir map[services.Direction][]core.SweepPoint
	sweepErr   error
)

// sweeps memoizes the Fig. 5 sweep (k = 2..19, seed 1) of both
// directions, run with at least two procs so the row-parallel
// matrix-vector product splits.
func sweeps(t *testing.T) map[services.Direction][]core.SweepPoint {
	t.Helper()
	ds := dataset(t)
	sweepOnce.Do(func() {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.NumCPU())))
		sweepByDir, sweepErr = runSweeps(core.New(ds))
	})
	if sweepErr != nil {
		t.Fatal(sweepErr)
	}
	return sweepByDir
}

func runSweeps(a *core.Analyzer) (map[services.Direction][]core.SweepPoint, error) {
	out := map[services.Direction][]core.SweepPoint{}
	for _, dir := range []services.Direction{services.DL, services.UL} {
		sweep, err := a.ClusterSweep(dir, 2, 19, 1)
		if err != nil {
			return nil, err
		}
		out[dir] = sweep
	}
	return out, nil
}

// sweepGoldenText renders every ClusterSweep score of both directions,
// k = 2..19, as hexadecimal Float64bits.
func sweepGoldenText(byDir map[services.Direction][]core.SweepPoint) string {
	var b strings.Builder
	for _, dir := range []services.Direction{services.DL, services.UL} {
		for _, p := range byDir[dir] {
			s := p.Scores
			fmt.Fprintf(&b, "%s k=%02d db=%016x dbstar=%016x dunn=%016x silhouette=%016x\n", dir, p.K,
				math.Float64bits(s.DaviesBouldin), math.Float64bits(s.DBStar),
				math.Float64bits(s.Dunn), math.Float64bits(s.Silhouette))
		}
	}
	return b.String()
}

// clusterGoldenText renders one kshape.Cluster run (downlink, k = 4,
// seed 1): the assignment, iteration count, inertia bits and a SHA-256
// over the centroids' bits.
func clusterGoldenText(t *testing.T) string {
	t.Helper()
	ds := dataset(t)
	series := make([][]float64, len(ds.Services()))
	for s := range series {
		series[s] = timeseries.ZNormalize(ds.NationalSeries(services.DL, s).Values)
	}
	res, err := kshape.Cluster(series, 4, kshape.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var word [8]byte
	for _, c := range res.Centroids {
		for _, v := range c {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return fmt.Sprintf("assign=%v\niterations=%d\ninertia=%016x\ncentroids_sha256=%x\n",
		res.Assign, res.Iterations, math.Float64bits(res.Inertia), h.Sum(nil))
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal([]byte(got), want) {
		t.Errorf("%s drifted:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// TestClusterSweepBitExactGolden checks the sweep at several procs and
// at GOMAXPROCS 1 against the recorded golden: the row-split
// matrix-vector product must not change a single bit.
func TestClusterSweepBitExactGolden(t *testing.T) {
	checkGolden(t, "cluster_sweep.golden", sweepGoldenText(sweeps(t)))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	single, err := runSweeps(core.New(dataset(t)))
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "cluster_sweep.golden", sweepGoldenText(single))
}

func TestClusterBitExactGolden(t *testing.T) {
	checkGolden(t, "cluster_k4.golden", clusterGoldenText(t))
}
