package kshape

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/dsp"
	"repro/internal/timeseries"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSBDMatchesMaxNCCBits pins the public SBD, now computed from
// cached spectra, to the uncached dsp.MaxNCC oracle bit for bit.
func TestSBDMatchesMaxNCCBits(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	pairs := [][2][]float64{
		{make([]float64, 6), {1, 2, 3, 4, 5, 6}},
		{{4, 4, 4}, {4, 4, 4}},
		{{3}, {-2}},
		{nil, {1}},
	}
	for trial := 0; trial < 40; trial++ {
		x, y := make([]float64, rng.IntN(70)+1), make([]float64, rng.IntN(70)+1)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		pairs = append(pairs, [2][]float64{x, y})
	}
	for _, p := range pairs {
		v, wantShift := dsp.MaxNCC(p[0], p[1])
		d, shift := SBD(p[0], p[1])
		if !sameBits(d, 1-v) || shift != wantShift {
			t.Fatalf("len %d/%d: SBD = (%v, %d), MaxNCC gives (%v, %d)", len(p[0]), len(p[1]), d, shift, 1-v, wantShift)
		}
	}
}

// weekSeries returns n z-normalized week-long series (m = 672): a few
// daily-profile families with random phase, amplitude mix and noise,
// the shape of the study's national service series.
func weekSeries(n int) [][]float64 {
	rng := rand.New(rand.NewPCG(4, 2))
	series := make([][]float64, n)
	for s := range series {
		fam := float64(s % 4)
		phase := rng.Float64() * 8
		x := make([]float64, 672)
		for i := range x {
			h := float64(i%96)/4 + phase
			x[i] = math.Sin(2*math.Pi*h/24) + 0.4*fam*math.Cos(2*math.Pi*h/12+fam) + 0.1*rng.NormFloat64()
		}
		series[s] = timeseries.ZNormalize(x)
	}
	return series
}

func TestSetClusterMatchesCluster(t *testing.T) {
	series := weekSeries(12)
	set, err := NewSet(series)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 5, 12} {
		want, err := Cluster(series, k, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		got, err := set.Cluster(k, Options{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got.Assign) != fmt.Sprint(want.Assign) || got.Iterations != want.Iterations || !sameBits(got.Inertia, want.Inertia) {
			t.Fatalf("k=%d: Set.Cluster %+v differs from Cluster %+v", k, got, want)
		}
		for c := range want.Centroids {
			for i := range want.Centroids[c] {
				if !sameBits(got.Centroids[c][i], want.Centroids[c][i]) {
					t.Fatalf("k=%d: centroid %d differs at %d", k, c, i)
				}
			}
		}
	}
	if _, err := set.Cluster(2, Options{ZNormalize: true}); err == nil {
		t.Error("Set.Cluster with ZNormalize: want error")
	}
	if _, err := set.Cluster(13, Options{}); err == nil {
		t.Error("Set.Cluster with k > n: want error")
	}
	if _, err := NewSet([][]float64{{1, 2}, {1}}); err == nil {
		t.Error("NewSet of ragged series: want error")
	}
}

// TestDistancesMatchSBD checks every cached distance against SBD on the
// same pair in the same order, bit for bit.
func TestDistancesMatchSBD(t *testing.T) {
	series := weekSeries(8)
	set, err := NewSet(series)
	if err != nil {
		t.Fatal(err)
	}
	res, err := set.Cluster(3, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	d := set.Distances(res)
	sbdOf := func(x, y []float64) float64 { v, _ := SBD(x, y); return v }
	for i := range series {
		for j := range series {
			if !sameBits(d.Point(i, j), sbdOf(series[i], series[j])) {
				t.Fatalf("Point(%d, %d) differs from SBD", i, j)
			}
		}
		for c, cent := range res.Centroids {
			for range 2 { // the second read comes from the memo
				if !sameBits(d.PointCentroid(i, c), sbdOf(series[i], cent)) {
					t.Fatalf("PointCentroid(%d, %d) differs from SBD", i, c)
				}
			}
		}
	}
	for a, ca := range res.Centroids {
		for b, cb := range res.Centroids {
			if !sameBits(d.Centroid(a, b), sbdOf(ca, cb)) {
				t.Fatalf("Centroid(%d, %d) differs from SBD", a, b)
			}
		}
	}
}

func TestDistanceMatrixRaggedLengths(t *testing.T) {
	series := [][]float64{{1, 2, 3, 2, 1}, {0, 1, 0}, {3, 1, 2, 2}}
	m := DistanceMatrix(series)
	for i := range series {
		for j := i + 1; j < len(series); j++ {
			want, _ := SBD(series[i], series[j])
			if math.Abs(m[i][j]-want) > 1e-12 || m[j][i] != m[i][j] {
				t.Errorf("[%d][%d] = %v, SBD = %v", i, j, m[i][j], want)
			}
		}
	}
}

// BenchmarkCluster is one k-Shape run over 20 week-long series, the
// Fig. 5 sweep's unit of work, at the low and high end of its k range.
func BenchmarkCluster(b *testing.B) {
	series := weekSeries(20)
	for _, k := range []int{4, 19} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Cluster(series, k, Options{Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
