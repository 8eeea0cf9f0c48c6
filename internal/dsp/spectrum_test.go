package dsp

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// sameBits is bitwise float equality, except that the two zeros are
// one value: the signed-spectrum maxima are exact up to the sign of a
// zero, which no distance or comparison downstream can observe.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a == 0 && b == 0)
}

func negated(x []float64) []float64 {
	out := make([]float64, len(x))
	for i, v := range x {
		out[i] = -v
	}
	return out
}

// checkCachedMatchesMaxNCC compares the cached-spectrum kernel with the
// uncached MaxNCC oracle on one signal pair.
func checkCachedMatchesMaxNCC(t *testing.T, x, y []float64) {
	t.Helper()
	n := NextPow2(max(len(x)+len(y)-1, len(x), len(y), 1))
	sx, sy := NewSpectrum(x, n), NewSpectrum(y, n)
	work := make([]complex128, n)

	wantV, wantS := MaxNCC(x, y)
	gotV, gotS := MaxNCCSpectra(sx, sy, work)
	if math.Float64bits(gotV) != math.Float64bits(wantV) || gotS != wantS {
		t.Fatalf("len %d/%d: cached (%v, %d) != MaxNCC (%v, %d)", len(x), len(y), gotV, gotS, wantV, wantS)
	}
	negV, _ := MaxNCC(negated(x), y)
	pos, neg := MaxNCCSignedSpectra(sx, sy, work)
	if math.Float64bits(pos) != math.Float64bits(wantV) || !sameBits(neg, negV) {
		t.Fatalf("len %d/%d: signed (%v, %v) != MaxNCC (%v, %v)", len(x), len(y), pos, neg, wantV, negV)
	}
}

func TestSpectrumMatchesMaxNCCProperty(t *testing.T) {
	f := func(seed uint64, lx, ly uint8) bool {
		rng := rand.New(rand.NewPCG(seed, 5))
		x := make([]float64, int(lx%90)+1)
		y := make([]float64, int(ly%90)+1)
		for i := range x {
			x[i] = rng.NormFloat64() * 1e3
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		checkCachedMatchesMaxNCC(t, x, y)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
	// The k-Shape case: week-long series at 15-minute resolution.
	rng := rand.New(rand.NewPCG(7, 7))
	x, y := make([]float64, 672), make([]float64, 672)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	checkCachedMatchesMaxNCC(t, x, y)
	checkCachedMatchesMaxNCC(t, x, x)
}

func TestSpectrumEdgeInputs(t *testing.T) {
	cases := map[string][2][]float64{
		"zero":        {make([]float64, 8), {1, 2, 3, 4, 5, 6, 7, 8}},
		"both zero":   {make([]float64, 5), make([]float64, 5)},
		"constant":    {{3, 3, 3, 3}, {3, 3, 3, 3}},
		"length one":  {{2}, {-5}},
		"one vs many": {{1}, {1, -1, 2, 0}},
		"empty":       {nil, {1, 2}},
		"both empty":  {nil, nil},
		"nan":         {{1, math.NaN(), 2}, {1, 2, 3}},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) { checkCachedMatchesMaxNCC(t, c[0], c[1]) })
	}
}

func TestSpectrumSetReuse(t *testing.T) {
	s := NewSpectrum([]float64{1, 2, 3}, 8)
	s.Set([]float64{4, 0, -1, 2})
	fresh := NewSpectrum([]float64{4, 0, -1, 2}, 8)
	for i := range s.freq {
		if s.freq[i] != fresh.freq[i] {
			t.Fatalf("Set left stale bins: %v vs %v", s.freq, fresh.freq)
		}
	}
	if s.len != 4 || s.energy != fresh.energy {
		t.Fatalf("Set: len %d energy %v, want 4 and %v", s.len, s.energy, fresh.energy)
	}
}

func TestSpectrumRejectsWrongLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("correlating at too short an FFT length: want panic")
		}
	}()
	x := NewSpectrum([]float64{1, 2, 3}, 4) // the full correlation has 5 lags
	MaxNCCSpectra(x, x, make([]complex128, 4))
}

func TestMaxNCCSpectraAllocatesNothing(t *testing.T) {
	n := SpectrumLen(672)
	rng := rand.New(rand.NewPCG(1, 1))
	x, y := make([]float64, 672), make([]float64, 672)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	sx, sy := NewSpectrum(x, n), NewSpectrum(y, n)
	work := make([]complex128, n)
	if a := testing.AllocsPerRun(50, func() { MaxNCCSpectra(sx, sy, work) }); a != 0 {
		t.Errorf("MaxNCCSpectra allocates %v times per call", a)
	}
	if a := testing.AllocsPerRun(50, func() { MaxNCCSignedSpectra(sx, sy, work) }); a != 0 {
		t.Errorf("MaxNCCSignedSpectra allocates %v times per call", a)
	}
}

// BenchmarkSBDCachedVsUncached is the per-distance cost k-Shape pays
// with and without cached spectra, on week-long series.
func BenchmarkSBDCachedVsUncached(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	x, y := make([]float64, 672), make([]float64, 672)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	b.Run("uncached", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			MaxNCC(x, y)
		}
	})
	b.Run("cached", func(b *testing.B) {
		n := SpectrumLen(len(x))
		sx, sy := NewSpectrum(x, n), NewSpectrum(y, n)
		work := make([]complex128, n)
		b.ReportAllocs()
		for b.Loop() {
			MaxNCCSpectra(sx, sy, work)
		}
	})
}
