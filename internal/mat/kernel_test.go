package mat

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
)

// mulVecRef is the one-row-at-a-time product MulVecTo must reproduce
// bit for bit.
func mulVecRef(m *Dense, v []float64) []float64 {
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for j := 0; j < m.Cols; j++ {
			sum += m.At(i, j) * v[j]
		}
		out[i] = sum
	}
	return out
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func sameBitsSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func TestMulVecToBitExactAtAnyGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 9))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, dims := range [][2]int{{1, 1}, {5, 3}, {7, 9}, {200, 200}, {673, 672}, {1001, 40}} {
		m := randomDense(rng, dims[0], dims[1])
		v := make([]float64, dims[1])
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		want := mulVecRef(m, v)
		for _, procs := range []int{1, 2, 3, 8} {
			runtime.GOMAXPROCS(procs)
			got := make([]float64, dims[0])
			m.MulVecTo(got, v)
			if !sameBitsSlice(got, want) {
				t.Fatalf("%dx%d at GOMAXPROCS %d: MulVecTo differs from the sequential product", dims[0], dims[1], procs)
			}
		}
	}
}

// TestMulVecToConcurrentCallers shares one matrix between goroutines,
// each with its own vectors, for the race detector.
func TestMulVecToConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	m := randomDense(rng, 256, 256)
	v := make([]float64, 256)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	want := mulVecRef(m, v)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dst := make([]float64, 256)
			for range 10 {
				m.MulVecTo(dst, v)
				if !sameBitsSlice(dst, want) {
					t.Error("concurrent MulVecTo differs from the sequential product")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestMulVecToRejectsAliasingAndMismatch(t *testing.T) {
	m := NewDense(3, 3)
	for name, f := range map[string]func(){
		"alias":    func() { v := make([]float64, 3); m.MulVecTo(v, v) },
		"mismatch": func() { m.MulVecTo(make([]float64, 2), make([]float64, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

// powerIterationRef is power iteration as written before the product
// reuse: two fresh matrix-vector products per iteration.
func powerIterationRef(a *Dense, start []float64, maxIter int, tol float64) (float64, []float64) {
	v := append([]float64(nil), start...)
	Normalize(v)
	prev := math.Inf(1)
	for iter := 0; iter < maxIter; iter++ {
		w := mulVecRef(a, v)
		norm := Norm2(w)
		if norm == 0 {
			return 0, v
		}
		Scale(w, 1/norm)
		lambda := Dot(w, mulVecRef(a, w))
		v = w
		if math.Abs(lambda-prev) <= tol*(1+math.Abs(lambda)) {
			return lambda, v
		}
		prev = lambda
	}
	return prev, v
}

// gram returns XᵀX of a random r×n X: symmetric positive semidefinite,
// like k-Shape's centred shape matrix.
func gram(rng *rand.Rand, r, n int) *Dense {
	x := randomDense(rng, r, n)
	return Mul(Transpose(x), x)
}

func TestPowerIterationBitExactWithReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for _, n := range []int{4, 50, 300} {
		a := gram(rng, 6, n)
		start := make([]float64, n)
		for i := range start {
			start[i] = rng.NormFloat64()
		}
		for _, maxIter := range []int{1, 7, 200} {
			wantVal, wantVec := powerIterationRef(a, start, maxIter, 1e-10)
			gotVal, gotVec, err := PowerIteration(a, start, maxIter, 1e-10)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(gotVal) != math.Float64bits(wantVal) || !sameBitsSlice(gotVec, wantVec) {
				t.Fatalf("n=%d maxIter=%d: PowerIteration differs from the two-product reference", n, maxIter)
			}
		}
	}
}

func BenchmarkMulVecTo(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	m := randomDense(rng, 672, 672)
	v, dst := make([]float64, 672), make([]float64, 672)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for b.Loop() {
		m.MulVecTo(dst, v)
	}
}

// BenchmarkPowerIteration is the dominant-eigenvector solve of one
// k-Shape shape extraction on week-long series (m = 672).
func BenchmarkPowerIteration(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 1))
	a := gram(rng, 5, 672)
	start := make([]float64, 672)
	for i := range start {
		start[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := PowerIteration(a, start, 200, 1e-10); err != nil {
			b.Fatal(err)
		}
	}
}
