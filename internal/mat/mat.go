// Package mat implements the small dense linear-algebra kernel required
// by the k-Shape clustering algorithm: symmetric matrices, the cyclic
// Jacobi eigenvalue method, and power iteration for the dominant
// eigenvector.
//
// k-Shape's shape extraction computes the principal eigenvector of the
// symmetric matrix Mᵀ·M built from aligned, z-normalized cluster
// members. The matrices involved are (series length)² — a few hundred
// rows — so a dependency-free dense solver is both sufficient and
// fast enough.
package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense allocates a zeroed r×c matrix. It panics on non-positive
// dimensions.
func NewDense(r, c int) *Dense {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("mat: invalid dimensions %dx%d", r, c))
	}
	return &Dense{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Mul returns a·b. It panics on mismatched inner dimensions.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			rowB := b.Data[k*b.Cols : (k+1)*b.Cols]
			rowOut := out.Data[i*out.Cols : (i+1)*out.Cols]
			for j, bv := range rowB {
				rowOut[j] += aik * bv
			}
		}
	}
	return out
}

// Transpose returns mᵀ.
func Transpose(m *Dense) *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MulVec returns m·v as a new slice. It panics if len(v) != m.Cols.
func (m *Dense) MulVec(v []float64) []float64 {
	out := make([]float64, m.Rows)
	m.MulVecTo(out, v)
	return out
}

// parallelMinWork is the matrix size (Rows·Cols) from which MulVecTo
// splits its rows across goroutines; below it the spawn cost exceeds
// the product.
const parallelMinWork = 1 << 15

// MulVecTo writes m·v into dst instead of a new slice. It panics if
// len(v) != m.Cols or len(dst) != m.Rows, or if dst aliases v.
//
// Large matrices split their rows across GOMAXPROCS goroutines. Each
// output element is still the same sequential sum over its row in
// column order, computed by exactly one goroutine, so the result is
// bit-identical at any GOMAXPROCS.
func (m *Dense) MulVecTo(dst, v []float64) {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic(fmt.Sprintf("mat: MulVecTo dimension mismatch %dx%d · %d -> %d", m.Rows, m.Cols, len(v), len(dst)))
	}
	if len(dst) > 0 && len(v) > 0 && &dst[0] == &v[0] {
		panic("mat: MulVecTo dst aliases v")
	}
	workers := min(runtime.GOMAXPROCS(0), m.Rows/rowBlock)
	if workers <= 1 || m.Rows*m.Cols < parallelMinWork {
		m.mulRows(dst, v, 0, m.Rows)
		return
	}
	// Chunks are whole row blocks so every worker runs the unrolled loop.
	chunk := (m.Rows/rowBlock + workers - 1) / workers * rowBlock
	var wg sync.WaitGroup
	for lo := chunk; lo < m.Rows; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			m.mulRows(dst, v, lo, hi)
		}(lo, min(lo+chunk, m.Rows))
	}
	m.mulRows(dst, v, 0, min(chunk, m.Rows))
	wg.Wait()
}

// rowBlock is the number of rows mulRows advances together.
const rowBlock = 4

// mulRows computes dst[i] = Σ_j m[i][j]·v[j] for rows [lo, hi). Four
// rows advance together so their four independent sums overlap in the
// pipeline; each sum still runs over j in order, as the one-row loop
// does.
func (m *Dense) mulRows(dst, v []float64, lo, hi int) {
	c := m.Cols
	v = v[:c]
	i := lo
	for ; i+rowBlock <= hi; i += rowBlock {
		// Reslicing to len(v) lets the compiler drop the bounds checks.
		r0 := m.Data[i*c:][:len(v)]
		r1 := m.Data[(i+1)*c:][:len(v)]
		r2 := m.Data[(i+2)*c:][:len(v)]
		r3 := m.Data[(i+3)*c:][:len(v)]
		var s0, s1, s2, s3 float64
		for j, vj := range v {
			s0 += r0[j] * vj
			s1 += r1[j] * vj
			s2 += r2[j] * vj
			s3 += r3[j] * vj
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = s0, s1, s2, s3
	}
	for ; i < hi; i++ {
		row := m.Data[i*c:][:len(v)]
		var sum float64
		for j, rv := range row {
			sum += rv * v[j]
		}
		dst[i] = sum
	}
}

// IsSymmetric reports whether m is square and symmetric within tol.
func (m *Dense) IsSymmetric(tol float64) bool {
	if m.Rows != m.Cols {
		return false
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			if math.Abs(m.At(i, j)-m.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Dot returns the inner product of a and b; it panics on length
// mismatch.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot length mismatch %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Scale multiplies v in place by f and returns it.
func Scale(v []float64, f float64) []float64 {
	for i := range v {
		v[i] *= f
	}
	return v
}

// Normalize scales v in place to unit Euclidean norm and returns it.
// A zero vector is returned unchanged.
func Normalize(v []float64) []float64 {
	n := Norm2(v)
	if n == 0 {
		return v
	}
	return Scale(v, 1/n)
}
