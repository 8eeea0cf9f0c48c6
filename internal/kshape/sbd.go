// Package kshape implements the k-Shape time-series clustering
// algorithm of Paparrizos & Gravano (SIGMOD 2015), the method the paper
// uses to (attempt to) group the 20 mobile services by the shape of
// their weekly demand (Fig. 5). A z-normalized Euclidean k-means
// baseline is included for the clusterer ablation.
//
// k-Shape couples a shift-invariant distance — the shape-based distance
// SBD(x, y) = 1 - max NCC_c(x, y) — with a centroid computation (shape
// extraction) that finds the sequence maximizing squared similarity to
// all aligned cluster members, i.e. the dominant eigenvector of a
// centered Gram matrix.
//
// Every distance goes through one kernel: cached spectra
// (dsp.Spectrum) correlated by dsp.MaxNCCSpectra, bit-identical to the
// uncached dsp.MaxNCC.
package kshape

import (
	"repro/internal/dsp"
)

// SBD returns the shape-based distance between x and y, in [0, 2],
// together with the shift (in samples) that best aligns y to x.
// SBD(x, x) == 0; two anti-correlated shapes approach 2.
func SBD(x, y []float64) (dist float64, shift int) {
	if len(x) == 0 || len(y) == 0 {
		return 1, 0
	}
	n := dsp.NextPow2(len(x) + len(y) - 1)
	v, s := dsp.MaxNCCSpectra(dsp.NewSpectrum(x, n), dsp.NewSpectrum(y, n), make([]complex128, n))
	return 1 - v, s
}

// sbd is the shape-based distance of two cached spectra.
func sbd(x, y *dsp.Spectrum, work []complex128) float64 {
	v, _ := dsp.MaxNCCSpectra(x, y, work)
	return 1 - v
}

// Shift returns y displaced by s samples with zero padding: a positive
// s delays the sequence (content moves right). The result has the same
// length as y.
func Shift(y []float64, s int) []float64 {
	out := make([]float64, len(y))
	shiftInto(out, y, s)
	return out
}

// shiftInto writes Shift(y, s) into dst, which has len(y).
func shiftInto(dst, y []float64, s int) {
	for i := range y {
		j := i - s
		if j >= 0 && j < len(y) {
			dst[i] = y[j]
		} else {
			dst[i] = 0
		}
	}
}

// AlignTo returns y shifted so that it best aligns with the reference
// sequence ref under the NCC criterion (the alignment step of
// k-Shape's refinement phase).
func AlignTo(ref, y []float64) []float64 {
	if isZero(ref) || isZero(y) {
		// No shape information to align against.
		out := make([]float64, len(y))
		copy(out, y)
		return out
	}
	_, s := SBD(ref, y)
	return Shift(y, s)
}

func isZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// DistanceMatrix returns the symmetric SBD matrix of the given series
// set; entry [i][j] is SBD(series[i], series[j]) for i < j, mirrored
// (bit for bit when the series share one length; within rounding
// otherwise). Each series is transformed once.
func DistanceMatrix(series [][]float64) [][]float64 {
	n := len(series)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	maxLen := 0
	for _, s := range series {
		maxLen = max(maxLen, len(s))
	}
	fftLen := dsp.SpectrumLen(maxLen)
	specs := make([]*dsp.Spectrum, n)
	for i, s := range series {
		specs[i] = dsp.NewSpectrum(s, fftLen)
	}
	work := make([]complex128, fftLen)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			d := sbd(specs[i], specs[j], work)
			m[i][j] = d
			m[j][i] = d
		}
	}
	return m
}

// Distances answers the shape-based distances of one clustering of a
// Set by index — point to point, point to centroid, centroid to
// centroid — in the form cvi.Distances asks for. Point distances come
// from the set's matrix, computed once per set; centroid spectra are
// computed once per clustering, and each distance involving a centroid
// once, on first request (the Davies-Bouldin indices ask for each
// twice). Every value is bit-identical to SBD on the same pair in the
// same order.
type Distances struct {
	set        *Set
	cents      []*dsp.Spectrum
	toCentroid memo // [i][c]: SBD(data[i], centroid c)
	centroids  memo // [a][b]: SBD(centroid a, centroid b)
}

// Distances returns the distance oracle of a clustering res of this
// set. It shares the set's scratch space, so it must not be used
// concurrently with the set.
func (s *Set) Distances(res *Result) *Distances {
	if s.points == nil {
		s.points = make([][]float64, len(s.data))
		for i := range s.points {
			s.points[i] = make([]float64, len(s.data))
			for j := range s.points[i] {
				s.points[i][j] = sbd(s.specs[i], s.specs[j], s.work)
			}
		}
	}
	k := len(res.Centroids)
	d := &Distances{set: s, cents: make([]*dsp.Spectrum, k), toCentroid: newMemo(len(s.data), k), centroids: newMemo(k, k)}
	for c, x := range res.Centroids {
		d.cents[c] = dsp.NewSpectrum(x, len(s.work))
	}
	return d
}

// Point returns SBD(data[i], data[j]).
func (d *Distances) Point(i, j int) float64 { return d.set.points[i][j] }

// PointCentroid returns SBD(data[i], centroid c).
func (d *Distances) PointCentroid(i, c int) float64 {
	return d.toCentroid.get(i, c, func() float64 { return sbd(d.set.specs[i], d.cents[c], d.set.work) })
}

// Centroid returns SBD(centroid a, centroid b).
func (d *Distances) Centroid(a, b int) float64 {
	return d.centroids.get(a, b, func() float64 { return sbd(d.cents[a], d.cents[b], d.set.work) })
}

// memo is a rows×cols table of values computed on first request.
type memo struct {
	cols int
	val  []float64
	done []bool
}

func newMemo(rows, cols int) memo {
	return memo{cols: cols, val: make([]float64, rows*cols), done: make([]bool, rows*cols)}
}

func (m *memo) get(i, j int, compute func() float64) float64 {
	at := i*m.cols + j
	if !m.done[at] {
		m.val[at], m.done[at] = compute(), true
	}
	return m.val[at]
}
