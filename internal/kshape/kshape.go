package kshape

import (
	"errors"
	"fmt"
	"math/rand/v2"

	"repro/internal/dsp"
	"repro/internal/mat"
	"repro/internal/timeseries"
)

// Options configures a clustering run.
type Options struct {
	// MaxIter bounds the assignment/refinement loop (default 100).
	MaxIter int
	// Seed makes the random initial assignment reproducible.
	Seed uint64
	// ZNormalize applies z-normalization to every input series before
	// clustering (the canonical k-Shape preprocessing). Enabled by the
	// high-level pipeline; disable only for pre-normalized input.
	ZNormalize bool
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 100
	}
	return o
}

// Result is the outcome of a clustering run.
type Result struct {
	// Assign maps each input series to its cluster in [0, K).
	Assign []int
	// Centroids holds one extracted shape per cluster, z-normalized.
	Centroids [][]float64
	// Iterations is the number of refinement rounds executed.
	Iterations int
	// Inertia is the sum of SBD distances of members to their centroid
	// (lower is tighter).
	Inertia float64
}

// Cluster runs k-Shape over the series set. All series must share the
// same positive length. It returns an error for k < 1, k > len(series)
// or inconsistent lengths.
func Cluster(series [][]float64, k int, opts Options) (*Result, error) {
	if err := validate(series, k); err != nil {
		return nil, err
	}
	return newSet(prepare(series, opts)).cluster(k, opts.withDefaults()), nil
}

// prepare returns the series the clusterers work on: z-normalized
// copies when opts asks for them, the input itself otherwise.
func prepare(series [][]float64, opts Options) [][]float64 {
	if !opts.ZNormalize {
		return series
	}
	data := make([][]float64, len(series))
	for i, s := range series {
		data[i] = timeseries.ZNormalize(s)
	}
	return data
}

// Set is a fixed collection of equal-length series prepared for
// repeated k-Shape runs and scoring: the spectrum of every series is
// computed once, so each shape-based distance against a member costs
// one product and one inverse FFT, and the member-to-member distance
// matrix is computed once however many clusterings are scored. A Set
// is not safe for concurrent use.
type Set struct {
	data   [][]float64
	specs  []*dsp.Spectrum
	work   []complex128
	points [][]float64 // points[i][j] = SBD(data[i], data[j]), built on first use
}

// NewSet prepares the series, clustered as given (z-normalize them
// first if wanted). They must be non-empty and share a positive length.
func NewSet(series [][]float64) (*Set, error) {
	if err := validate(series, 1); err != nil {
		return nil, err
	}
	return newSet(series), nil
}

func newSet(data [][]float64) *Set {
	n := dsp.SpectrumLen(len(data[0]))
	s := &Set{data: data, specs: make([]*dsp.Spectrum, len(data)), work: make([]complex128, n)}
	for i, x := range data {
		s.specs[i] = dsp.NewSpectrum(x, n)
	}
	return s
}

// Cluster runs k-Shape over the set; it equals the package-level
// Cluster of the same series. opts.ZNormalize must be false: the set
// holds its series as given.
func (s *Set) Cluster(k int, opts Options) (*Result, error) {
	if opts.ZNormalize {
		return nil, errors.New("kshape: Set.Cluster clusters its series as given; z-normalize them before NewSet")
	}
	if err := validate(s.data, k); err != nil {
		return nil, err
	}
	return s.cluster(k, opts.withDefaults()), nil
}

// workspace is the scratch memory of one clustering run, allocated
// once per run and reused by every shape extraction in it. It lives no
// longer than the run: holding m×m matrices across runs would raise the
// sweep's peak memory for no gain in speed.
type workspace struct {
	mat     *mat.Dense      // S = XᵀX, then centred in place into M
	colMean []float64       // column means of S
	rows    [][]float64     // aligned cluster members
	rowSpec *dsp.Spectrum   // spectrum of one aligned member
	cents   []*dsp.Spectrum // spectrum of every current centroid
}

func (s *Set) cluster(k int, opts Options) *Result {
	n := len(s.data)
	m := len(s.data[0])

	rng := rand.New(rand.NewPCG(opts.Seed, 0x6b736861)) // "ksha"
	assign := make([]int, n)
	for i := range assign {
		assign[i] = rng.IntN(k)
	}
	centroids := make([][]float64, k)
	ws := &workspace{
		mat:     mat.NewDense(m, m),
		colMean: make([]float64, m),
		rows:    make([][]float64, n),
		rowSpec: dsp.NewSpectrum(nil, len(s.work)),
		cents:   make([]*dsp.Spectrum, k),
	}
	for c := range centroids {
		centroids[c] = make([]float64, m)
		ws.cents[c] = dsp.NewSpectrum(centroids[c], len(s.work))
	}
	for i := range ws.rows {
		ws.rows[i] = make([]float64, m)
	}

	var iter int
	for iter = 0; iter < opts.MaxIter; iter++ {
		// Refinement: extract the shape of every cluster.
		for c := 0; c < k; c++ {
			centroids[c] = s.extractShape(ws, assign, c, centroids[c])
		}
		// Assignment: move each series to the closest shape.
		changed := false
		for i := range s.data {
			best, bestDist := assign[i], 2.1 // SBD upper bound is 2
			for c := 0; c < k; c++ {
				if d := sbd(ws.cents[c], s.specs[i], s.work); d < bestDist {
					best, bestDist = c, d
				}
			}
			if best != assign[i] {
				assign[i] = best
				changed = true
			}
		}
		for _, c := range fixEmptyClusters(s.data, assign, centroids, k, rng) {
			ws.cents[c].Set(centroids[c])
		}
		if !changed {
			iter++
			break
		}
	}

	res := &Result{Assign: assign, Centroids: centroids, Iterations: iter}
	for i := range s.data {
		res.Inertia += sbd(ws.cents[assign[i]], s.specs[i], s.work)
	}
	return res
}

func validate(series [][]float64, k int) error {
	if len(series) == 0 {
		return errors.New("kshape: no input series")
	}
	if k < 1 || k > len(series) {
		return fmt.Errorf("kshape: k=%d outside [1, %d]", k, len(series))
	}
	m := len(series[0])
	if m == 0 {
		return errors.New("kshape: zero-length series")
	}
	for i, s := range series {
		if len(s) != m {
			return fmt.Errorf("kshape: series %d has length %d, want %d", i, len(s), m)
		}
	}
	return nil
}

// extractShape computes the new centroid of cluster c: the dominant
// eigenvector of Qᵀ·(XᵀX)·Q where X stacks the cluster members aligned
// to the previous centroid and Q = I - (1/m)·1 centers the columns.
// ws.cents[c] holds the previous centroid's spectrum on entry and the
// new one's on return.
func (s *Set) extractShape(ws *workspace, assign []int, c int, prev []float64) []float64 {
	m := len(prev)
	spec := ws.cents[c]
	alignable := !isZero(prev)
	members := ws.rows[:0]
	for i, a := range assign {
		if a != c {
			continue
		}
		row := ws.rows[len(members)]
		if alignable && !isZero(s.data[i]) {
			_, shift := dsp.MaxNCCSpectra(spec, s.specs[i], s.work)
			shiftInto(row, s.data[i], shift)
		} else {
			// No shape information to align against.
			copy(row, s.data[i])
		}
		members = append(members, row)
	}
	if len(members) == 0 {
		return setCentroid(spec, make([]float64, m))
	}
	// S = XᵀX (m×m), built directly to avoid materializing X twice, one
	// row at a time so the row stays in cache while every member adds
	// to it (each element still sums the members in order). The column
	// sums of S accumulate alongside, row by row.
	zrows := make([][]float64, len(members))
	for r, row := range members {
		zrows[r] = timeseries.ZNormalize(row)
	}
	sm := ws.mat.Data
	colMean := ws.colMean
	clear(colMean)
	for a := 0; a < m; a++ {
		out := sm[a*m:][:m]
		clear(out)
		for _, zr := range zrows {
			va := zr[a]
			if va == 0 {
				continue
			}
			for b, vb := range zr[:len(out)] {
				out[b] += va * vb
			}
		}
		for b, v := range colMean[:len(out)] {
			colMean[b] = v + out[b]
		}
	}
	// M = Qᵀ·S·Q with Q = I - (1/m)·ones. Expanding, M = S - 1·rᵀ - r·1ᵀ + g·1·1ᵀ
	// where r is the column-mean vector of S and g the grand mean. Each
	// element of M depends only on the same element of S and on r and
	// g, so M overwrites S in place.
	var grand float64
	for b := 0; b < m; b++ {
		colMean[b] /= float64(m)
		grand += colMean[b]
	}
	grand /= float64(m)
	for a, ca := range colMean {
		out := sm[a*m:][:len(colMean)]
		for b, cb := range colMean {
			out[b] = out[b] - ca - cb + grand
		}
	}
	// Dominant eigenvector; M is PSD so power iteration is safe.
	_, vec, err := mat.PowerIteration(ws.mat, prev, 200, 1e-10)
	if err != nil {
		return setCentroid(spec, make([]float64, m))
	}
	// The eigenvector's sign is arbitrary: pick the orientation closer
	// to the cluster members. One inverse transform per member scores
	// both orientations (the flipped shape's correlations are the
	// negated ones).
	centroid := setCentroid(spec, timeseries.ZNormalize(vec))
	var dPlus, dMinus float64
	for _, row := range members {
		ws.rowSpec.Set(row)
		pos, neg := dsp.MaxNCCSignedSpectra(spec, ws.rowSpec, s.work)
		dPlus += 1 - pos
		dMinus += 1 - neg
	}
	if dMinus < dPlus {
		for i, v := range centroid {
			centroid[i] = -v
		}
		spec.Set(centroid)
	}
	return centroid
}

// setCentroid points spec at the new centroid x and returns x.
func setCentroid(spec *dsp.Spectrum, x []float64) []float64 {
	spec.Set(x)
	return x
}

// fixEmptyClusters reassigns one random member into any empty cluster
// so the algorithm keeps exactly k groups (standard k-Shape practice).
// It returns the clusters whose centroid it replaced.
func fixEmptyClusters(data [][]float64, assign []int, centroids [][]float64, k int, rng *rand.Rand) (refilled []int) {
	counts := make([]int, k)
	for _, a := range assign {
		counts[a]++
	}
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			continue
		}
		// Steal a member from the largest cluster.
		largest := 0
		for j := range counts {
			if counts[j] > counts[largest] {
				largest = j
			}
		}
		if counts[largest] <= 1 {
			continue
		}
		candidates := make([]int, 0, counts[largest])
		for i, a := range assign {
			if a == largest {
				candidates = append(candidates, i)
			}
		}
		pick := candidates[rng.IntN(len(candidates))]
		assign[pick] = c
		counts[largest]--
		counts[c]++
		copy(centroids[c], data[pick])
		refilled = append(refilled, c)
	}
	return refilled
}
