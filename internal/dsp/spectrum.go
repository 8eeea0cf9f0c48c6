package dsp

import (
	"fmt"
	"math"
)

// Spectrum caches what the normalized cross-correlation needs from a
// fixed real signal: its zero-padded FFT and its energy. Correlating
// two cached spectra then costs one product and one inverse FFT instead
// of the two forward and one inverse transform CrossCorrelate performs,
// which is what makes repeated shape-based distances against the same
// series (k-Shape's assignment, alignment and scoring loops) cheap.
//
// Results are bit-identical to the uncached MaxNCC of the same signals
// when the spectra have the FFT length MaxNCC picks for the pair,
// NextPow2(len(x)+len(y)-1) — for equal-length signals, SpectrumLen:
// the cached values are exactly the intermediates MaxNCC computes,
// combined in the same order. A longer FFT gives the same correlation
// up to rounding.
type Spectrum struct {
	len    int
	energy float64
	freq   []complex128
}

// NewSpectrum returns the spectrum of x zero-padded to fftLen, which
// must be a power of two no shorter than x. Two spectra correlate only
// if fftLen is at least len(x)+len(y)-1; see SpectrumLen.
func NewSpectrum(x []float64, fftLen int) *Spectrum {
	s := &Spectrum{freq: make([]complex128, fftLen)}
	s.Set(x)
	return s
}

// Set recomputes the spectrum in place for a new signal of at most the
// spectrum's FFT length.
func (s *Spectrum) Set(x []float64) {
	if len(x) > len(s.freq) || !IsPow2(len(s.freq)) {
		panic(fmt.Sprintf("dsp: spectrum of %d samples at FFT length %d", len(x), len(s.freq)))
	}
	for i, v := range x {
		s.freq[i] = complex(v, 0)
	}
	clear(s.freq[len(x):])
	FFT(s.freq)
	s.len = len(x)
	s.energy = Energy(x)
}

// SpectrumLen returns the FFT length at which signals of m samples
// correlate with each other.
func SpectrumLen(m int) int { return NextPow2(max(2*m-1, 1)) }

// correlate writes into work the circular cross-correlation of the two
// signals (the sequence CrossCorrelate unwraps) and returns the NCC
// normalization; ok is false when either signal is empty.
func correlate(x, y *Spectrum, work []complex128) (norm float64, ok bool) {
	if x.len == 0 || y.len == 0 {
		return 0, false
	}
	if n := len(x.freq); len(y.freq) != n || len(work) != n || x.len+y.len-1 > n {
		panic(fmt.Sprintf("dsp: correlating %d- and %d-sample signals at FFT lengths %d/%d with %d-sample work",
			x.len, y.len, len(x.freq), len(y.freq), len(work)))
	}
	for i, v := range x.freq {
		// Correlation is convolution with the conjugate spectrum.
		w := y.freq[i]
		work[i] = v * complex(real(w), -imag(w))
	}
	IFFT(work)
	return math.Sqrt(x.energy * y.energy), true
}

// at returns the NCC value at output position k of the unwrapped
// sequence (shift k-(y.len-1) applied to y), read from the circular
// correlation in work.
func at(work []complex128, ylen, k int, norm float64) float64 {
	idx := k - (ylen - 1)
	if idx < 0 {
		idx += len(work)
	}
	return real(work[idx]) / norm
}

// MaxNCCSpectra returns MaxNCC(x, y) for the signals behind the two
// spectra, bit for bit. work is caller-owned scratch of the spectra's
// FFT length; the call allocates nothing.
func MaxNCCSpectra(x, y *Spectrum, work []complex128) (value float64, shift int) {
	norm, ok := correlate(x, y, work)
	if !ok {
		return 0, 0
	}
	if norm == 0 || math.IsNaN(norm) {
		// Flat signals carry no shape: the NCC sequence is all zeros.
		return 0, -(y.len - 1)
	}
	best, bestIdx := at(work, y.len, 0, norm), 0
	for k := 1; k < x.len+y.len-1; k++ {
		if v := at(work, y.len, k, norm); v > best {
			best, bestIdx = v, k
		}
	}
	return best, bestIdx - (y.len - 1)
}

// MaxNCCSignedSpectra returns the maximum NCC values of (x, y) and of
// (-x, y) from a single inverse transform: negating x negates every
// correlation exactly (IEEE rounding is sign-symmetric), so the second
// is the maximum of the negated sequence. Both equal the value MaxNCC
// returns for the same signals. work is as for MaxNCCSpectra.
func MaxNCCSignedSpectra(x, y *Spectrum, work []complex128) (pos, neg float64) {
	norm, ok := correlate(x, y, work)
	if !ok || norm == 0 || math.IsNaN(norm) {
		return 0, 0
	}
	pos = at(work, y.len, 0, norm)
	neg = -pos
	for k := 1; k < x.len+y.len-1; k++ {
		v := at(work, y.len, k, norm)
		if v > pos {
			pos = v
		}
		if -v > neg {
			neg = -v
		}
	}
	return pos, neg
}
