// Package wavelet implements the Haar discrete wavelet transform together
// with the two operations PRESTO builds on it:
//
//   - denoising before transmission (Figure 2's "Batched Push w/ Wavelet
//     Denoising"): hard-threshold small detail coefficients so the batch
//     compresses far better, at a bounded reconstruction error, and
//   - multi-resolution summaries for graceful aging of the mote archive
//     (Ganesan et al. [10]): keep progressively coarser approximations of
//     old data as flash fills up.
//
// Haar is used (rather than longer Daubechies filters) because the mote
// side must run the inverse/forward transform in O(n) adds and shifts —
// matching the paper's requirement that sensor-side computation be cheap.
package wavelet

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// ErrNotPow2 is returned when a transform input is not a power-of-two
// length. Use Pad to extend arbitrary inputs.
var ErrNotPow2 = errors.New("wavelet: input length is not a power of two")

// invSqrt2 is 1/sqrt(2), the orthonormal Haar filter coefficient.
var invSqrt2 = 1 / math.Sqrt2

// IsPow2 reports whether n is a positive power of two.
func IsPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// NextPow2 returns the smallest power of two >= n (minimum 1).
func NextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Pad extends xs to the next power-of-two length by repeating the final
// sample (constant extension minimizes spurious detail coefficients at the
// boundary). It returns the padded slice and the original length.
func Pad(xs []float64) ([]float64, int) {
	n := len(xs)
	if n == 0 {
		return []float64{0}, 0
	}
	p := NextPow2(n)
	if p == n {
		return append([]float64(nil), xs...), n
	}
	out := make([]float64, p)
	copy(out, xs)
	for i := n; i < p; i++ {
		out[i] = xs[n-1]
	}
	return out, n
}

// Forward computes the full orthonormal Haar DWT of xs in place and returns
// xs. Layout: [approx | detail_level1 | detail_level2 | ... ] with the
// single overall average first. Input length must be a power of two.
func Forward(xs []float64) ([]float64, error) {
	if !IsPow2(len(xs)) {
		return nil, ErrNotPow2
	}
	forward(xs, make([]float64, len(xs)))
	return xs, nil
}

// forward is Forward on a power-of-two xs with a pass buffer tmp of the
// same length.
func forward(xs, tmp []float64) {
	for length := len(xs); length > 1; length /= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			a, b := xs[2*i], xs[2*i+1]
			tmp[i] = (a + b) * invSqrt2      // approximation
			tmp[half+i] = (a - b) * invSqrt2 // detail
		}
		copy(xs[:length], tmp[:length])
	}
}

// Inverse computes the inverse Haar DWT in place and returns xs.
func Inverse(xs []float64) ([]float64, error) {
	if !IsPow2(len(xs)) {
		return nil, ErrNotPow2
	}
	inverse(xs, make([]float64, len(xs)))
	return xs, nil
}

// inverse is Inverse on a power-of-two xs with a pass buffer tmp of the
// same length.
func inverse(xs, tmp []float64) {
	for length := 2; length <= len(xs); length *= 2 {
		half := length / 2
		for i := 0; i < half; i++ {
			a, d := xs[i], xs[half+i]
			tmp[2*i] = (a + d) * invSqrt2
			tmp[2*i+1] = (a - d) * invSqrt2
		}
		copy(xs[:length], tmp[:length])
	}
}

// Denoise hard-thresholds coefficients: any coefficient (except the overall
// average at index 0) with |c| < threshold is zeroed. It returns the number
// of coefficients zeroed. Operating on the transform domain, so call
// Forward first.
func Denoise(coeffs []float64, threshold float64) int {
	zeroed := 0
	for i := 1; i < len(coeffs); i++ {
		if math.Abs(coeffs[i]) < threshold {
			if coeffs[i] != 0 {
				zeroed++
			}
			coeffs[i] = 0
		}
	}
	return zeroed
}

// TopK keeps the k largest-magnitude coefficients (always including index
// 0, the overall average) and zeroes the rest, returning how many were
// zeroed. This is the classic wavelet synopsis used for lossy compression
// and aging. The detail coefficients rank by magnitude, larger first, and
// equal magnitudes by index, lower first; the first k-1 in that total order
// survive. Any implementation must keep this order: the flash archive sizes
// its aged chunks by counting what survives, and stored bytes depend on
// which equal-magnitude coefficient is kept.
func TopK(coeffs []float64, k int) int {
	zeroed, _ := topK(coeffs, k, nil)
	return zeroed
}

// ranked is one detail coefficient as TopK orders it.
type ranked struct {
	idx int
	mag float64
}

// byRank is TopK's total order: larger magnitude first, then lower index.
func byRank(a, b ranked) int {
	if a.mag != b.mag {
		if a.mag > b.mag {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.idx, b.idx)
}

// topK is TopK ranking in rest's storage, which it returns for reuse.
func topK(coeffs []float64, k int, rest []ranked) (int, []ranked) {
	n := len(coeffs)
	if k >= n {
		return 0, rest
	}
	if k < 1 {
		k = 1
	}
	if cap(rest) < n-1 {
		rest = make([]ranked, 0, n-1)
	}
	rest = rest[:0]
	for i := 1; i < n; i++ {
		rest = append(rest, ranked{i, math.Abs(coeffs[i])})
	}
	selectFirst(rest, k-1)
	zeroed := 0
	for _, c := range rest[k-1:] {
		if coeffs[c.idx] != 0 {
			zeroed++
		}
		coeffs[c.idx] = 0
	}
	return zeroed, rest
}

// selectFirst reorders a so that a[:k] holds the first k elements in
// byRank order, in no particular order among themselves: a quickselect
// that sorts what is left once its partitions stop shrinking fast. The
// order is total, so the set is the one a full sort would put first.
func selectFirst(a []ranked, k int) {
	lo, hi := 0, len(a)
	for budget := 2 * bits.Len(uint(len(a))); hi-lo > 16 && budget > 0; budget-- {
		// Everything in a[:lo] ranks before a[lo:hi], which ranks before
		// a[hi:], and lo <= k <= hi.
		p := lo + partition(a[lo:hi])
		switch {
		case p == k:
			return
		case p < k:
			lo = p + 1
		default:
			hi = p
		}
	}
	slices.SortFunc(a[lo:hi], byRank)
}

// partition moves the median of a's first, middle and last elements to
// its final place in byRank order, everything ranking before it to its
// left and the rest to its right, and returns its index.
func partition(a []ranked) int {
	m, last := len(a)/2, len(a)-1
	if byRank(a[m], a[0]) < 0 {
		a[m], a[0] = a[0], a[m]
	}
	if byRank(a[last], a[0]) < 0 {
		a[last], a[0] = a[0], a[last]
	}
	if byRank(a[m], a[last]) < 0 {
		a[m], a[last] = a[last], a[m]
	}
	pivot, i := a[last], 0
	for j := range a[:last] {
		if byRank(a[j], pivot) < 0 {
			a[i], a[j] = a[j], a[i]
			i++
		}
	}
	a[i], a[last] = a[last], a[i]
	return i
}

// Coarsen halves the resolution of a signal: it returns the approximation
// coefficients of one Haar level, rescaled so they remain in the signal's
// units (pairwise means). Used by archive aging to derive a half-size
// summary of an old block. len(xs) must be even and non-zero.
func Coarsen(xs []float64) ([]float64, error) {
	n := len(xs)
	if n == 0 || n%2 != 0 {
		return nil, fmt.Errorf("wavelet: Coarsen needs non-empty even length, got %d", n)
	}
	out := make([]float64, n/2)
	for i := range out {
		out[i] = (xs[2*i] + xs[2*i+1]) / 2
	}
	return out, nil
}

// Expand reverses Coarsen approximately by duplicating each sample.
func Expand(xs []float64, factor int) []float64 {
	if factor < 1 {
		factor = 1
	}
	out := make([]float64, 0, len(xs)*factor)
	for _, x := range xs {
		for j := 0; j < factor; j++ {
			out = append(out, x)
		}
	}
	return out
}

// Sparse is a compact encoding of a thresholded coefficient vector:
// only the non-zero coefficients and their indices, plus the original
// (pre-pad) and padded lengths. This is what a mote actually transmits.
type Sparse struct {
	N       int // original signal length before padding
	PaddedN int // power-of-two transform length
	Index   []uint32
	Value   []float64
}

// Compress transforms xs (padding as needed), zeroes coefficients smaller
// than threshold, and returns the sparse representation.
func Compress(xs []float64, threshold float64) (Sparse, error) {
	padded, n := Pad(xs)
	if _, err := Forward(padded); err != nil {
		return Sparse{}, err
	}
	Denoise(padded, threshold)
	return sparseOf(padded, n, nil, nil), nil
}

// CompressTopK is like Compress but keeps exactly the k largest
// coefficients instead of thresholding.
func CompressTopK(xs []float64, k int) (Sparse, error) {
	padded, n := Pad(xs)
	if _, err := Forward(padded); err != nil {
		return Sparse{}, err
	}
	TopK(padded, k)
	return sparseOf(padded, n, nil, nil), nil
}

// sparseOf is the sparse form of a transform's non-zero coefficients for
// a signal n long before padding, appended to idx and val.
func sparseOf(coeffs []float64, n int, idx []uint32, val []float64) Sparse {
	s := Sparse{N: n, PaddedN: len(coeffs), Index: idx, Value: val}
	for i, c := range coeffs {
		if c != 0 {
			s.Index = append(s.Index, uint32(i))
			s.Value = append(s.Value, c)
		}
	}
	return s
}

// CompressFraction is like CompressTopK but keeps a fraction of the padded
// transform length: frac = 0.5 keeps the 1/2 largest-magnitude coefficients,
// 0.25 the 1/4, and so on — the tier schedule the archive's multi-resolution
// aging speaks in. frac is clamped to (0, 1]; at least one coefficient (the
// overall average) always survives.
func CompressFraction(xs []float64, frac float64) (Sparse, error) {
	return CompressTopK(xs, KeepCount(frac, NextPow2(len(xs))))
}

// KeepCount is the k CompressFraction passes to TopK for a transform n
// long: frac (clamped to at most 1) of n, rounded up, and at least one.
func KeepCount(frac float64, n int) int {
	return max(1, int(math.Ceil(min(frac, 1)*float64(n))))
}

// Quantize rounds the coefficient values through float32 — exactly what
// Marshal will store — so residuals computed on the quantized form match
// what a decoder will reconstruct from the wire bytes.
func (s *Sparse) Quantize() {
	for i, v := range s.Value {
		s.Value[i] = float64(float32(v))
	}
}

// Decompress reconstructs the (lossy) signal from its sparse form,
// truncated back to the original length.
func Decompress(s Sparse) ([]float64, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	return s.decompress(make([]float64, s.PaddedN), make([]float64, s.PaddedN)), nil
}

// check reports a sparse form Decompress cannot reconstruct.
func (s Sparse) check() error {
	if !IsPow2(s.PaddedN) {
		return ErrNotPow2
	}
	if s.N < 0 || s.N > s.PaddedN {
		return fmt.Errorf("wavelet: invalid lengths N=%d PaddedN=%d", s.N, s.PaddedN)
	}
	if len(s.Index) != len(s.Value) {
		return fmt.Errorf("wavelet: index/value length mismatch %d vs %d", len(s.Index), len(s.Value))
	}
	for _, idx := range s.Index {
		if int(idx) >= s.PaddedN {
			return fmt.Errorf("wavelet: coefficient index %d out of range %d", idx, s.PaddedN)
		}
	}
	return nil
}

// decompress is Decompress on a checked form, reconstructing in coeffs
// with pass buffer tmp (both PaddedN long).
func (s Sparse) decompress(coeffs, tmp []float64) []float64 {
	clear(coeffs)
	for i, idx := range s.Index {
		coeffs[idx] = s.Value[i]
	}
	inverse(coeffs, tmp)
	return coeffs[:s.N]
}

// Marshal encodes the sparse form as bytes: this is the exact payload size
// charged to the radio in experiments. Format: u32 N, u32 PaddedN, u32
// count, then count * (u32 index, f32 value). Values are quantized to
// float32 — ample for sensor data and half the bytes.
func (s Sparse) Marshal() []byte {
	return s.AppendMarshal(make([]byte, 0, s.WireSize()))
}

// AppendMarshal appends Marshal's encoding of s to buf.
func (s Sparse) AppendMarshal(buf []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.N))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(s.PaddedN))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Index)))
	for i := range s.Index {
		buf = binary.LittleEndian.AppendUint32(buf, s.Index[i])
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(float32(s.Value[i])))
	}
	return buf
}

// UnmarshalSparse decodes the wire form produced by Marshal into fresh
// storage.
func UnmarshalSparse(buf []byte) (Sparse, error) {
	var sc Scratch
	s, _, err := sc.UnmarshalSparsePrefix(buf)
	return s, err
}

// WireSize returns the Marshal size in bytes without allocating.
func (s Sparse) WireSize() int { return WireSize(len(s.Index)) }

// WireSize is the Marshal size in bytes of a sparse form holding count
// coefficients.
func WireSize(count int) int { return 12 + 8*count }

// Scratch holds the buffers Forward, TopK, the sparse form and Decompress
// work in, so a loop over many signals (flash compaction ages hundreds of
// chunks per pass) allocates them once. The zero value is ready to use.
// A slice a method returns is valid until the next call of that method;
// Sparse and UnmarshalSparsePrefix share one pair of buffers. Not safe
// for concurrent use.
type Scratch struct {
	tmp   []float64
	rest  []ranked
	idx   []uint32
	val   []float64
	recon []float64
}

// Forward is the package's Forward without allocating.
func (sc *Scratch) Forward(xs []float64) ([]float64, error) {
	if !IsPow2(len(xs)) {
		return nil, ErrNotPow2
	}
	sc.tmp = resize(sc.tmp, len(xs))
	forward(xs, sc.tmp)
	return xs, nil
}

// TopK is the package's TopK without allocating.
func (sc *Scratch) TopK(coeffs []float64, k int) int {
	zeroed, rest := topK(coeffs, k, sc.rest)
	sc.rest = rest
	return zeroed
}

// Sparse returns the sparse form of a transform's non-zero coefficients,
// for a signal n long before padding.
func (sc *Scratch) Sparse(coeffs []float64, n int) Sparse {
	s := sparseOf(coeffs, n, sc.idx[:0], sc.val[:0])
	sc.idx, sc.val = s.Index, s.Value
	return s
}

// Decompress is the package's Decompress without allocating.
func (sc *Scratch) Decompress(s Sparse) ([]float64, error) {
	if err := s.check(); err != nil {
		return nil, err
	}
	sc.recon = resize(sc.recon, s.PaddedN)
	sc.tmp = resize(sc.tmp, s.PaddedN)
	return s.decompress(sc.recon, sc.tmp), nil
}

// UnmarshalSparsePrefix decodes one Marshal-encoded value from the front
// of buf into the scratch's index and value buffers (the ones Sparse
// fills), also reporting how many bytes it consumed — for readers of
// streams that concatenate sparse vectors with other data (the flash
// archive's wavelet segments). The framing knowledge stays in this
// package: only Marshal's counterpart knows where an encoding ends.
func (sc *Scratch) UnmarshalSparsePrefix(buf []byte) (Sparse, int, error) {
	if len(buf) < 12 {
		return Sparse{}, 0, fmt.Errorf("wavelet: short sparse buffer (%d bytes)", len(buf))
	}
	s := Sparse{
		N:       int(binary.LittleEndian.Uint32(buf[0:])),
		PaddedN: int(binary.LittleEndian.Uint32(buf[4:])),
		Index:   sc.idx[:0],
		Value:   sc.val[:0],
	}
	count := int(binary.LittleEndian.Uint32(buf[8:]))
	if count < 0 || len(buf) < 12+8*count {
		return Sparse{}, 0, fmt.Errorf("wavelet: sparse buffer truncated: want %d bytes, have %d", 12+8*count, len(buf))
	}
	off := 12
	for i := 0; i < count; i++ {
		s.Index = append(s.Index, binary.LittleEndian.Uint32(buf[off:]))
		s.Value = append(s.Value, float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[off+4:]))))
		off += 8
	}
	sc.idx, sc.val = s.Index, s.Value
	return s, off, nil
}

// resize returns buf n long, reallocating only when it is too short.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
