// Package compress implements the byte-level codecs motes use when pushing
// batched data to a proxy: quantized delta coding with zigzag varints, and
// a combined batch encoder that optionally runs wavelet denoising first
// (Figure 2's "Batched Push w/ Wavelet Denoising").
//
// The encoded byte counts produced here are charged directly to the radio
// energy model, so the codecs are real, reversible codecs — not estimates.
package compress

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"presto/internal/wavelet"
)

// ErrBadQuantum is returned when a quantization step is not positive.
var ErrBadQuantum = errors.New("compress: quantization step must be positive")

// DeltaEncode quantizes xs to multiples of q and encodes the first value
// followed by successive differences as zigzag varints. Smooth sensor
// series produce mostly 1-byte deltas.
func DeltaEncode(xs []float64, q float64) ([]byte, error) {
	if q <= 0 {
		return nil, ErrBadQuantum
	}
	// Round the quantum through float32 first so the encoder quantizes
	// with exactly the value the decoder will read from the header.
	q = float64(float32(q))
	buf := make([]byte, 0, len(xs)+16)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(xs)))
	binary.LittleEndian.PutUint32(hdr[4:], math.Float32bits(float32(q)))
	buf = append(buf, hdr[:]...)
	prev := int64(0)
	for i, x := range xs {
		ticks := int64(math.Round(x / q))
		var d int64
		if i == 0 {
			d = ticks
		} else {
			d = ticks - prev
		}
		prev = ticks
		buf = binary.AppendVarint(buf, d)
	}
	return buf, nil
}

// DeltaDecode reverses DeltaEncode. Reconstruction error is at most q/2
// per sample.
func DeltaDecode(buf []byte) ([]float64, error) {
	if len(buf) < 8 {
		return nil, fmt.Errorf("compress: short delta buffer (%d bytes)", len(buf))
	}
	n := int(binary.LittleEndian.Uint32(buf[0:]))
	q := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[4:])))
	if q <= 0 {
		return nil, ErrBadQuantum
	}
	if n < 0 || n > 1<<28 {
		return nil, fmt.Errorf("compress: implausible sample count %d", n)
	}
	// The header's count is untrusted (it arrived over the radio), so the
	// preallocation is capped by the bytes left: every sample takes at
	// least one varint byte, and the loop below fails fast on truncation.
	rest := buf[8:]
	out := make([]float64, 0, min(n, len(rest)))
	ticks := int64(0)
	for i := 0; i < n; i++ {
		d, sz := binary.Varint(rest)
		if sz <= 0 {
			return nil, fmt.Errorf("compress: truncated varint at sample %d", i)
		}
		rest = rest[sz:]
		if i == 0 {
			ticks = d
		} else {
			ticks += d
		}
		out = append(out, float64(ticks)*q)
	}
	return out, nil
}

// Mode selects the batch codec.
type Mode int

const (
	// Raw sends IEEE-754 float32 samples with no compression: the
	// "Batched Push w/o Compression" line in Figure 2.
	Raw Mode = iota
	// Delta sends quantized delta varints.
	Delta
	// WaveletDenoise runs Haar denoising then delta-codes the sparse
	// coefficients: the "Batched Push w/ Wavelet Denoising" line.
	WaveletDenoise
)

// String names the mode for reports.
func (m Mode) String() string {
	switch m {
	case Raw:
		return "raw"
	case Delta:
		return "delta"
	case WaveletDenoise:
		return "wavelet+delta"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Batch is a batch codec configuration.
type Batch struct {
	Mode Mode
	// Quantum is the quantization step for Delta mode (e.g. 0.05 °C).
	Quantum float64
	// Threshold is the wavelet denoising threshold for WaveletDenoise
	// mode, in coefficient units; per-sample error is bounded by roughly
	// Threshold.
	Threshold float64
}

// wire format tags
const (
	tagRaw     = 0x01
	tagDelta   = 0x02
	tagWavelet = 0x03

	// maxWaveletBatch bounds the samples a wavelet batch may decompress
	// to: a dozen header bytes could otherwise claim 2^31 and allocate
	// 16 GiB. It sits 16x above the longest batch any experiment sends
	// (2,116 one-minute samples, padded to 4,096).
	maxWaveletBatch = 1 << 16
)

// Encode compresses one batch of samples into wire bytes.
func (b Batch) Encode(xs []float64) ([]byte, error) {
	switch b.Mode {
	case Raw:
		buf := make([]byte, 5+4*len(xs))
		buf[0] = tagRaw
		binary.LittleEndian.PutUint32(buf[1:], uint32(len(xs)))
		for i, x := range xs {
			binary.LittleEndian.PutUint32(buf[5+4*i:], math.Float32bits(float32(x)))
		}
		return buf, nil
	case Delta:
		q := b.Quantum
		if q <= 0 {
			q = 0.05
		}
		inner, err := DeltaEncode(xs, q)
		if err != nil {
			return nil, err
		}
		return append([]byte{tagDelta}, inner...), nil
	case WaveletDenoise:
		th := b.Threshold
		if th <= 0 {
			th = 0.5
		}
		s, err := wavelet.Compress(xs, th)
		if err != nil {
			return nil, err
		}
		inner := s.Marshal()
		return append([]byte{tagWavelet}, inner...), nil
	default:
		return nil, fmt.Errorf("compress: unknown mode %v", b.Mode)
	}
}

// Decode reverses Encode regardless of which mode produced the bytes.
func Decode(buf []byte) ([]float64, error) {
	if len(buf) < 1 {
		return nil, errors.New("compress: empty batch buffer")
	}
	switch buf[0] {
	case tagRaw:
		if len(buf) < 5 {
			return nil, errors.New("compress: short raw header")
		}
		n := int(binary.LittleEndian.Uint32(buf[1:]))
		if len(buf) < 5+4*n {
			return nil, fmt.Errorf("compress: raw buffer truncated: want %d samples", n)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[5+4*i:])))
		}
		return out, nil
	case tagDelta:
		return DeltaDecode(buf[1:])
	case tagWavelet:
		s, err := wavelet.UnmarshalSparse(buf[1:])
		if err != nil {
			return nil, err
		}
		if s.PaddedN > maxWaveletBatch {
			return nil, fmt.Errorf("compress: implausible wavelet batch length %d", s.PaddedN)
		}
		return wavelet.Decompress(s)
	default:
		return nil, fmt.Errorf("compress: unknown batch tag 0x%02x", buf[0])
	}
}

// DecodeBound reports the per-sample reconstruction error bound implied
// by an encoded batch: 0 for raw float32, quantum/2 for delta coding, and
// unbounded (+Inf) for wavelet denoising, whose threshold does not ride
// the wire and whose per-sample error is only roughly bounded by it.
// Consumers that need a guaranteed bound (the proxy's archive sink) treat
// +Inf as "never precise enough".
func DecodeBound(buf []byte) float64 {
	if len(buf) < 1 {
		return math.Inf(1)
	}
	switch buf[0] {
	case tagRaw:
		return 0
	case tagDelta:
		if len(buf) < 9 {
			return math.Inf(1)
		}
		q := float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[5:])))
		if q <= 0 {
			return math.Inf(1)
		}
		return q / 2
	default:
		return math.Inf(1)
	}
}

// TimestampEncode appends a non-decreasing int64 timestamp sequence to buf
// using delta-of-delta varints: the first value and first delta as uvarints,
// then zigzag varints of each delta's change. On a regular sample grid every
// delta-of-delta is zero, so N timestamps cost ~N bytes — the property the
// flash archive's wavelet aging relies on to keep full time coverage while
// shrinking old segments. Decode with TimestampDecode(buf, len(ts)).
func TimestampEncode(buf []byte, ts []int64) ([]byte, error) {
	if len(ts) == 0 {
		return buf, nil
	}
	if ts[0] < 0 {
		return nil, fmt.Errorf("compress: negative timestamp %d", ts[0])
	}
	buf = binary.AppendUvarint(buf, uint64(ts[0]))
	prevDelta := int64(0)
	for i := 1; i < len(ts); i++ {
		d := ts[i] - ts[i-1]
		if d < 0 {
			return nil, fmt.Errorf("compress: timestamps decrease at %d (%d -> %d)", i, ts[i-1], ts[i])
		}
		if i == 1 {
			buf = binary.AppendUvarint(buf, uint64(d))
		} else {
			buf = binary.AppendVarint(buf, d-prevDelta)
		}
		prevDelta = d
	}
	return buf, nil
}

// TimestampDecode reverses TimestampEncode, reading exactly n timestamps
// from the front of buf and appending them to dst, whose storage it
// reuses when large enough (pass nil for a fresh slice). It returns the
// extended dst and the unconsumed rest of the buffer (the sequence is
// not self-delimiting: the caller carries n). Like the encoder it yields
// only non-negative, non-decreasing timestamps: bytes whose first value
// or running sum would pass math.MaxInt64 are refused, not wrapped
// negative.
func TimestampDecode(dst []int64, buf []byte, n int) ([]int64, []byte, error) {
	if n <= 0 {
		return dst, buf, nil
	}
	first, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return dst, nil, errors.New("compress: truncated first timestamp")
	}
	if first > math.MaxInt64 {
		return dst, nil, fmt.Errorf("compress: first timestamp %d overflows int64", first)
	}
	buf = buf[sz:]
	dst = slices.Grow(dst, n)
	prev, delta := int64(first), int64(0)
	dst = append(dst, prev)
	for i := 1; i < n; i++ {
		if i == 1 {
			d, sz := binary.Uvarint(buf)
			if sz <= 0 {
				return dst, nil, errors.New("compress: truncated first delta")
			}
			buf = buf[sz:]
			delta = int64(d)
		} else {
			dod, sz := binary.Varint(buf)
			if sz <= 0 {
				return dst, nil, fmt.Errorf("compress: truncated delta-of-delta at %d", i)
			}
			buf = buf[sz:]
			delta += dod
		}
		if delta < 0 {
			return dst, nil, fmt.Errorf("compress: negative delta at %d", i)
		}
		if delta > math.MaxInt64-prev {
			return dst, nil, fmt.Errorf("compress: timestamp overflows int64 at %d", i)
		}
		prev += delta
		dst = append(dst, prev)
	}
	return dst, buf, nil
}

// Ratio reports the compression ratio achieved on xs: encoded bytes divided
// by raw float32 bytes. Lower is better; Raw mode is ~1.
func (b Batch) Ratio(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 1, nil
	}
	enc, err := b.Encode(xs)
	if err != nil {
		return 0, err
	}
	return float64(len(enc)) / float64(4*len(xs)), nil
}
