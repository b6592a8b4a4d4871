package compress

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func maxErr(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func smoothSeries(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 20 + 5*math.Sin(2*math.Pi*float64(i)/float64(n)) + 0.01*float64(i%3)
	}
	return xs
}

func TestDeltaRoundTrip(t *testing.T) {
	xs := smoothSeries(200)
	buf, err := DeltaEncode(xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DeltaDecode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("len=%d, want %d", len(got), len(xs))
	}
	if e := maxErr(got, xs); e > 0.025+1e-9 {
		t.Fatalf("quantization error %g exceeds q/2", e)
	}
}

func TestDeltaCompressesSmoothData(t *testing.T) {
	xs := smoothSeries(1000)
	buf, err := DeltaEncode(xs, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	raw := 4 * len(xs)
	if len(buf) > raw/2 {
		t.Fatalf("delta coding achieved only %d/%d bytes on smooth data", len(buf), raw)
	}
}

func TestDeltaBadQuantum(t *testing.T) {
	if _, err := DeltaEncode([]float64{1}, 0); err != ErrBadQuantum {
		t.Fatalf("err=%v, want ErrBadQuantum", err)
	}
	if _, err := DeltaEncode([]float64{1}, -3); err != ErrBadQuantum {
		t.Fatalf("err=%v, want ErrBadQuantum", err)
	}
}

func TestDeltaDecodeErrors(t *testing.T) {
	if _, err := DeltaDecode([]byte{1, 2}); err == nil {
		t.Fatal("short buffer should fail")
	}
	xs := []float64{1, 2, 3}
	buf, _ := DeltaEncode(xs, 0.1)
	if _, err := DeltaDecode(buf[:len(buf)-1]); err == nil {
		t.Fatal("truncated varints should fail")
	}
}

func TestDeltaEmpty(t *testing.T) {
	buf, err := DeltaEncode(nil, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DeltaDecode(buf)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty round-trip: %v, %v", got, err)
	}
}

func TestBatchRaw(t *testing.T) {
	xs := []float64{1.5, -2.25, 100}
	b := Batch{Mode: Raw}
	enc, err := b.Encode(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(enc) != 5+4*3 {
		t.Fatalf("raw size %d", len(enc))
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(got, xs); e > 1e-5 {
		t.Fatalf("raw round-trip error %g", e)
	}
}

func TestBatchDelta(t *testing.T) {
	xs := smoothSeries(128)
	b := Batch{Mode: Delta, Quantum: 0.02}
	enc, err := b.Encode(xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if e := maxErr(got, xs); e > 0.011 {
		t.Fatalf("delta round-trip error %g", e)
	}
}

func TestBatchWavelet(t *testing.T) {
	xs := smoothSeries(128)
	b := Batch{Mode: WaveletDenoise, Threshold: 0.3}
	enc, err := b.Encode(xs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(xs) {
		t.Fatalf("len=%d", len(got))
	}
	if e := maxErr(got, xs); e > 1.0 {
		t.Fatalf("wavelet round-trip error %g too large", e)
	}
}

func TestCompressionOrdering(t *testing.T) {
	// On smooth batched data: wavelet < delta < raw in bytes. This is the
	// size relationship Figure 2 relies on.
	xs := smoothSeries(512)
	raw, _ := Batch{Mode: Raw}.Encode(xs)
	delta, _ := Batch{Mode: Delta, Quantum: 0.05}.Encode(xs)
	wav, _ := Batch{Mode: WaveletDenoise, Threshold: 0.5}.Encode(xs)
	if !(len(wav) < len(delta) && len(delta) < len(raw)) {
		t.Fatalf("sizes wavelet=%d delta=%d raw=%d; want strictly increasing", len(wav), len(delta), len(raw))
	}
}

func TestLargerBatchesCompressBetter(t *testing.T) {
	// Per-sample bytes should fall as batch size grows (header amortizes,
	// wavelet sparsity improves): the mechanism behind Figure 2's downward
	// slope for compressed batched push.
	b := Batch{Mode: WaveletDenoise, Threshold: 0.3}
	small := smoothSeries(32)
	large := smoothSeries(1024)
	encS, _ := b.Encode(small)
	encL, _ := b.Encode(large)
	perS := float64(len(encS)) / 32
	perL := float64(len(encL)) / 1024
	if perL >= perS {
		t.Fatalf("per-sample bytes: small=%.2f large=%.2f; want large < small", perS, perL)
	}
}

func TestBatchDefaults(t *testing.T) {
	// Zero Quantum/Threshold fall back to sane defaults rather than erroring.
	if _, err := (Batch{Mode: Delta}).Encode([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := (Batch{Mode: WaveletDenoise}).Encode([]float64{1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestBatchUnknownMode(t *testing.T) {
	if _, err := (Batch{Mode: Mode(9)}).Encode([]float64{1}); err == nil {
		t.Fatal("unknown mode should fail")
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); err == nil {
		t.Fatal("empty buffer should fail")
	}
	if _, err := Decode([]byte{0x7f, 1, 2}); err == nil {
		t.Fatal("unknown tag should fail")
	}
	if _, err := Decode([]byte{0x01, 1}); err == nil {
		t.Fatal("short raw should fail")
	}
	if _, err := Decode([]byte{0x01, 10, 0, 0, 0}); err == nil {
		t.Fatal("raw with missing samples should fail")
	}
	// A bare wavelet header (N 1, PaddedN 2^31, no coefficients) must be
	// refused, not decompressed into 16 GiB.
	if _, err := Decode([]byte{tagWavelet, 1, 0, 0, 0, 0, 0, 0, 0x80, 0, 0, 0, 0}); err == nil {
		t.Fatal("wavelet batch claiming 2^31 samples should fail")
	}
}

func TestModeString(t *testing.T) {
	if Raw.String() != "raw" || Delta.String() != "delta" {
		t.Error("mode names wrong")
	}
	if !strings.Contains(WaveletDenoise.String(), "wavelet") {
		t.Error("wavelet mode name wrong")
	}
	if !strings.Contains(Mode(42).String(), "42") {
		t.Error("unknown mode name wrong")
	}
}

func TestRatio(t *testing.T) {
	xs := smoothSeries(256)
	r, err := Batch{Mode: WaveletDenoise, Threshold: 0.5}.Ratio(xs)
	if err != nil {
		t.Fatal(err)
	}
	if r >= 1 {
		t.Fatalf("wavelet ratio %g, want < 1", r)
	}
	r, err = Batch{Mode: Raw}.Ratio(xs)
	if err != nil || r < 1 {
		t.Fatalf("raw ratio %g, want >= 1", r)
	}
	r, err = Batch{Mode: Raw}.Ratio(nil)
	if err != nil || r != 1 {
		t.Fatalf("empty ratio %g, want 1", r)
	}
}

// Property: delta round trip error bounded by q/2 for any signal & quantum.
func TestPropertyDeltaErrorBound(t *testing.T) {
	f := func(raw []int16, qSel uint8) bool {
		q := 0.01 * float64(1+int(qSel)%100)
		xs := make([]float64, len(raw))
		for i, r := range raw {
			xs[i] = float64(r) / 7
		}
		buf, err := DeltaEncode(xs, q)
		if err != nil {
			return false
		}
		got, err := DeltaDecode(buf)
		if err != nil || len(got) != len(xs) {
			return false
		}
		return maxErr(got, xs) <= q/2+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: every mode's Encode/Decode round-trips length exactly.
func TestPropertyLengthPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 60; trial++ {
		n := rng.Intn(500)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 30
		}
		for _, m := range []Mode{Raw, Delta, WaveletDenoise} {
			enc, err := Batch{Mode: m, Quantum: 0.05, Threshold: 0.5}.Encode(xs)
			if err != nil {
				t.Fatalf("mode %v: %v", m, err)
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("mode %v decode: %v", m, err)
			}
			if len(got) != n {
				t.Fatalf("mode %v: length %d, want %d", m, len(got), n)
			}
		}
	}
}

// Property: DecodeBound's claimed bound actually covers the round-trip
// error of every sample, and only codecs with a wire-visible bound claim
// a finite one.
func TestDecodeBound(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	xs := make([]float64, 64)
	for i := range xs {
		xs[i] = 20 + rng.NormFloat64()*3
	}
	for _, tc := range []struct {
		mode  Mode
		bound float64 // expected claim; NaN = must be +Inf
	}{
		{Raw, 0},
		// The quantum rides the wire as float32; the honest bound is half
		// of what the decoder actually reads back.
		{Delta, float64(float32(0.05)) / 2},
		{WaveletDenoise, math.Inf(1)},
	} {
		enc, err := Batch{Mode: tc.mode, Quantum: 0.05, Threshold: 0.5}.Encode(xs)
		if err != nil {
			t.Fatalf("mode %v: %v", tc.mode, err)
		}
		got := DecodeBound(enc)
		if got != tc.bound && !(math.IsInf(tc.bound, 1) && math.IsInf(got, 1)) {
			t.Fatalf("mode %v: bound %v, want %v", tc.mode, got, tc.bound)
		}
		if math.IsInf(got, 1) {
			continue
		}
		dec, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := range dec {
			if e := math.Abs(dec[i] - xs[i]); e > got+1e-6 {
				t.Fatalf("mode %v sample %d: error %v exceeds claimed bound %v", tc.mode, i, e, got)
			}
		}
	}
	if !math.IsInf(DecodeBound(nil), 1) {
		t.Fatal("empty buffer must claim an unbounded error")
	}
}

func BenchmarkDeltaEncode1k(b *testing.B) {
	xs := smoothSeries(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DeltaEncode(xs, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWaveletEncode1k(b *testing.B) {
	xs := smoothSeries(1000)
	enc := Batch{Mode: WaveletDenoise, Threshold: 0.5}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := enc.Encode(xs); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTimestampRoundTrip(t *testing.T) {
	ts := []int64{0, 60, 120, 180, 400, 400, 401, math.MaxInt64 - 1, math.MaxInt64}
	for n := 0; n <= len(ts); n++ {
		buf, err := TimestampEncode([]byte{0xAA}, ts[:n])
		if err != nil {
			t.Fatal(err)
		}
		got, rest, err := TimestampDecode(nil, append(buf[1:], 0xBB), n)
		if err != nil || !slices.Equal(got, ts[:n]) || !bytes.Equal(rest, []byte{0xBB}) {
			t.Fatalf("n=%d: decoded %v rest %x err %v, want %v", n, got, rest, err, ts[:n])
		}
		// Decoding appends: a prefix in dst survives, and dst's storage is
		// reused when it has room.
		dst := make([]int64, 1, 1+len(ts))
		dst[0] = -7
		got, _, err = TimestampDecode(dst, buf[1:], n)
		if err != nil || got[0] != -7 || !slices.Equal(got[1:], ts[:n]) || &got[0] != &dst[0] {
			t.Fatalf("n=%d: appended %v err %v, want -7 then %v in dst's storage", n, got, err, ts[:n])
		}
	}
}

// TestTimestampDecodeRefusesOverflow crafts bytes the encoder never
// writes: a first timestamp past math.MaxInt64, and deltas whose running
// sum passes it. Each would wrap to a negative timestamp.
func TestTimestampDecodeRefusesOverflow(t *testing.T) {
	uv := func(vs ...uint64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	dod := func(b []byte, vs ...int64) []byte {
		for _, v := range vs {
			b = binary.AppendVarint(b, v)
		}
		return b
	}
	for _, c := range []struct {
		name string
		buf  []byte
		n    int
		want string
	}{
		{"first above MaxInt64", uv(1 << 63), 1, "first timestamp"},
		{"first at MaxUint64", uv(math.MaxUint64), 1, "first timestamp"},
		{"first delta wraps", uv(5, 1<<63), 2, "negative delta"},
		{"first delta overflows the sum", uv(math.MaxInt64-5, 6), 2, "overflows int64 at 1"},
		{"growing deltas overflow the sum", dod(uv(1<<62, 1<<61), 1<<61), 3, "overflows int64 at 2"},
		{"delta-of-delta wraps the delta", dod(uv(0, math.MaxInt64), math.MaxInt64), 3, "negative delta"},
	} {
		ts, _, err := TimestampDecode(nil, c.buf, c.n)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: decoded %v, err %v; want an error mentioning %q", c.name, ts, err, c.want)
		}
	}
}
