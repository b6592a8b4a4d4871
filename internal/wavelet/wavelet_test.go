package wavelet

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestIsPow2(t *testing.T) {
	for n, want := range map[int]bool{1: true, 2: true, 4: true, 1024: true, 0: false, 3: false, -4: false, 6: false} {
		if got := IsPow2(n); got != want {
			t.Errorf("IsPow2(%d)=%v, want %v", n, got, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	for n, want := range map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 5: 8, 1000: 1024} {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d)=%d, want %d", n, got, want)
		}
	}
}

func TestPad(t *testing.T) {
	out, n := Pad([]float64{1, 2, 3})
	if n != 3 || len(out) != 4 || out[3] != 3 {
		t.Fatalf("Pad=%v,%d", out, n)
	}
	out, n = Pad(nil)
	if n != 0 || len(out) != 1 {
		t.Fatalf("Pad(nil)=%v,%d", out, n)
	}
	// Already pow2 copies, does not alias.
	in := []float64{1, 2}
	out, _ = Pad(in)
	out[0] = 99
	if in[0] != 1 {
		t.Fatal("Pad aliased its input")
	}
}

func TestForwardRejectsNonPow2(t *testing.T) {
	if _, err := Forward(make([]float64, 3)); err != ErrNotPow2 {
		t.Fatalf("err=%v, want ErrNotPow2", err)
	}
	if _, err := Inverse(make([]float64, 5)); err != ErrNotPow2 {
		t.Fatalf("err=%v, want ErrNotPow2", err)
	}
}

func TestForwardKnownValues(t *testing.T) {
	// Haar of [1,1,1,1] is [2,0,0,0] in orthonormal scaling (avg * sqrt(n)).
	xs := []float64{1, 1, 1, 1}
	Forward(xs)
	want := []float64{2, 0, 0, 0}
	if maxAbsDiff(xs, want) > 1e-12 {
		t.Fatalf("Forward=%v, want %v", xs, want)
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 8, 64, 1024} {
		xs := make([]float64, n)
		orig := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 20
			orig[i] = xs[i]
		}
		if _, err := Forward(xs); err != nil {
			t.Fatal(err)
		}
		if _, err := Inverse(xs); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(xs, orig); d > 1e-9 {
			t.Fatalf("n=%d round-trip error %g", n, d)
		}
	}
}

func TestEnergyPreservation(t *testing.T) {
	// Orthonormal transform preserves the L2 norm (Parseval).
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 256)
	var e1 float64
	for i := range xs {
		xs[i] = rng.NormFloat64()
		e1 += xs[i] * xs[i]
	}
	Forward(xs)
	var e2 float64
	for _, c := range xs {
		e2 += c * c
	}
	if math.Abs(e1-e2) > 1e-9*e1 {
		t.Fatalf("energy not preserved: %v vs %v", e1, e2)
	}
}

func TestDenoise(t *testing.T) {
	coeffs := []float64{5, 0.1, -0.2, 3, 0}
	z := Denoise(coeffs, 0.5)
	if z != 2 {
		t.Fatalf("zeroed=%d, want 2", z)
	}
	if coeffs[0] != 5 {
		t.Fatal("Denoise must never zero the overall average (index 0)")
	}
	if coeffs[1] != 0 || coeffs[2] != 0 || coeffs[3] != 3 {
		t.Fatalf("coeffs=%v", coeffs)
	}
}

func TestDenoiseBoundsError(t *testing.T) {
	// Reconstruction error after zeroing coefficients below threshold t is
	// bounded: each zeroed orthonormal coefficient contributes at most
	// t/sqrt(n) pointwise... we verify the practical bound RMSE <= t.
	rng := rand.New(rand.NewSource(4))
	n := 512
	orig := make([]float64, n)
	for i := range orig {
		orig[i] = 20 + 5*math.Sin(2*math.Pi*float64(i)/128) + rng.NormFloat64()*0.3
	}
	xs := append([]float64(nil), orig...)
	Forward(xs)
	Denoise(xs, 1.0)
	Inverse(xs)
	var ss float64
	for i := range xs {
		d := xs[i] - orig[i]
		ss += d * d
	}
	rmse := math.Sqrt(ss / float64(n))
	if rmse > 1.0 {
		t.Fatalf("denoise RMSE %g exceeds threshold", rmse)
	}
}

func TestTopK(t *testing.T) {
	coeffs := []float64{10, 1, 5, -7, 0.5, 2, 0, 3}
	TopK(coeffs, 3)
	// Keeps index 0 plus 2 largest magnitudes among the rest: -7 and 5.
	nonzero := 0
	for _, c := range coeffs {
		if c != 0 {
			nonzero++
		}
	}
	if nonzero != 3 {
		t.Fatalf("nonzero=%d, want 3: %v", nonzero, coeffs)
	}
	if coeffs[0] != 10 || coeffs[3] != -7 || coeffs[2] != 5 {
		t.Fatalf("wrong survivors: %v", coeffs)
	}
	// k >= len keeps everything.
	c2 := []float64{1, 2, 3}
	if z := TopK(c2, 5); z != 0 {
		t.Fatalf("TopK(k>=n) zeroed %d", z)
	}
	// k < 1 keeps only index 0.
	c3 := []float64{9, 1, 2}
	TopK(c3, 0)
	if c3[1] != 0 || c3[2] != 0 || c3[0] != 9 {
		t.Fatalf("TopK(0)=%v", c3)
	}
}

func TestCoarsenExpand(t *testing.T) {
	xs := []float64{1, 3, 5, 7}
	c, err := Coarsen(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 2 || c[0] != 2 || c[1] != 6 {
		t.Fatalf("Coarsen=%v", c)
	}
	e := Expand(c, 2)
	if len(e) != 4 || e[0] != 2 || e[1] != 2 || e[2] != 6 {
		t.Fatalf("Expand=%v", e)
	}
	if _, err := Coarsen([]float64{1, 2, 3}); err == nil {
		t.Fatal("odd-length Coarsen should fail")
	}
	if _, err := Coarsen(nil); err == nil {
		t.Fatal("empty Coarsen should fail")
	}
	if got := Expand([]float64{5}, 0); len(got) != 1 {
		t.Fatalf("Expand factor<1 should clamp to 1: %v", got)
	}
}

func TestCompressDecompress(t *testing.T) {
	// Smooth diurnal signal: should compress to a handful of coefficients.
	n := 300 // non-pow2 on purpose: exercises padding
	orig := make([]float64, n)
	for i := range orig {
		orig[i] = 20 + 8*math.Sin(2*math.Pi*float64(i)/float64(n))
	}
	s, err := Compress(orig, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Index) >= n/4 {
		t.Fatalf("smooth signal kept %d/%d coefficients; expected strong compression", len(s.Index), n)
	}
	rec, err := Decompress(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) != n {
		t.Fatalf("reconstructed length %d, want %d", len(rec), n)
	}
	if d := maxAbsDiff(rec, orig); d > 2.0 {
		t.Fatalf("reconstruction error %g too large", d)
	}
}

func TestCompressTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	s, err := CompressTopK(xs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Index) > 10 {
		t.Fatalf("TopK kept %d coefficients, want <= 10", len(s.Index))
	}
	if _, err := Decompress(s); err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	xs := []float64{21.5, 21.6, 22.0, 25.0, 21.2, 21.3, 21.4, 21.5}
	s, err := Compress(xs, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	buf := s.Marshal()
	if len(buf) != s.WireSize() {
		t.Fatalf("WireSize=%d, actual %d", s.WireSize(), len(buf))
	}
	s2, err := UnmarshalSparse(buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.N != s.N || s2.PaddedN != s.PaddedN || len(s2.Index) != len(s.Index) {
		t.Fatalf("header mismatch: %+v vs %+v", s2, s)
	}
	rec, err := Decompress(s2)
	if err != nil {
		t.Fatal(err)
	}
	// float32 quantization: errors below 1e-3 for sensor-scale values.
	if d := maxAbsDiff(rec[:4], xs[:4]); d > 0.05 {
		t.Fatalf("wire round-trip error %g", d)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := UnmarshalSparse([]byte{1, 2}); err == nil {
		t.Fatal("short buffer should fail")
	}
	s := Sparse{N: 4, PaddedN: 4, Index: []uint32{0, 1}, Value: []float64{1, 2}}
	buf := s.Marshal()
	if _, err := UnmarshalSparse(buf[:len(buf)-3]); err == nil {
		t.Fatal("truncated buffer should fail")
	}
}

func TestDecompressErrors(t *testing.T) {
	if _, err := Decompress(Sparse{N: 2, PaddedN: 3}); err == nil {
		t.Fatal("non-pow2 PaddedN should fail")
	}
	if _, err := Decompress(Sparse{N: 8, PaddedN: 4}); err == nil {
		t.Fatal("N > PaddedN should fail")
	}
	if _, err := Decompress(Sparse{N: 2, PaddedN: 4, Index: []uint32{9}, Value: []float64{1}}); err == nil {
		t.Fatal("out-of-range index should fail")
	}
	if _, err := Decompress(Sparse{N: 2, PaddedN: 4, Index: []uint32{1}, Value: nil}); err == nil {
		t.Fatal("index/value mismatch should fail")
	}
}

// Property: round trip through Forward+Inverse reconstructs any pow2 signal.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw []int16, szSel uint8) bool {
		n := 1 << (uint(szSel)%8 + 1) // 2..256
		xs := make([]float64, n)
		for i := range xs {
			if len(raw) > 0 {
				xs[i] = float64(raw[i%len(raw)]) / 16
			}
		}
		orig := append([]float64(nil), xs...)
		if _, err := Forward(xs); err != nil {
			return false
		}
		if _, err := Inverse(xs); err != nil {
			return false
		}
		return maxAbsDiff(xs, orig) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: compression error is monotone in threshold (higher threshold →
// same or fewer kept coefficients).
func TestPropertyThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 10
		}
		prevKept := 65
		for _, th := range []float64{0.01, 0.1, 1, 10, 100} {
			s, err := Compress(xs, th)
			if err != nil {
				t.Fatal(err)
			}
			if len(s.Index) > prevKept {
				t.Fatalf("kept coefficients grew with threshold: %d -> %d", prevKept, len(s.Index))
			}
			prevKept = len(s.Index)
		}
	}
}

func BenchmarkForward1024(b *testing.B) {
	xs := make([]float64, 1024)
	for i := range xs {
		xs[i] = math.Sin(float64(i) / 10)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tmp := append([]float64(nil), xs...)
		Forward(tmp)
	}
}

// TestTopKKeepsRankOrder checks TopK and Scratch.TopK against a full sort
// in TopK's documented order — magnitude descending, then index
// ascending — on vectors full of equal magnitudes, signed pairs and zeros,
// where any other tie rule keeps a different coefficient.
func TestTopKKeepsRankOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var sc Scratch
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(300)
		xs := make([]float64, n)
		levels := 1 + rng.Intn(6)
		for i := range xs {
			switch rng.Intn(4) {
			case 0:
				xs[i] = 0
			case 1:
				xs[i] = rng.NormFloat64()
			default: // few distinct magnitudes, either sign
				xs[i] = float64(rng.Intn(levels)) * float64(1-2*rng.Intn(2))
			}
		}
		k := rng.Intn(n + 2)

		// Reference: sort the details by (magnitude desc, index asc) and
		// keep the first k-1.
		want := append([]float64(nil), xs...)
		wantZeroed := 0
		if k < n {
			idx := make([]int, 0, n-1)
			for i := 1; i < n; i++ {
				idx = append(idx, i)
			}
			sort.SliceStable(idx, func(a, b int) bool { return math.Abs(xs[idx[a]]) > math.Abs(xs[idx[b]]) })
			for _, i := range idx[max(k, 1)-1:] {
				if want[i] != 0 {
					wantZeroed++
				}
				want[i] = 0
			}
		}
		for name, topk := range map[string]func([]float64, int) int{"TopK": TopK, "Scratch.TopK": sc.TopK} {
			got := append([]float64(nil), xs...)
			if z := topk(got, k); z != wantZeroed || !slices.Equal(got, want) {
				t.Fatalf("trial %d (n=%d k=%d): %s zeroed %d, kept %v; want %d, %v", trial, n, k, name, z, got, wantZeroed, want)
			}
		}
	}
}

func TestKeepCount(t *testing.T) {
	for _, c := range []struct {
		frac float64
		n    int
		want int
	}{
		{1, 128, 128}, {2, 8, 8}, {0.5, 128, 64}, {0.3, 128, 39},
		{0.125, 4, 1}, {0.01, 4, 1}, {0.5, 1, 1}, {0.25, 2, 1},
	} {
		if got := KeepCount(c.frac, c.n); got != c.want {
			t.Errorf("KeepCount(%v, %d) = %d, want %d", c.frac, c.n, got, c.want)
		}
	}
}
