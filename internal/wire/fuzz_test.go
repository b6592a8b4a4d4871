package wire_test

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"presto/internal/query"
	"presto/internal/simtime"
)

// A decode may allocate at most allocPerByte bytes per input byte, plus
// allocSlack: what it builds is bounded by what it was given, whatever
// counts the bytes claim. The densest case is a partials payload's
// per-mote results: 120 bytes of query.Result from as few as 5 input
// bytes, and append's doubling can spend up to 4x that. A decompressing decoder may also allocate its
// output, which a good compressor makes much longer than its input:
// compress.Decode caps a wavelet batch at 2^16 samples, two float64s each
// (coefficients and the inverse transform's scratch).
const (
	allocPerByte    = 128
	allocSlack      = 4 << 10
	decompressSlack = 2 * 8 << 16
)

// decompresses names the table entries that run compress.Decode.
var decompresses = map[string]bool{"DecodeBatch": true, "compress.Decode": true}

// allocBound is the allocation the named decoder may not exceed on n
// input bytes.
func allocBound(name string, n int) uint64 {
	b := allocPerByte*uint64(n) + allocSlack
	if decompresses[name] {
		b += decompressSlack
	}
	return b
}

// decodeAlloc reports the bytes fn allocates per call on buf. One call
// is measured first; the allocator charges a whole span when it refills
// a size class, so a reading over bound is retaken as an average over
// several calls before it counts.
func decodeAlloc(d decoder, buf []byte) uint64 {
	measure := func(runs int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			d.fn(buf)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	}
	if got := measure(1); got <= allocBound(d.name, len(buf)) {
		return got
	}
	return measure(16)
}

// checkAlloc fails t if d allocates more than its bound decoding buf.
func checkAlloc(t *testing.T, d decoder, buf []byte) {
	t.Helper()
	if got, bound := decodeAlloc(d, buf), allocBound(d.name, len(buf)); got > bound {
		t.Fatalf("%s allocated %d bytes decoding %d, bound %d", d.name, got, len(buf), bound)
	}
}

// probePayloads are inputs whose counts claim far more elements than
// their bytes could hold, each with the decoder it targets: a 55-byte
// partials payload claiming 2^22 histogram bins, and a scatter whose
// mote list claims 2^20 motes in a 3-byte count.
func probePayloads() []struct {
	decoder
	buf []byte
} {
	spec := query.Spec{Type: query.Agg, T1: simtime.Hour, Agg: query.Mean, Precision: 0.5}
	bins := binary.AppendUvarint(nil, 1) // one partial
	bins = binary.AppendUvarint(bins, 0) // domain
	bins = binary.AppendUvarint(bins, 0) // count
	for i := 0; i < 6; i++ {
		bins = binary.LittleEndian.AppendUint64(bins, math.Float64bits(0))
	}
	bins = binary.AppendUvarint(bins, 1<<22)
	motes := query.AppendScatterHead(nil, spec, nil)
	motes = binary.AppendUvarint(motes[:len(motes)-1], 1<<20)
	return []struct {
		decoder
		buf []byte
	}{
		{decoder{"query.DecodeRoundPartials", func(b []byte) { _, _ = query.DecodeRoundPartials(spec, b) }}, bins},
		{decoder{"query.DecodeScatter", func(b []byte) { _, _, _, _ = query.DecodeScatter(b) }}, motes},
	}
}

// TestDecodersBoundAllocation holds every decoder of both robustness
// tables, on the robustness suites' inputs and on the probe payloads, to
// its allocBound.
func TestDecodersBoundAllocation(t *testing.T) {
	for _, p := range probePayloads() {
		checkAlloc(t, p.decoder, p.buf)
	}
	tables := []struct {
		decoders []decoder
		inputs   [][]byte
	}{
		{moteDecoders(), garbage(rand.New(rand.NewSource(99)), validMoteFrames())},
		{clusterDecoders(), garbage(rand.New(rand.NewSource(77)), validClusterFrames())},
	}
	for _, tb := range tables {
		for _, buf := range tb.inputs {
			for _, d := range tb.decoders {
				checkAlloc(t, d, buf)
			}
		}
	}
}

// fuzzDecoders fuzzes one decoder table: the first input byte picks the
// decoder, the rest is its input. Seeds pair every valid encoding with
// every decoder. The properties are the robustness suite's — no panic —
// and the allocation bound.
func fuzzDecoders(f *testing.F, decoders []decoder, valid [][]byte) {
	for _, v := range valid {
		for i := range decoders {
			f.Add(append([]byte{byte(i)}, v...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		checkAlloc(t, decoders[int(data[0])%len(decoders)], data[1:])
	})
}

func FuzzDecoders(f *testing.F) { fuzzDecoders(f, moteDecoders(), validMoteFrames()) }

func FuzzClusterDecoders(f *testing.F) {
	fuzzDecoders(f, clusterDecoders(), validClusterFrames())
}
