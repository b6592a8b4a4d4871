package wire_test

import (
	"math/rand"
	"testing"

	"presto/internal/compress"
	"presto/internal/model"
	"presto/internal/wavelet"
	"presto/internal/wire"
)

// decoder is one entry of a garbage-robustness table: a decode call that
// discards its result.
type decoder struct {
	name string
	fn   func([]byte)
}

// moteDecoders is every decoder in the mote↔proxy path.
func moteDecoders() []decoder {
	return []decoder{
		{"DecodePush", func(b []byte) { _, _ = wire.DecodePush(b) }},
		{"DecodeBatch", func(b []byte) { _, _ = wire.DecodeBatch(b) }},
		{"DecodeModelUpdate", func(b []byte) { _, _ = wire.DecodeModelUpdate(b) }},
		{"DecodePullReq", func(b []byte) { _, _ = wire.DecodePullReq(b) }},
		{"DecodePullResp", func(b []byte) { _, _ = wire.DecodePullResp(b) }},
		{"DecodeConfig", func(b []byte) { _, _ = wire.DecodeConfig(b) }},
		{"compress.Decode", func(b []byte) { _, _ = compress.Decode(b) }},
		{"model.Unmarshal", func(b []byte) { _, _ = model.Unmarshal(b) }},
		{"wavelet.UnmarshalSparse", func(b []byte) { _, _ = wavelet.UnmarshalSparse(b) }},
	}
}

// validMoteFrames returns real encodings of the mote↔proxy messages.
func validMoteFrames() [][]byte {
	return [][]byte{
		wire.EncodePush(wire.Push{T: 1234, V: 20.5}),
		wire.EncodePullReq(wire.PullReq{ID: 1, T0: 0, T1: 100}),
		wire.EncodePullResp(wire.PullResp{ID: 2, Records: []wire.Rec{{T: 1, V: 2}, {T: 3, V: 4}}}),
		wire.EncodeConfig(wire.Config{LPLInterval: 1000}),
		wire.EncodeModelUpdate(wire.ModelUpdate{Delta: 1, Params: model.ConstLast{}.Marshal()}),
	}
}

// garbage returns the robustness suite's inputs: 500 pure random buffers
// of assorted sizes, then 200 mutations of each valid encoding (flipped
// bits, and half of them truncated at random).
func garbage(rng *rand.Rand, valid [][]byte) [][]byte {
	var out [][]byte
	for trial := 0; trial < 500; trial++ {
		buf := make([]byte, rng.Intn(300))
		rng.Read(buf)
		out = append(out, buf)
	}
	for _, base := range valid {
		for trial := 0; trial < 200; trial++ {
			buf := append([]byte(nil), base...)
			for k := 0; k < 1+rng.Intn(4); k++ {
				buf[rng.Intn(len(buf))] ^= byte(1 << rng.Intn(8))
			}
			if rng.Intn(2) == 0 {
				buf = buf[:rng.Intn(len(buf)+1)]
			}
			out = append(out, buf)
		}
	}
	return out
}

// neverPanics runs every decoder on every input, failing on a panic.
func neverPanics(t *testing.T, decoders []decoder, inputs [][]byte) {
	t.Helper()
	guard := func(name string, fn func([]byte), buf []byte) {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s panicked on %d bytes: %v", name, len(buf), r)
			}
		}()
		fn(buf)
	}
	for _, buf := range inputs {
		for _, d := range decoders {
			guard(d.name, d.fn, buf)
		}
	}
}

// Every decoder in the mote↔proxy path parses bytes that arrived over a
// lossy radio from nodes we may not control. None of them may panic on
// arbitrary input — they must return errors. This test throws random and
// mutated-valid buffers at all of them.
func TestDecodersNeverPanicOnGarbage(t *testing.T) {
	neverPanics(t, moteDecoders(), garbage(rand.New(rand.NewSource(99)), validMoteFrames()))
}
