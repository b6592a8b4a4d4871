package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// countingWriter records every Write it is handed.
type countingWriter struct {
	writes int
	bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// TestWriteFrameOneWrite: WriteFrame hands its writer exactly one Write
// per frame, laid out as documented — u32 LE length of the rest, kind
// byte, uvarint seq, payload — and ReadFrame reads it back.
func TestWriteFrameOneWrite(t *testing.T) {
	for _, f := range []Frame{
		{Kind: FrameAdvance, Seq: 1},
		{Kind: FrameScatter, Seq: 300, Payload: []byte("abc")},
		{Kind: FramePartials, Seq: 1 << 40, Payload: bytes.Repeat([]byte{7}, 5000)},
	} {
		var w countingWriter
		if err := WriteFrame(&w, f); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 {
			t.Fatalf("seq %d: %d writes for one frame, want 1", f.Seq, w.writes)
		}
		body := append([]byte{byte(f.Kind)}, binary.AppendUvarint(nil, f.Seq)...)
		body = append(body, f.Payload...)
		want := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
		want = append(want, body...)
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("seq %d: wrote % x, want % x", f.Seq, w.Bytes(), want)
		}
		if len(want) != FrameSize(f) {
			t.Fatalf("seq %d: FrameSize %d, wire bytes %d", f.Seq, FrameSize(f), len(want))
		}
		got, err := ReadFrame(&w.Buffer)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != f.Kind || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("seq %d: read back %v/%d/%d bytes", f.Seq, got.Kind, got.Seq, len(got.Payload))
		}
	}
}

// TestWriteFrameRefusesOversize: a body over the frame limit is refused
// before a single byte reaches the writer.
func TestWriteFrameRefusesOversize(t *testing.T) {
	var w countingWriter
	f := Frame{Kind: FrameSnapshotChunk, Seq: 1, Payload: make([]byte, maxFrameLen)}
	if err := WriteFrame(&w, f); err == nil {
		t.Fatal("oversize frame written")
	}
	if w.writes != 0 || w.Len() != 0 {
		t.Fatalf("refused frame still wrote %d times, %d bytes", w.writes, w.Len())
	}
	f.Payload = f.Payload[:maxFrameLen-2] // kind + 1-byte seq + payload = the limit
	if err := WriteFrame(&w, f); err != nil || w.writes != 1 {
		t.Fatalf("frame at the limit: %v after %d writes", err, w.writes)
	}
}
