package snap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"
)

func TestEncDecRoundTrip(t *testing.T) {
	var e Enc
	e.U64(^uint64(0))
	e.I64(-42)
	e.U32(0xdeadbeef)
	e.F64(3.14159)
	e.F32(2.5)
	e.Uvarint(300)
	e.Bool(true)
	e.Bool(false)
	e.Bytes([]byte("payload"))
	e.String("name")

	d := NewDec(e.Data())
	if got := d.U64(); got != ^uint64(0) {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.U32(); got != 0xdeadbeef {
		t.Errorf("U32 = %x", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Errorf("F64 = %g", got)
	}
	if got := d.F32(); got != 2.5 {
		t.Errorf("F32 = %g", got)
	}
	if got := d.Uvarint(); got != 300 {
		t.Errorf("Uvarint = %d", got)
	}
	if !d.Bool() || d.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := d.Bytes(); string(got) != "payload" {
		t.Errorf("Bytes = %q", got)
	}
	if got := d.String(); got != "name" {
		t.Errorf("String = %q", got)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}
}

func TestDecUnprefixedReads(t *testing.T) {
	buf := []byte{0x7f}
	buf = binary.AppendVarint(buf, -300)
	buf = binary.AppendUvarint(buf, 2)
	buf = append(buf, 'a', 'b')
	d := NewDec(buf)
	if got := d.U8(); got != 0x7f {
		t.Errorf("U8 = %#x", got)
	}
	if got := d.Varint(); got != -300 {
		t.Errorf("Varint = %d", got)
	}
	if got := d.Count(); got != 2 {
		t.Errorf("Count = %d", got)
	}
	if got := d.Rest(); string(got) != "ab" {
		t.Errorf("Rest = %q", got)
	}
	if err := d.Done(); err != nil {
		t.Fatalf("Done: %v", err)
	}

	// A count larger than the bytes left fails before the caller can
	// size anything by it; so does a range check the caller fails.
	d = NewDec(binary.AppendUvarint(nil, 3))
	if got := d.Count(); got != 0 || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("Count over 0 bytes left = %d, %v", got, d.Err())
	}
	d = NewDec([]byte{1})
	d.Fail()
	if d.U8() != 0 || d.Rest() != nil || !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatal("reads after Fail returned data")
	}
}

func TestDecStickyError(t *testing.T) {
	d := NewDec([]byte{1, 2, 3}) // too short for a U64
	if got := d.U64(); got != 0 {
		t.Errorf("truncated U64 = %d, want 0", got)
	}
	if d.Err() == nil {
		t.Fatal("no sticky error after truncated read")
	}
	// Every subsequent read stays zero-valued and the error sticks.
	if d.Uvarint() != 0 || d.Bytes() != nil || d.Bool() {
		t.Error("reads after error not zero-valued")
	}
	if d.Err() == nil {
		t.Error("error did not stick")
	}
}

func TestDecGarbage(t *testing.T) {
	// No random garbage prefix may panic or over-read; it either decodes
	// (as arbitrary values) or sets the sticky error.
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		buf := make([]byte, rng.Intn(40))
		rng.Read(buf)
		d := NewDec(buf)
		d.U64()
		d.Uvarint()
		d.Bytes()
		d.Bool()
		d.F64()
		_ = d.Err()
	}
}

func TestDecDoneTrailing(t *testing.T) {
	var e Enc
	e.U64(1)
	e.U64(2)
	d := NewDec(e.Data())
	d.U64()
	if err := d.Done(); err == nil {
		t.Fatal("Done accepted trailing bytes")
	}
}

func TestBlockRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlock(&buf, TagKernel, []byte("kernel-state")); err != nil {
		t.Fatal(err)
	}
	if err := WriteBlock(&buf, TagMedium, nil); err != nil {
		t.Fatal(err)
	}
	body, err := ReadBlock(&buf, TagKernel)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "kernel-state" {
		t.Errorf("body = %q", body)
	}
	if body, err = ReadBlock(&buf, TagMedium); err != nil || len(body) != 0 {
		t.Fatalf("empty block: %v, %q", err, body)
	}
}

func TestBlockTagMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlock(&buf, TagKernel, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBlock(&buf, TagProxy); err == nil {
		t.Fatal("tag mismatch not detected")
	}
}

func TestBlockTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBlock(&buf, TagKernel, []byte("full-body")); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ReadBlock(bytes.NewReader(raw[:cut]), TagKernel); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestBlockHugeLength(t *testing.T) {
	// A corrupt length prefix must be rejected, not allocated.
	raw := make([]byte, 9)
	raw[0] = TagKernel
	for i := 1; i < 9; i++ {
		raw[i] = 0xff
	}
	if _, err := ReadBlock(bytes.NewReader(raw), TagKernel); err == nil {
		t.Fatal("huge length accepted")
	}

	// The largest accepted length, with no body behind it: the read
	// fails, and what it allocated tracks the bytes supplied, not the
	// 1 GiB claimed.
	raw[0] = TagKernel
	binary.LittleEndian.PutUint64(raw[1:], maxBlockLen)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadBlock(bytes.NewReader(raw), TagKernel)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadBlock = %v, want an error wrapping ErrCorrupt", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Fatalf("ReadBlock allocated %d bytes for a bodiless %d-byte claim", got, maxBlockLen)
	}
}

func TestCRCWriterReader(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write([]byte("hello "))
	w.Write([]byte("world"))
	sum := w.Sum32()
	if sum == 0 {
		t.Fatal("zero checksum for non-empty data")
	}
	r := NewReader(&buf)
	p := make([]byte, 32)
	for {
		if _, err := r.Read(p); err != nil {
			break
		}
	}
	if r.Sum32() != sum {
		t.Fatalf("reader crc %08x != writer crc %08x", r.Sum32(), sum)
	}
}

func TestRNGDeterminismAndState(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	// Capture state, draw, reinstall, draw again: sequences must match.
	st := a.State()
	want := make([]uint64, 50)
	for i := range want {
		want[i] = a.Uint64()
	}
	a.SetState(st)
	for i := range want {
		if got := a.Uint64(); got != want[i] {
			t.Fatalf("draw %d after SetState = %d, want %d", i, got, want[i])
		}
	}
}

func TestRNGAsRandSource(t *testing.T) {
	// rand.Rand over the serializable source: reinstalling state mid-use
	// replays the downstream draws exactly (the restore-path contract).
	src := NewRNG(5)
	rng := rand.New(src)
	rng.Float64()
	rng.Int63n(100)
	st := src.State()
	want := []float64{rng.Float64(), rng.Float64(), rng.NormFloat64()}
	// NormFloat64 may cache a spare value in some implementations; use a
	// fresh rand.Rand over the reinstalled state like restore does.
	src2 := NewRNG(1)
	src2.SetState(st)
	rng2 := rand.New(src2)
	got := []float64{rng2.Float64(), rng2.Float64(), rng2.NormFloat64()}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("draw %d = %v, want %v", i, got[i], want[i])
		}
	}
}
