// Package snap is the program's one byte reader and the serialization
// substrate for the Snapshot/Restore seam that runs through every
// stateful layer of the system (simtime, radio, flash, archive, cache,
// mote, proxy, index, store, core). It deliberately depends on nothing
// but the standard library so any layer can import it.
//
// The format primitives are:
//
//   - Enc/Dec: an append-only encoder and a sticky-error decoder over
//     fixed-width little-endian integers, IEEE-754 floats, varints and
//     length-prefixed byte strings. Encoding the same state always
//     produces the same bytes — snapshot determinism (same domain, same
//     instant → same blob) is the mechanism the whole seam is verified
//     by. Dec reads every byte that comes from outside the process:
//     radio and cluster frames (internal/wire), query payloads
//     (internal/query) and snapshot blocks. Its rule is that a count
//     never exceeds the bytes left (Dec.Count), so allocation is bounded
//     by input length in this one type.
//   - WriteBlock/ReadBlock: tagged, length-prefixed framing so a
//     composed stream (core.Domain.Snapshot) can concatenate per-layer
//     blocks and restore can detect a mis-ordered or truncated stream
//     immediately instead of mis-parsing it.
//   - Writer/Reader: thin CRC32-tracking wrappers; the composer writes
//     a trailing checksum over everything it emitted.
//   - RNG: a serializable xoshiro256** rand.Source64, so kernels and
//     skip graphs can externalize their generator state exactly — the
//     piece math/rand's default source hides.
package snap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// ErrCorrupt reports a malformed or truncated snapshot stream.
var ErrCorrupt = errors.New("snap: corrupt snapshot stream")

// maxBlockLen bounds a single block so a corrupt length prefix cannot
// drive a huge allocation.
const maxBlockLen = 1 << 30

// blockReadStep is ReadBlock's first buffer: blocks up to this size are
// allocated exactly; longer ones grow as their bytes arrive.
const blockReadStep = 1 << 20

// Block tags: one per layer, so a composed stream self-describes which
// layer each block belongs to and restore fails fast on disorder.
const (
	TagKernel  byte = 0x01 // simtime.Simulator
	TagMedium  byte = 0x02 // radio.Medium
	TagBridge  byte = 0x03 // radio.Bridge (one domain)
	TagMeter   byte = 0x04 // energy.Meter
	TagFlash   byte = 0x05 // flash.Device
	TagArchive byte = 0x06 // archive.Store
	TagCache   byte = 0x07 // cache.Series
	TagMote    byte = 0x08 // mote.Mote
	TagProxy   byte = 0x09 // proxy.Proxy
	TagIndex   byte = 0x0A // index.Index (with skip-graph state)
	TagStore   byte = 0x0B // store.Store routing stats
	TagBackend byte = 0x0C // store backend (mem or flash)
)

// ---------------------------------------------------------------------------
// Enc / Dec

// Enc is an append-only encoder. The zero value is ready to use.
type Enc struct {
	b []byte
}

// U64 appends a fixed 8-byte little-endian unsigned integer.
func (e *Enc) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I64 appends a fixed 8-byte little-endian signed integer.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// U32 appends a fixed 4-byte little-endian unsigned integer.
func (e *Enc) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// F64 appends an IEEE-754 double.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// F32 appends an IEEE-754 single.
func (e *Enc) F32(v float32) { e.U32(math.Float32bits(v)) }

// Uvarint appends a varint-encoded count.
func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

// Bytes appends a uvarint length prefix followed by the raw bytes.
func (e *Enc) Bytes(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

// String appends a uvarint length prefix followed by the string bytes.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Data returns the encoded bytes.
func (e *Enc) Data() []byte { return e.b }

// Dec is a sticky-error decoder over a byte slice: after the first
// malformed read every subsequent read returns the zero value, and Err
// reports the failure. Callers decode a whole block and check Err once.
type Dec struct {
	b   []byte
	off int
	err error
}

// NewDec returns a decoder over b.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

func (d *Dec) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *Dec) take(n int) []byte {
	if d.err != nil || n < 0 || d.off+n > len(d.b) {
		d.fail()
		return nil
	}
	p := d.b[d.off : d.off+n]
	d.off += n
	return p
}

// U64 reads a fixed 8-byte little-endian unsigned integer.
func (d *Dec) U64() uint64 {
	p := d.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}

// I64 reads a fixed 8-byte little-endian signed integer.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// U32 reads a fixed 4-byte little-endian unsigned integer.
func (d *Dec) U32() uint32 {
	p := d.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}

// F64 reads an IEEE-754 double.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// F32 reads an IEEE-754 single.
func (d *Dec) F32() float32 { return math.Float32frombits(d.U32()) }

// U8 reads one byte.
func (d *Dec) U8() byte {
	p := d.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

// Uvarint reads an unsigned varint.
func (d *Dec) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Varint reads a zig-zag signed varint.
func (d *Dec) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Count reads a uvarint element count. Every element takes at least one
// byte, so a count above Len() can only be corrupt: it fails the decoder
// and returns 0, before the caller sizes anything by it.
func (d *Dec) Count() int {
	n := d.Uvarint()
	if n > uint64(d.Len()) {
		d.fail()
		return 0
	}
	return int(n)
}

// Bool reads one byte as a boolean (only 0 and 1 are valid).
func (d *Dec) Bool() bool {
	b := d.U8()
	if b > 1 {
		d.fail()
	}
	return b == 1
}

// Bytes reads a uvarint length prefix and returns that many bytes
// (a sub-slice of the decoder's buffer — copy if retaining).
func (d *Dec) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil || n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	return d.take(int(n))
}

// String reads a uvarint length prefix and returns that many bytes as a
// string.
func (d *Dec) String() string { return string(d.Bytes()) }

// Rest consumes and returns every remaining byte: an unprefixed payload
// tail (a sub-slice of the decoder's buffer — copy if retaining). It is
// nil once the decoder has failed.
func (d *Dec) Rest() []byte { return d.take(d.Len()) }

// Fail marks the decoder failed, for a value that decoded but is out of
// range: like any malformed read, every later read returns zero.
func (d *Dec) Fail() { d.fail() }

// Len reports how many undecoded bytes remain.
func (d *Dec) Len() int { return len(d.b) - d.off }

// Err returns the sticky decode error, or nil.
func (d *Dec) Err() error { return d.err }

// Done returns ErrCorrupt if decoding failed or bytes remain — every
// block must be consumed exactly.
func (d *Dec) Done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("%w: %d trailing bytes in block", ErrCorrupt, len(d.b)-d.off)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Block framing

// WriteBlock frames body as [tag][8-byte LE length][body] on w.
func WriteBlock(w io.Writer, tag byte, body []byte) error {
	var hdr [9]byte
	hdr[0] = tag
	binary.LittleEndian.PutUint64(hdr[1:], uint64(len(body)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}

// ReadBlock reads one block from r and verifies its tag, returning the
// body. A tag mismatch means the stream is mis-ordered (or not a
// snapshot at all) and fails immediately.
func ReadBlock(r io.Reader, wantTag byte) ([]byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: block header: %v", ErrCorrupt, err)
	}
	if hdr[0] != wantTag {
		return nil, fmt.Errorf("%w: block tag 0x%02x, want 0x%02x", ErrCorrupt, hdr[0], wantTag)
	}
	n := binary.LittleEndian.Uint64(hdr[1:])
	if n > maxBlockLen {
		return nil, fmt.Errorf("%w: block length %d exceeds %d", ErrCorrupt, n, maxBlockLen)
	}
	// Read in steps, doubling the buffer only once the reader has filled
	// it, so a corrupt length costs the bytes actually supplied (plus one
	// step), not the length it claims.
	body := make([]byte, 0, min(n, blockReadStep))
	for uint64(len(body)) < n {
		if len(body) == cap(body) {
			body = slices.Grow(body, int(min(n-uint64(len(body)), uint64(len(body)))))
		}
		k, err := io.ReadFull(r, body[len(body):min(uint64(cap(body)), n)])
		body = body[:len(body)+k]
		if err != nil {
			return nil, fmt.Errorf("%w: block body: %v", ErrCorrupt, err)
		}
	}
	return body, nil
}

// ---------------------------------------------------------------------------
// CRC-tracking writer / reader

// Writer wraps an io.Writer, accumulating a CRC32 (IEEE) of everything
// written through it.
type Writer struct {
	w   io.Writer
	crc uint32
}

// NewWriter returns a CRC-tracking writer over w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Write implements io.Writer.
func (cw *Writer) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

// Sum32 returns the checksum of everything written so far.
func (cw *Writer) Sum32() uint32 { return cw.crc }

// Reader wraps an io.Reader, accumulating a CRC32 (IEEE) of everything
// read through it.
type Reader struct {
	r   io.Reader
	crc uint32
}

// NewReader returns a CRC-tracking reader over r.
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Read implements io.Reader.
func (cr *Reader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Sum32 returns the checksum of everything read so far.
func (cr *Reader) Sum32() uint32 { return cr.crc }

// ---------------------------------------------------------------------------
// Serializable RNG

// RNG is a xoshiro256** generator implementing rand.Source64 whose full
// state can be externalized and reinstalled — math/rand sources cannot
// do this, and snapshot/restore needs it so a restored kernel draws the
// exact sequence the original would have.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64 (the
// reference xoshiro seeding procedure — it guarantees a non-zero state).
func NewRNG(seed int64) *RNG {
	r := &RNG{}
	r.Seed(seed)
	return r
}

// Seed reinitializes the state from seed (rand.Source interface).
func (r *RNG) Seed(seed int64) {
	x := uint64(seed)
	for i := range r.s {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		r.s[i] = z ^ (z >> 31)
	}
}

// Uint64 returns the next value (rand.Source64 interface).
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Int63 returns a non-negative 63-bit value (rand.Source interface).
func (r *RNG) Int63() int64 { return int64(r.Uint64() >> 1) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// State returns the full generator state.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState reinstalls a previously captured state.
func (r *RNG) SetState(s [4]uint64) { r.s = s }
