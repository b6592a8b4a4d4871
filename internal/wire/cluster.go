package wire

// Cluster frame protocol: the coordinator ↔ site messages that let one
// deployment run as N cooperating OS processes (internal/cluster). The
// same tight-encoding discipline as the radio protocol applies — varint
// deltas, no reflection, and decoders that error (never panic) on
// arbitrary bytes, since a frame arrives from another process over a
// network we may not control. Frame payloads whose types live above this
// package (specs, partial aggregates) are encoded by internal/query and
// carried here opaquely.
//
// Wire format of one frame, as carried by ReadFrame/WriteFrame:
//
//	[4-byte LE length of the rest][kind byte][uvarint seq][payload]
//
// Seq correlates requests with responses: a site answers a frame by
// echoing its seq, so the coordinator can demultiplex concurrent
// scatters, advances and bootstraps over one connection.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sync"

	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/snap"
)

// FrameKind discriminates cluster frames.
type FrameKind uint8

// Cluster frame kinds.
const (
	// FrameHello opens a site's connection: protocol version + config
	// hash, site → coordinator.
	FrameHello FrameKind = iota + 1
	// FrameAssign answers a hello with the site's index and domain
	// window, coordinator → site.
	FrameAssign
	// FrameBootstrap starts the two-phase bootstrap on a site's domains.
	FrameBootstrap
	// FrameBootstrapAck reports bootstrap completion (or failure).
	FrameBootstrapAck
	// FrameAdvance leases the site's domains forward to an absolute
	// virtual instant.
	FrameAdvance
	// FrameAdvanceAck confirms the lease target was reached.
	FrameAdvanceAck
	// FrameScatter carries one round of a spec: bound spec + resolved
	// mote list (query.EncodeScatter payload), coordinator → site.
	FrameScatter
	// FramePartials answers a scatter with the site's folded
	// RoundPartials (query.EncodeRoundPartials payload) or an error.
	FramePartials
	// FrameBridge carries one wired-replica bridge message between
	// processes (EncodeBridgeMsg payload).
	FrameBridge
	// FrameStart begins sampling on a site's motes without the full
	// bootstrap (raw-push workloads and tests).
	FrameStart
	// FrameStartAck confirms sampling started.
	FrameStartAck
	// FrameScatterBatch and FramePartialsBatch carried several sealed
	// rounds of one standing spec per frame. Retired in protocol 5, where
	// a lease never steps past a round's instant and every round is its
	// own scatter; the kinds stay reserved.
	FrameScatterBatch
	FramePartialsBatch
	// FrameSnapshotReq asks a site to stream one hosted domain's state
	// blob back as FrameSnapshotChunk frames, coordinator → site. With
	// Drop set the site stops hosting the domain once the blob is out
	// (the migration half); clear means checkpoint-in-place.
	FrameSnapshotReq
	// FrameSnapshotChunk carries one slice of a domain snapshot blob,
	// ordered, with the last slice flagged Final. Site → coordinator it
	// answers a FrameSnapshotReq; coordinator → site it installs a
	// domain (the site adopts if needed and restores on the final chunk,
	// then answers with FrameSnapshotAck).
	FrameSnapshotChunk
	// FrameSnapshotAck finishes a snapshot exchange: ok byte + optional
	// error string. A site answers an install with it, and uses it as
	// the failure path of a FrameSnapshotReq it cannot serve.
	FrameSnapshotAck
)

// FrameKindMax is the highest defined frame kind (transport counters
// index by kind).
const FrameKindMax = FrameSnapshotAck

// String names the kind.
func (k FrameKind) String() string {
	switch k {
	case FrameHello:
		return "hello"
	case FrameAssign:
		return "assign"
	case FrameBootstrap:
		return "bootstrap"
	case FrameBootstrapAck:
		return "bootstrap-ack"
	case FrameAdvance:
		return "advance"
	case FrameAdvanceAck:
		return "advance-ack"
	case FrameScatter:
		return "scatter"
	case FramePartials:
		return "partials"
	case FrameBridge:
		return "bridge"
	case FrameStart:
		return "start"
	case FrameStartAck:
		return "start-ack"
	case FrameScatterBatch:
		return "scatter-batch"
	case FramePartialsBatch:
		return "partials-batch"
	case FrameSnapshotReq:
		return "snapshot-req"
	case FrameSnapshotChunk:
		return "snapshot-chunk"
	case FrameSnapshotAck:
		return "snapshot-ack"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Frame is one cluster message.
type Frame struct {
	Kind    FrameKind
	Seq     uint64
	Payload []byte
}

// maxFrameLen bounds a frame body: a length prefix beyond this is
// garbage (or hostile), not a frame we would ever send.
const maxFrameLen = 16 << 20

// EncodeFrame serializes a frame body (everything after the length
// prefix).
func EncodeFrame(f Frame) []byte {
	buf := make([]byte, 0, 1+binary.MaxVarintLen64+len(f.Payload))
	buf = append(buf, byte(f.Kind))
	buf = binary.AppendUvarint(buf, f.Seq)
	return append(buf, f.Payload...)
}

// DecodeFrame deserializes a frame body. The returned frame's payload
// aliases buf — callers that outlive buf must copy.
func DecodeFrame(buf []byte) (Frame, error) {
	d := snap.NewDec(buf)
	f := Frame{Kind: FrameKind(d.U8())}
	if d.Err() == nil && (f.Kind == 0 || f.Kind > FrameKindMax) {
		return Frame{}, fmt.Errorf("wire: unknown frame kind %d", uint8(f.Kind))
	}
	f.Seq = d.Uvarint()
	f.Payload = d.Rest()
	return read(d, f)
}

// FrameSize is a frame's on-the-wire size: length prefix + kind byte +
// seq varint + payload. Transports use it for byte accounting (loopback
// never serializes, so it reports what TCP would have carried).
func FrameSize(f Frame) int {
	n := 4 + 1 + 1 + len(f.Payload)
	for s := f.Seq; s >= 0x80; s >>= 7 {
		n++
	}
	return n
}

// framePool recycles WriteFrame's serialization buffer: the frame is
// fully written out before WriteFrame returns, so the buffer is never
// referenced after the call.
var framePool = sync.Pool{
	New: func() any { b := make([]byte, 0, 1024); return &b },
}

// maxPooledFrame bounds the capacity a pooled frame buffer may retain.
const maxPooledFrame = 1 << 16

// WriteFrame writes one length-prefixed frame with a single Write: the
// length prefix and the body are laid out in one pooled buffer, so over
// TCP a frame leaves in one syscall. A body over the frame limit is
// refused before any byte is written.
func WriteFrame(w io.Writer, f Frame) error {
	n := FrameSize(f)
	if n-4 > maxFrameLen {
		return fmt.Errorf("wire: frame body %d bytes exceeds limit", n-4)
	}
	bp := framePool.Get().(*[]byte)
	buf := binary.LittleEndian.AppendUint32((*bp)[:0], uint32(n-4))
	buf = append(buf, byte(f.Kind))
	buf = binary.AppendUvarint(buf, f.Seq)
	buf = append(buf, f.Payload...)
	_, err := w.Write(buf)
	if cap(buf) <= maxPooledFrame {
		*bp = buf[:0]
		framePool.Put(bp)
	}
	return err
}

// ReadFrame reads one length-prefixed frame into a fresh buffer.
func ReadFrame(r io.Reader) (Frame, error) {
	f, _, err := ReadFrameBuf(r, nil)
	return f, err
}

// ReadFrameBuf reads one length-prefixed frame into buf (grown as
// needed) and returns the frame plus the possibly-regrown buffer for the
// next call. The frame's payload aliases the buffer, so it is valid only
// until the buffer's next reuse: pass a persistent buffer only from a
// single-goroutine consumer that finishes decoding each frame before
// reading the next (a site's serve loop); anything that hands frames to
// other goroutines must use ReadFrame.
func ReadFrameBuf(r io.Reader, buf []byte) (Frame, []byte, error) {
	// The length prefix lands in buf too: a header array of its own
	// would escape through the io.Reader call and cost a malloc a frame.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	buf = buf[:4]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n == 0 || n > maxFrameLen {
		return Frame{}, buf, fmt.Errorf("wire: implausible frame length %d", n)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return Frame{}, buf, err
	}
	f, err := DecodeFrame(buf)
	return f, buf, err
}

// ---------------------------------------------------------------------------
// Handshake

// ProtoVersion is the cluster protocol version; a hello carrying any
// other value is refused, so mixed builds fail fast at join time instead
// of corrupting each other mid-run. Version 2: the scatter payload moved
// its window behind the mote list (standing-spec payload caching) and
// added the batched-round frame pair. Version 3: the snapshot frame
// trio (req/chunk/ack) for domain migration, checkpointing and site
// re-join. Version 4: optional trace context — a scatter may carry a
// trace id after its window, and the partials answering it append a
// per-mote route section; untraced frames are byte-identical to v3.
// Version 5: the batched-round frame pair is neither sent nor served.
const ProtoVersion = 5

// Hello opens a site's connection.
type Hello struct {
	Version uint32
	// ConfigHash fingerprints the site's deployment config: coordinator
	// and sites must be launched with identical deployments (same seed,
	// same partition), or every determinism guarantee is off.
	ConfigHash uint64
}

// EncodeHello serializes a hello (12 bytes).
func EncodeHello(h Hello) []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint32(buf, h.Version)
	binary.LittleEndian.PutUint64(buf[4:], h.ConfigHash)
	return buf
}

// DecodeHello deserializes a hello.
func DecodeHello(buf []byte) (Hello, error) {
	d := snap.NewDec(buf)
	return read(d, Hello{Version: d.U32(), ConfigHash: d.U64()})
}

// Assign answers a hello: the joining process is site Site of Sites and
// hosts global domains [FirstShard, FirstShard+Shards).
type Assign struct {
	Site       int
	Sites      int
	FirstShard int
	Shards     int
	ConfigHash uint64 // echo of the coordinator's own hash
}

// EncodeAssign serializes an assignment.
func EncodeAssign(a Assign) []byte {
	buf := make([]byte, 0, 4*binary.MaxVarintLen64+8)
	buf = binary.AppendUvarint(buf, uint64(a.Site))
	buf = binary.AppendUvarint(buf, uint64(a.Sites))
	buf = binary.AppendUvarint(buf, uint64(a.FirstShard))
	buf = binary.AppendUvarint(buf, uint64(a.Shards))
	var h [8]byte
	binary.LittleEndian.PutUint64(h[:], a.ConfigHash)
	return append(buf, h[:]...)
}

// DecodeAssign deserializes an assignment.
func DecodeAssign(buf []byte) (Assign, error) {
	d := snap.NewDec(buf)
	return read(d, Assign{
		Site:       int(atMost(d, 1<<20)),
		Sites:      int(atMost(d, 1<<20)),
		FirstShard: int(atMost(d, 1<<20)),
		Shards:     int(atMost(d, 1<<20)),
		ConfigHash: d.U64(),
	})
}

// atMost reads a uvarint and fails d if it exceeds max.
func atMost(d *snap.Dec, max uint64) uint64 {
	v := d.Uvarint()
	if v > max {
		d.Fail()
	}
	return v
}

// ---------------------------------------------------------------------------
// Bootstrap and advance leases

// Bootstrap asks a site to run the two-phase startup on its domains.
type Bootstrap struct {
	TrainFor simtime.Time
	Bins     int
	Delta    float64
}

// EncodeBootstrap serializes a bootstrap command.
func EncodeBootstrap(b Bootstrap) []byte {
	buf := make([]byte, 0, 2*binary.MaxVarintLen64+8)
	buf = binary.AppendVarint(buf, int64(b.TrainFor))
	buf = binary.AppendVarint(buf, int64(b.Bins))
	var d [8]byte
	binary.LittleEndian.PutUint64(d[:], math.Float64bits(b.Delta))
	return append(buf, d[:]...)
}

// DecodeBootstrap deserializes a bootstrap command.
func DecodeBootstrap(buf []byte) (Bootstrap, error) {
	d := snap.NewDec(buf)
	b := Bootstrap{TrainFor: simtime.Time(d.Varint()), Bins: int(d.Varint()), Delta: d.F64()}
	if b.Bins < 0 || b.Bins > 1<<20 {
		d.Fail()
	}
	return read(d, b)
}

// EncodeAdvance serializes an advance lease (or its ack): the absolute
// virtual instant the site's domains must converge on.
func EncodeAdvance(target simtime.Time) []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, uint64(target))
	return buf
}

// DecodeAdvance deserializes an advance lease.
func DecodeAdvance(buf []byte) (simtime.Time, error) {
	d := snap.NewDec(buf)
	return read(d, simtime.Time(d.I64()))
}

// ---------------------------------------------------------------------------
// Errors-as-payload

// EncodeErrString packs an error message (FrameBootstrapAck and
// FramePartials prefix their payload with ok/err).
func EncodeErrString(msg string) []byte {
	buf := binary.AppendUvarint(nil, uint64(len(msg)))
	return append(buf, msg...)
}

// DecodeErrString unpacks an error message.
func DecodeErrString(buf []byte) (string, error) {
	d := snap.NewDec(buf)
	if msg := d.Bytes(); d.Err() == nil && len(msg) <= 1<<16 {
		return string(msg), nil
	}
	return "", ErrShort
}

// ---------------------------------------------------------------------------
// Bridge messages

// EncodeBridgeMsg serializes one wired-replica bridge message for
// cross-process delivery. The payload is the same wire-level encoding
// the in-process bridge carries.
func EncodeBridgeMsg(m radio.BridgeMsg) []byte {
	buf := make([]byte, 0, 4*binary.MaxVarintLen64+len(m.Payload))
	buf = binary.AppendVarint(buf, int64(m.Src))
	buf = binary.AppendVarint(buf, int64(m.Dst))
	buf = binary.AppendUvarint(buf, uint64(m.Mote))
	buf = binary.AppendUvarint(buf, uint64(m.Kind))
	return append(buf, m.Payload...)
}

// DecodeBridgeMsg deserializes a bridge message.
func DecodeBridgeMsg(buf []byte) (radio.BridgeMsg, error) {
	d := snap.NewDec(buf)
	return read(d, radio.BridgeMsg{
		Src:     radio.DomainID(d.Varint()),
		Dst:     radio.DomainID(d.Varint()),
		Mote:    radio.NodeID(atMost(d, 1<<32)),
		Kind:    radio.Kind(atMost(d, 1<<16)),
		Payload: append([]byte(nil), d.Rest()...),
	})
}

// ---------------------------------------------------------------------------
// Domain snapshots (migration, checkpointing, re-join)

// SnapshotChunkSize is how much of a domain blob one FrameSnapshotChunk
// carries — well under maxFrameLen, so a multi-megabyte domain streams
// as several frames instead of one oversized body.
const SnapshotChunkSize = 256 << 10

// SnapshotReq asks a site for hosted domain Domain's snapshot blob.
// Drop makes the site stop hosting the domain once the blob is sent.
type SnapshotReq struct {
	Domain int
	Drop   bool
}

// EncodeSnapshotReq serializes a snapshot request.
func EncodeSnapshotReq(r SnapshotReq) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+1)
	buf = binary.AppendUvarint(buf, uint64(r.Domain))
	drop := byte(0)
	if r.Drop {
		drop = 1
	}
	return append(buf, drop)
}

// DecodeSnapshotReq deserializes a snapshot request.
func DecodeSnapshotReq(buf []byte) (SnapshotReq, error) {
	d := snap.NewDec(buf)
	return read(d, SnapshotReq{Domain: int(atMost(d, 1<<20)), Drop: d.Bool()})
}

// SnapshotChunk is one ordered slice of a domain snapshot blob; the last
// slice carries Final. A one-chunk blob is legal (Final on the first).
type SnapshotChunk struct {
	Domain int
	Final  bool
	Data   []byte
}

// EncodeSnapshotChunk serializes a snapshot chunk.
func EncodeSnapshotChunk(c SnapshotChunk) []byte {
	buf := make([]byte, 0, binary.MaxVarintLen64+1+len(c.Data))
	buf = binary.AppendUvarint(buf, uint64(c.Domain))
	final := byte(0)
	if c.Final {
		final = 1
	}
	buf = append(buf, final)
	return append(buf, c.Data...)
}

// DecodeSnapshotChunk deserializes a snapshot chunk. Data is copied out
// of buf (receivers assemble chunks across many frames, outliving any
// reused read buffer).
func DecodeSnapshotChunk(buf []byte) (SnapshotChunk, error) {
	d := snap.NewDec(buf)
	return read(d, SnapshotChunk{
		Domain: int(atMost(d, 1<<20)),
		Final:  d.Bool(),
		Data:   append([]byte(nil), d.Rest()...),
	})
}
