// Package wire defines the mote↔proxy message protocol: message kinds and
// compact payload encodings. Every byte encoded here is charged to the
// radio energy model, so encodings are deliberately tight (varint deltas,
// float32 values) — the same engineering a real mote protocol would use.
// Every decoder reads through snap.Dec, and a buffer too short for the
// fields it must hold fails with ErrShort.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"presto/internal/compress"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/snap"
)

// Message kinds.
const (
	// KindPush carries one observation, mote → proxy (model failure).
	KindPush radio.Kind = iota + 1
	// KindBatch carries a regular batch of observations, mote → proxy.
	KindBatch
	// KindModelUpdate ships model parameters + delta, proxy → mote.
	KindModelUpdate
	// KindPullReq requests archived records, proxy → mote.
	KindPullReq
	// KindPullResp answers a pull, mote → proxy.
	KindPullResp
	// KindConfig retunes mote operation, proxy → mote.
	KindConfig
	// KindEvents carries a batch of irregularly-timed observations
	// (batched model failures), mote → proxy. Payload is a PullResp with
	// ID 0.
	KindEvents
)

// Errors.
var ErrShort = errors.New("wire: short buffer")

// read finishes a decode on d: v, or ErrShort if any read ran past the
// end of the buffer or d failed a range check.
func read[T any](d *snap.Dec, v T) (T, error) {
	if d.Err() != nil {
		var zero T
		return zero, ErrShort
	}
	return v, nil
}

// Push is a single-record push.
type Push struct {
	T simtime.Time
	V float64
}

// EncodePush serializes a push (12 bytes).
func EncodePush(p Push) []byte {
	buf := make([]byte, 12)
	binary.LittleEndian.PutUint64(buf, uint64(p.T))
	binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(float32(p.V)))
	return buf
}

// DecodePush deserializes a push.
func DecodePush(buf []byte) (Push, error) {
	d := snap.NewDec(buf)
	return read(d, Push{T: simtime.Time(d.I64()), V: float64(d.F32())})
}

// Batch is a regularly-spaced run of observations compressed with one of
// the compress codecs.
type Batch struct {
	Start    simtime.Time
	Interval simtime.Time
	Values   []float64
	// ErrBound is the per-sample reconstruction error bound implied by
	// the codec that carried the values (set by DecodeBatch): 0 for raw,
	// quantum/2 for delta, +Inf for lossy codecs without a wire-visible
	// bound.
	ErrBound float64
}

// EncodeBatch serializes a batch using the given codec.
func EncodeBatch(b Batch, codec compress.Batch) ([]byte, error) {
	inner, err := codec.Encode(b.Values)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 16+len(inner))
	binary.LittleEndian.PutUint64(buf, uint64(b.Start))
	binary.LittleEndian.PutUint64(buf[8:], uint64(b.Interval))
	copy(buf[16:], inner)
	return buf, nil
}

// DecodeBatch deserializes a batch (any codec; self-describing).
func DecodeBatch(buf []byte) (Batch, error) {
	d := snap.NewDec(buf)
	b, err := read(d, Batch{Start: simtime.Time(d.I64()), Interval: simtime.Time(d.I64())})
	if err != nil {
		return Batch{}, err
	}
	inner := d.Rest()
	if b.Values, err = compress.Decode(inner); err != nil {
		return Batch{}, fmt.Errorf("wire: batch payload: %w", err)
	}
	b.ErrBound = compress.DecodeBound(inner)
	return b, nil
}

// ModelUpdate ships trained model parameters and the push threshold.
type ModelUpdate struct {
	Delta  float64
	Params []byte // model.Marshal() output
}

// EncodeModelUpdate serializes a model update.
func EncodeModelUpdate(m ModelUpdate) []byte {
	buf := make([]byte, 8+len(m.Params))
	binary.LittleEndian.PutUint64(buf, math.Float64bits(m.Delta))
	copy(buf[8:], m.Params)
	return buf
}

// DecodeModelUpdate deserializes a model update.
func DecodeModelUpdate(buf []byte) (ModelUpdate, error) {
	d := snap.NewDec(buf)
	return read(d, ModelUpdate{Delta: d.F64(), Params: append([]byte(nil), d.Rest()...)})
}

// PullReq asks for archived records in [T0, T1].
type PullReq struct {
	ID     uint32
	T0, T1 simtime.Time
	// Quantum, when positive, allows the mote to delta-quantize the
	// response (lossy pull for low-precision queries).
	Quantum float64
}

// EncodePullReq serializes a pull request (24 bytes).
func EncodePullReq(r PullReq) []byte {
	buf := make([]byte, 24)
	binary.LittleEndian.PutUint32(buf, r.ID)
	binary.LittleEndian.PutUint64(buf[4:], uint64(r.T0))
	binary.LittleEndian.PutUint64(buf[12:], uint64(r.T1))
	binary.LittleEndian.PutUint32(buf[20:], math.Float32bits(float32(r.Quantum)))
	return buf
}

// DecodePullReq deserializes a pull request.
func DecodePullReq(buf []byte) (PullReq, error) {
	d := snap.NewDec(buf)
	return read(d, PullReq{ID: d.U32(), T0: simtime.Time(d.I64()), T1: simtime.Time(d.I64()), Quantum: float64(d.F32())})
}

// Rec is one irregularly-timed record in a pull response.
type Rec struct {
	T simtime.Time
	V float64
}

// PullResp answers a pull request with irregularly spaced records (the
// archive may have aged regions at coarse resolution).
type PullResp struct {
	ID      uint32
	Records []Rec
	// ErrBound is the worst-case per-value error introduced by lossy
	// encoding (0 for exact responses).
	ErrBound float64
}

// EncodePullResp serializes records as (varint dt, f32 v) pairs: dt is the
// nanosecond delta from the previous record (first record delta from 0).
func EncodePullResp(r PullResp) []byte {
	buf := make([]byte, 0, 12+9*len(r.Records))
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], r.ID)
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(r.Records)))
	binary.LittleEndian.PutUint32(hdr[8:], math.Float32bits(float32(r.ErrBound)))
	buf = append(buf, hdr[:]...)
	prev := simtime.Time(0)
	for _, rec := range r.Records {
		buf = binary.AppendVarint(buf, int64(rec.T-prev))
		prev = rec.T
		var v [4]byte
		binary.LittleEndian.PutUint32(v[:], math.Float32bits(float32(rec.V)))
		buf = append(buf, v[:]...)
	}
	return buf
}

// DecodePullResp deserializes a pull response.
func DecodePullResp(buf []byte) (PullResp, error) {
	d := snap.NewDec(buf)
	id, count := d.U32(), int(d.U32())
	r, err := read(d, PullResp{ID: id, ErrBound: float64(d.F32())})
	if err != nil {
		return PullResp{}, err
	}
	if count > 1<<26 {
		return PullResp{}, fmt.Errorf("wire: implausible record count %d", count)
	}
	prev := simtime.Time(0)
	for i := 0; i < count; i++ {
		prev += simtime.Time(d.Varint())
		r.Records = append(r.Records, Rec{T: prev, V: float64(d.F32())})
		if d.Err() != nil {
			return PullResp{}, fmt.Errorf("wire: truncated pull response at record %d", i)
		}
	}
	return r, nil
}

// Config retunes a mote. Zero-valued fields mean "leave unchanged", except
// Delta where NaN means unchanged (0 is a meaningful threshold).
type Config struct {
	LPLInterval    simtime.Time // radio check interval
	SampleInterval simtime.Time // sensing period
	BatchInterval  simtime.Time // 0 = immediate push
	BatchMode      uint8        // compress.Mode + 1; 0 = unchanged
	Quantum        float64      // delta codec quantum (0 = unchanged)
	Threshold      float64      // wavelet threshold (0 = unchanged)
	StreamAll      uint8        // 1 = push every sample, 2 = model-driven, 0 = unchanged
}

// EncodeConfig serializes a config (49 bytes).
func EncodeConfig(c Config) []byte {
	buf := make([]byte, 49)
	binary.LittleEndian.PutUint64(buf[0:], uint64(c.LPLInterval))
	binary.LittleEndian.PutUint64(buf[8:], uint64(c.SampleInterval))
	binary.LittleEndian.PutUint64(buf[16:], uint64(c.BatchInterval))
	buf[24] = c.BatchMode
	binary.LittleEndian.PutUint64(buf[25:], math.Float64bits(c.Quantum))
	binary.LittleEndian.PutUint64(buf[33:], math.Float64bits(c.Threshold))
	buf[41] = c.StreamAll
	// 7 spare bytes for future fields.
	return buf
}

// DecodeConfig deserializes a config.
// The 7 spare bytes must be present even though nothing reads them yet.
func DecodeConfig(buf []byte) (Config, error) {
	if len(buf) < 49 {
		return Config{}, ErrShort
	}
	d := snap.NewDec(buf)
	return read(d, Config{
		LPLInterval:    simtime.Time(d.I64()),
		SampleInterval: simtime.Time(d.I64()),
		BatchInterval:  simtime.Time(d.I64()),
		BatchMode:      d.U8(),
		Quantum:        d.F64(),
		Threshold:      d.F64(),
		StreamAll:      d.U8(),
	})
}
