package query

// Binary codecs for the cluster wire format: resolved mote lists,
// bound specs, partial aggregates and per-mote results — the payloads of
// scatter and partial frames between a cluster coordinator and its
// sites. They follow internal/wire's tight-encoding discipline (varint
// deltas for ids and timestamps, no self-describing framing) with one
// deliberate exception: values and error bounds are float64, not the
// radio path's float32. Partial sums feed the merge stage's bound
// arithmetic, and a cluster run must answer bit-identically to the same
// deployment in one process — a few extra bytes per frame are irrelevant
// on the wired backbone next to a radio rendezvous.
//
// Selectors never cross the wire. A predicate is a closure and cannot be
// serialized; the coordinator resolves every selector to an explicit
// mote list before scattering, which also pins the target set — every
// site sees exactly the motes the coordinator chose, not its own
// re-evaluation of the predicate.
//
// Like every decoder that parses bytes from another process, these must
// error on arbitrary input, never panic, and allocate no more than the
// input's length warrants: they read through snap.Dec, whose counts never
// exceed the bytes left (covered by the wire package's garbage-robustness
// suite and fuzz targets).

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"time"

	"presto/internal/cache"
	"presto/internal/obs"
	"presto/internal/proxy"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/snap"
)

// Decode-side sanity bounds: a frame claiming more elements than these is
// garbage (or hostile), not a deployment we run.
const (
	maxCodecMotes   = 1 << 20
	maxCodecParts   = 1 << 16
	maxCodecResults = 1 << 20
	maxCodecEntries = 1 << 26
	maxCodecBins    = 1 << 22
)

// count reads an element count no larger than max (and, like every
// count, no larger than the bytes left).
func count(d *snap.Dec, max int) int {
	n := d.Count()
	if n > max {
		d.Fail()
		return 0
	}
	return n
}

// finish reports a failed decode, or bytes left after the named payload.
func finish(d *snap.Dec, what string) error {
	if err := d.Err(); err != nil {
		return fmt.Errorf("query: malformed %s payload: %w", what, err)
	}
	if d.Len() != 0 {
		return fmt.Errorf("query: %d trailing bytes after %s payload", d.Len(), what)
	}
	return nil
}

func appendF64(buf []byte, v float64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	return append(buf, b[:]...)
}

// ---------------------------------------------------------------------------
// Mote lists

// EncodeMotes appends a resolved mote list as a count plus varint deltas
// between consecutive ids (ascending lists — the resolver's output —
// encode in ~1 byte per mote).
func EncodeMotes(buf []byte, ids []radio.NodeID) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ids)))
	prev := int64(0)
	for _, id := range ids {
		buf = binary.AppendVarint(buf, int64(id)-prev)
		prev = int64(id)
	}
	return buf
}

// decodeMotes reads a mote list.
func decodeMotes(d *snap.Dec) []radio.NodeID {
	n := count(d, maxCodecMotes)
	ids := make([]radio.NodeID, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += d.Varint()
		ids = append(ids, radio.NodeID(prev))
	}
	return ids
}

// ---------------------------------------------------------------------------
// Specs

// AppendScatterHead packs the window-independent part of a scatter
// payload: the spec fields minus the concrete [T0, T1] window, plus the
// resolved target motes. The window goes last (AppendScatterWindow).
func AppendScatterHead(buf []byte, spec Spec, motes []radio.NodeID) []byte {
	buf = append(buf, byte(spec.Type), byte(spec.Agg))
	buf = appendF64(buf, spec.Precision)
	buf = binary.AppendVarint(buf, int64(spec.Deadline))
	buf = binary.AppendVarint(buf, int64(spec.MaxStaleness))
	return EncodeMotes(buf, motes)
}

// AppendScatterWindow appends one round's concrete window (delta-encoded
// span), completing a single-round scatter payload.
func AppendScatterWindow(buf []byte, t0, t1 simtime.Time) []byte {
	buf = binary.AppendVarint(buf, int64(t0))
	return binary.AppendVarint(buf, int64(t1-t0))
}

// EncodeScatter packs a bound spec (Trailing already resolved — see
// Spec.BindWindow) and its resolved target motes: the payload of one
// cluster scatter frame. Continuous scheduling stays at the coordinator;
// a site only ever sees concrete rounds.
func EncodeScatter(spec Spec, motes []radio.NodeID) []byte {
	buf := make([]byte, 0, 64+2*len(motes))
	buf = AppendScatterHead(buf, spec, motes)
	return AppendScatterWindow(buf, spec.T0, spec.T1)
}

// decodeScatterHead reads the shared head: spec sans window, plus motes.
func decodeScatterHead(d *snap.Dec) (Spec, []radio.NodeID) {
	spec := Spec{
		Type:         Type(d.U8()),
		Agg:          AggKind(d.U8()),
		Precision:    d.F64(),
		Deadline:     time.Duration(d.Varint()),
		MaxStaleness: time.Duration(d.Varint()),
	}
	return spec, decodeMotes(d)
}

// AppendScatterTrace appends the optional trace-context section to a
// single-round scatter payload (protocol v4): a marker byte plus the
// coordinator's trace id. An untraced scatter appends nothing at all —
// the payload stays byte-identical to protocol v3, so tracing that is
// off costs zero wire bytes.
func AppendScatterTrace(buf []byte, traceID uint64) []byte {
	buf = append(buf, 1)
	return binary.AppendUvarint(buf, traceID)
}

// DecodeScatter unpacks a scatter payload. The spec is re-validated: a
// frame from another process is untrusted input. traceID is nonzero
// when the coordinator attached trace context (protocol v4): the site
// must gather under a local trace and return the route section in its
// partials reply.
func DecodeScatter(buf []byte) (Spec, []radio.NodeID, uint64, error) {
	d := snap.NewDec(buf)
	spec, motes := decodeScatterHead(d)
	spec.T0 = simtime.Time(d.Varint())
	spec.T1 = spec.T0 + simtime.Time(d.Varint())
	var traceID uint64
	if d.Err() == nil && d.Len() != 0 {
		if d.U8() != 1 {
			d.Fail()
		}
		if traceID = d.Uvarint(); traceID == 0 {
			d.Fail()
		}
	}
	if err := finish(d, "scatter"); err != nil {
		return Spec{}, nil, 0, err
	}
	if err := spec.Validate(); err != nil {
		return Spec{}, nil, 0, err
	}
	if len(motes) == 0 {
		return Spec{}, nil, 0, ErrNoMotes
	}
	return spec, motes, traceID, nil
}

// ---------------------------------------------------------------------------
// Partials

// appendPartial encodes one partial aggregate. Histogram bins are walked
// in ascending order (delta-encoded), so equal partials encode equally.
func appendPartial(buf []byte, p Partial) []byte {
	buf = binary.AppendUvarint(buf, uint64(p.Count))
	buf = appendF64(buf, p.Sum)
	buf = appendF64(buf, p.Min)
	buf = appendF64(buf, p.Max)
	buf = appendF64(buf, p.SumErr)
	buf = appendF64(buf, p.MaxErr)
	buf = appendF64(buf, p.BinWidth)
	bins := make([]int64, 0, len(p.Hist))
	for b := range p.Hist {
		bins = append(bins, b)
	}
	for i := 1; i < len(bins); i++ { // insertion sort: bin counts are small
		for j := i; j > 0 && bins[j] < bins[j-1]; j-- {
			bins[j], bins[j-1] = bins[j-1], bins[j]
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(bins)))
	prev := int64(0)
	for _, b := range bins {
		buf = binary.AppendVarint(buf, b-prev)
		prev = b
		buf = binary.AppendUvarint(buf, uint64(p.Hist[b]))
	}
	return buf
}

func decodePartial(d *snap.Dec) Partial {
	p := Partial{
		Count:    int(d.Uvarint()),
		Sum:      d.F64(),
		Min:      d.F64(),
		Max:      d.F64(),
		SumErr:   d.F64(),
		MaxErr:   d.F64(),
		BinWidth: d.F64(),
	}
	n := count(d, maxCodecBins)
	if n > 0 {
		// Lazy histogram: only Mode partials carry bins, so the common
		// aggregates decode without the map allocation.
		p.Hist = make(map[int64]int, n)
	}
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += d.Varint()
		c := d.Uvarint()
		if c > maxCodecEntries {
			d.Fail()
			return Partial{}
		}
		p.Hist[prev] = int(c)
	}
	if p.Count < 0 || p.Count > maxCodecEntries {
		d.Fail()
	}
	return p
}

// appendResult encodes one completed per-mote result. Only what the
// merge presents survives: the mote, provenance, issue/done instants and
// the entries. The receiving side rebuilds Result.Query from the round's
// spec — it is the same per-mote materialization QueryFor produces.
func appendResult(buf []byte, res Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(res.Query.Mote))
	buf = append(buf, byte(res.Answer.Source))
	buf = binary.AppendVarint(buf, int64(res.Answer.IssuedAt))
	buf = binary.AppendVarint(buf, int64(res.Answer.DoneAt))
	buf = binary.AppendUvarint(buf, uint64(len(res.Answer.Entries)))
	prev := simtime.Time(0)
	for _, e := range res.Answer.Entries {
		buf = binary.AppendVarint(buf, int64(e.T-prev))
		prev = e.T
		buf = appendF64(buf, e.V)
		buf = appendF64(buf, e.ErrBound)
		buf = append(buf, byte(e.Source))
	}
	return buf
}

func decodeResult(d *snap.Dec, spec Spec) Result {
	mote := radio.NodeID(d.Uvarint())
	res := Result{Query: spec.QueryFor(mote)}
	res.Answer = proxy.Answer{
		Mote:     mote,
		Source:   proxy.Source(d.U8()),
		IssuedAt: simtime.Time(d.Varint()),
		DoneAt:   simtime.Time(d.Varint()),
	}
	n := count(d, maxCodecEntries)
	prev := simtime.Time(0)
	for i := 0; i < n; i++ {
		prev += simtime.Time(d.Varint())
		e := cache.Entry{T: prev, V: d.F64(), ErrBound: d.F64(), Source: cache.Source(d.U8())}
		if d.Err() != nil {
			return Result{}
		}
		res.Answer.Entries = append(res.Answer.Entries, e)
	}
	return res
}

// EncodeRoundPartials packs one site's contribution to a round: its
// domains' RoundPartials, in the order given — the payload of one
// partials frame. Push-down in byte form: however many motes and entries
// a site's domains folded, what crosses the wire is a handful of
// partials (plus per-mote results for Now/Past specs, which have no
// smaller honest representation).
func EncodeRoundPartials(parts []RoundPartial) []byte {
	return AppendRoundPartials(make([]byte, 0, 96*len(parts)), parts)
}

// AppendRoundPartials is EncodeRoundPartials into a caller-supplied
// buffer — the pooled-arena encode path.
func AppendRoundPartials(buf []byte, parts []RoundPartial) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(parts)))
	for _, p := range parts {
		buf = binary.AppendUvarint(buf, uint64(p.Domain))
		buf = appendPartial(buf, p.Partial)
		buf = binary.AppendUvarint(buf, uint64(p.Failed))
		buf = binary.AppendUvarint(buf, uint64(len(p.Results)))
		for _, res := range p.Results {
			buf = appendResult(buf, res)
		}
	}
	return buf
}

// decodeRoundPartialsFrom reads one round's partials section (no
// trailing-bytes check — batch payloads continue after it).
func decodeRoundPartialsFrom(d *snap.Dec, spec Spec) []RoundPartial {
	n := count(d, maxCodecParts)
	parts := make([]RoundPartial, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		p := RoundPartial{Domain: int(d.Uvarint()), Partial: decodePartial(d), Failed: int(d.Uvarint())}
		nr := count(d, maxCodecResults)
		for j := 0; j < nr && d.Err() == nil; j++ {
			p.Results = append(p.Results, decodeResult(d, spec))
		}
		if p.Failed < 0 || p.Failed > maxCodecMotes || p.Domain > maxCodecParts {
			d.Fail()
		}
		parts = append(parts, p)
	}
	return parts
}

// DecodeRoundPartials unpacks a partials payload. Each Result.Query is
// rebuilt from spec (the round the coordinator scattered), so the caller
// must pass the same bound spec it encoded into the scatter frame.
func DecodeRoundPartials(spec Spec, buf []byte) ([]RoundPartial, error) {
	d := snap.NewDec(buf)
	parts := decodeRoundPartialsFrom(d, spec)
	if err := finish(d, "partials"); err != nil {
		return nil, err
	}
	return parts, nil
}

// AppendTraceRoutes appends a traced round's route section after the
// partials: each target mote's routing decision (replica, archive,
// model, cache, rendezvous, stale-bypass …) recorded by the site's
// local trace, mote delta-encoded like every other id list. Only sent
// in reply to a scatter carrying trace context — an untraced reply is
// byte-identical to protocol v3.
func AppendTraceRoutes(buf []byte, routes []obs.Route) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(routes)))
	prev := int64(0)
	for _, rt := range routes {
		buf = binary.AppendVarint(buf, rt.Mote-prev)
		prev = rt.Mote
		buf = binary.AppendUvarint(buf, uint64(rt.Domain))
		buf = append(buf, byte(rt.Kind))
	}
	return buf
}

// decodeTraceRoutes reads a route section.
func decodeTraceRoutes(d *snap.Dec) []obs.Route {
	n := count(d, maxCodecResults)
	routes := make([]obs.Route, 0, n)
	prev := int64(0)
	for i := 0; i < n; i++ {
		prev += d.Varint()
		dom := d.Uvarint()
		k := d.U8()
		if dom > maxCodecParts {
			d.Fail()
		}
		if d.Err() != nil {
			return nil
		}
		routes = append(routes, obs.Route{Mote: prev, Domain: int(dom), Kind: obs.RouteKind(k)})
	}
	return routes
}

// DecodeRoundPartialsTraced unpacks a partials payload that answers a
// traced scatter: the partials, then the mandatory route section. The
// coordinator knows which replies are traced (it attached the trace
// context), so there is no in-band flag to spoof.
func DecodeRoundPartialsTraced(spec Spec, buf []byte) ([]RoundPartial, []obs.Route, error) {
	d := snap.NewDec(buf)
	parts := decodeRoundPartialsFrom(d, spec)
	routes := decodeTraceRoutes(d)
	if err := finish(d, "traced partials"); err != nil {
		return nil, nil, err
	}
	return parts, routes, nil
}

// ---------------------------------------------------------------------------
// Encode arenas

// maxPooledArena bounds the capacity an arena may retain in the pool —
// a one-off giant frame must not pin megabytes.
const maxPooledArena = 1 << 16

// arenaPool recycles encode buffers for frame payloads across queries
// and rounds.
var arenaPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 2048); return &b },
}

// GetArena returns a pooled length-zero encode buffer. Hand it back with
// PutArena only once nothing can still reference its bytes: a TCP conn
// copies the payload out during Send, but a loopback frame retains the
// payload by reference for the life of the frame — loopback senders must
// simply never recycle (see cluster.SendCopier).
func GetArena() *[]byte {
	return arenaPool.Get().(*[]byte)
}

// PutArena recycles an encode buffer obtained from GetArena.
func PutArena(b *[]byte) {
	if cap(*b) > maxPooledArena {
		return
	}
	*b = (*b)[:0]
	arenaPool.Put(b)
}
