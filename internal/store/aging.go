package store

// Age-tiered wavelet summarization for the flash archive.
//
// The paper promises graceful aging: old windows keep coarser but
// still-queryable summaries instead of going sparse. Uniform coarsening
// (coarsenRecords) ages by discarding — every group of factor records
// collapses to one mean, so a query over an old window sees 1/factor of
// its history. Wavelet aging keeps the whole time grid: a compacted
// segment's records are rewritten per mote as chunks of delta-of-delta
// coded timestamps plus the top-K Haar coefficients of their values, with
// K chosen by the segment's age level from a configurable tier schedule
// (full → 1/2 → 1/4 → 1/8 of the transform length). Reads reconstruct
// every original sample slot; the dropped-coefficient residual (plus the
// worst member's original bound) widens the reconstructed records' error
// bounds, so the guaranteed |V - truth| <= ErrBound contract survives
// aging.

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"
	"strings"

	"presto/internal/compress"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wavelet"
)

// Aging modes.
const (
	// AgingWavelet rewrites compacted segments as multi-resolution wavelet
	// summaries: all timestamps survive, value detail decays with age.
	AgingWavelet = "wavelet"
	// AgingUniform is the legacy behaviour: compaction merges each group
	// of factor consecutive records into one widened-bound mean.
	AgingUniform = "uniform"
)

// AgingPolicy configures how flash compaction ages old segments.
type AgingPolicy struct {
	// Mode selects the summarization strategy: AgingWavelet (default) or
	// AgingUniform.
	Mode string
	// Tiers[i] is the fraction of wavelet coefficients kept by a segment
	// reaching age level i+1 (level 0 is raw). Deeper levels reuse the
	// last tier. Fractions are caps: compaction shrinks further when the
	// output would not fit its block. Empty means DefaultAgingTiers.
	Tiers []float64
	// ChunkWindow caps how many records share one wavelet transform (and
	// one widened bound). Smaller chunks localize bound widening; larger
	// chunks amortize per-chunk overhead. 0 means 128.
	ChunkWindow int
}

// DefaultAgingTiers is the shipped tier schedule: half the coefficients at
// the first aging level, a quarter at the second, an eighth from then on.
func DefaultAgingTiers() []float64 { return []float64{0.5, 0.25, 0.125} }

// DefaultAgingPolicy returns the wavelet policy with the default schedule.
func DefaultAgingPolicy() AgingPolicy {
	return AgingPolicy{Mode: AgingWavelet, Tiers: DefaultAgingTiers(), ChunkWindow: 128}
}

// normalized fills zero-value fields with defaults.
func (p AgingPolicy) normalized() AgingPolicy {
	if p.Mode == "" {
		p.Mode = AgingWavelet
	}
	if len(p.Tiers) == 0 {
		p.Tiers = DefaultAgingTiers()
	}
	if p.ChunkWindow <= 0 {
		p.ChunkWindow = 128
	}
	return p
}

// Validate reports configuration errors.
func (p AgingPolicy) Validate() error {
	switch p.Mode {
	case "", AgingWavelet, AgingUniform:
	default:
		return fmt.Errorf("store: unknown aging mode %q (want %s or %s)", p.Mode, AgingWavelet, AgingUniform)
	}
	for i, f := range p.Tiers {
		if f <= 0 || f > 1 {
			return fmt.Errorf("store: aging tier %d fraction %v outside (0, 1]", i, f)
		}
	}
	if p.ChunkWindow < 0 {
		return fmt.Errorf("store: negative aging chunk window %d", p.ChunkWindow)
	}
	return nil
}

// fraction returns the coefficient fraction for a segment age level
// (level >= 1; level 0 segments are raw and never summarized).
func (p AgingPolicy) fraction(level int) float64 {
	if len(p.Tiers) == 0 {
		return 1
	}
	i := level - 1
	if i < 0 {
		i = 0
	}
	if i >= len(p.Tiers) {
		i = len(p.Tiers) - 1
	}
	return p.Tiers[i]
}

// ParseAgingPolicy parses the CLI form of a policy: "", "wavelet" or
// "uniform", optionally with a tier schedule after a colon — fractions
// ("wavelet:0.5,0.25,0.125") or ratios ("wavelet:1/2,1/4,1/8").
func ParseAgingPolicy(s string) (AgingPolicy, error) {
	pol := DefaultAgingPolicy()
	s = strings.TrimSpace(s)
	if s == "" {
		return pol, nil
	}
	mode, tiers, hasTiers := strings.Cut(s, ":")
	pol.Mode = mode
	if hasTiers {
		pol.Tiers = nil
		for _, part := range strings.Split(tiers, ",") {
			part = strings.TrimSpace(part)
			var f float64
			if num, den, ok := strings.Cut(part, "/"); ok {
				n, err1 := strconv.ParseFloat(num, 64)
				d, err2 := strconv.ParseFloat(den, 64)
				if err1 != nil || err2 != nil || d == 0 {
					return AgingPolicy{}, fmt.Errorf("store: bad aging tier ratio %q", part)
				}
				f = n / d
			} else {
				var err error
				f, err = strconv.ParseFloat(part, 64)
				if err != nil {
					return AgingPolicy{}, fmt.Errorf("store: bad aging tier %q", part)
				}
			}
			pol.Tiers = append(pol.Tiers, f)
		}
	}
	if err := pol.Validate(); err != nil {
		return AgingPolicy{}, err
	}
	return pol, nil
}

// String renders the policy in the form ParseAgingPolicy accepts.
func (p AgingPolicy) String() string {
	p = p.normalized()
	if p.Mode == AgingUniform {
		return AgingUniform
	}
	parts := make([]string, len(p.Tiers))
	for i, f := range p.Tiers {
		parts[i] = strconv.FormatFloat(f, 'g', -1, 64)
	}
	return p.Mode + ":" + strings.Join(parts, ",")
}

// ---------------------------------------------------------------------------
// Pyramid grid thinning
//
// When a compaction's wavelet output is timestamp-dominated (the
// coefficient fraction has hit its floor) the time grid itself must give
// ground. Thinning re-buckets records into age-octave cells: the youngest
// half of the span keeps cell width w, the next quarter 2w, the next
// eighth 4w, and so on — Ganesan et al.'s multi-resolution pyramid.
// Cell-mates merge into one widened-bound mean; a region already sparser
// than its cell width is untouched, so repeated compactions age history
// with the passage of time, not with the number of passes.

// mergeRecords collapses a group into one record at the group's earliest
// timestamp (time coverage never shrinks) carrying the group mean and a
// bound wide enough for the worst member: max |mean - V_i| + bound_i.
// The group may arrive in either time order.
func mergeRecords(g []Record) Record {
	var sum float64
	minT := g[0].T
	for _, r := range g {
		sum += r.V
		if r.T < minT {
			minT = r.T
		}
	}
	mean := sum / float64(len(g))
	var bound float64
	for _, r := range g {
		miss := math.Abs(mean - r.V)
		if b := miss + r.ErrBound; b > bound {
			bound = b
		}
	}
	return Record{T: minT, V: mean, ErrBound: bound}
}

// pyramidCell returns the age-octave cell of a record's age within a span
// at base width w: octave k covers ages [span(1-2^-k), span(1-2^-k-1))
// with cell width w<<k.
func pyramidCell(age, span, w simtime.Time) (octave int, idx simtime.Time) {
	k := 0
	for k < 40 && age >= span-span>>(k+1) {
		k++
	}
	start := span - span>>k
	width := w << k
	if width <= 0 {
		width = w
	}
	return k, (age - start) / width
}

// pyramidThin re-buckets one mote's time-sorted records into age-octave
// cells of base width w, merging cell-mates. Idempotent once density
// matches the pyramid.
func pyramidThin(recs []Record, w simtime.Time) []Record {
	if len(recs) < 2 || w <= 0 {
		return recs
	}
	newest := recs[len(recs)-1].T
	span := newest - recs[0].T
	if span <= 0 {
		return recs
	}
	out := make([]Record, 0, len(recs))
	var cur []Record
	curK, curIdx := -1, simtime.Time(-1)
	for i := len(recs) - 1; i >= 0; i-- { // newest first: ages ascend
		r := recs[i]
		k, idx := pyramidCell(newest-r.T, span, w)
		if k != curK || idx != curIdx {
			if len(cur) > 0 {
				out = append(out, mergeRecords(cur))
			}
			cur = cur[:0]
			curK, curIdx = k, idx
		}
		cur = append(cur, r)
	}
	if len(cur) > 0 {
		out = append(out, mergeRecords(cur))
	}
	// Built newest-cell-first; restore ascending time order.
	for l, r := 0, len(out)-1; l < r; l, r = l+1, r-1 {
		out[l], out[r] = out[r], out[l]
	}
	return out
}

// ---------------------------------------------------------------------------
// Wavelet chunk codec
//
// A wavelet-aged segment is a byte stream of chunks packed across its
// block's pages. Each chunk summarizes one mote's run of up to ChunkWindow
// records:
//
//	u32  mote
//	u32  n               records summarized (and reconstructed)
//	f32  bound           widened error bound carried by every reconstruction
//	     timestamps      compress.TimestampEncode of the n timestamps
//	     coefficients    wavelet.Sparse.Marshal (self-delimiting)
//
// The bound is max over members of |recon_i - V_i| + ErrBound_i, computed
// against the float32-quantized coefficients actually stored, then rounded
// up to the next float32 — every instant the chunk stands for is covered.

// chunkHeaderSize is the fixed prefix: mote, count, bound.
const chunkHeaderSize = 12

// chunkPlan is one chunk of the time grid being sized: a mote's run of at
// most ChunkWindow records, the Haar transform of its padded values, and
// the counts that fix its encoded size at every coefficient fraction.
type chunkPlan struct {
	m      radio.NodeID
	recs   []Record
	coef   []float64 // the transform, NextPow2(len(recs)) long
	tsLen  int       // bytes of the timestamps' compress.TimestampEncode
	c0     bool      // the overall average is non-zero
	detail int       // non-zero detail coefficients
}

// size is the chunk's encoded length at fraction frac, found without
// encoding: the header, the timestamps, and the sparse form of the
// coefficients TopK leaves non-zero — the average when it is non-zero and
// the largest k-1 details, of which only the non-zero ones count. A kept
// coefficient that rounds to a float32 zero still counts: Quantize keeps
// its index.
func (c *chunkPlan) size(frac float64) int {
	nnz := c.detail
	if k := wavelet.KeepCount(frac, len(c.coef)); k < len(c.coef) {
		nnz = min(k-1, c.detail)
	}
	if c.c0 {
		nnz++
	}
	return chunkHeaderSize + c.tsLen + wavelet.WireSize(nnz)
}

// agingScratch is a FlashBackend's reusable chunk encoder state. Each
// buffer holds one chunk at a time, so none outgrows one padded
// ChunkWindow; the backend belongs to one domain worker, so the scratch
// needs no lock.
type agingScratch struct {
	wv  wavelet.Scratch
	ts  []int64
	enc []byte // a chunk's encoded timestamps while it is sized
}

// times returns the records' timestamps in the scratch.
func (w *agingScratch) times(recs []Record) []int64 {
	w.ts = w.ts[:0]
	for _, r := range recs {
		w.ts = append(w.ts, int64(r.T))
	}
	return w.ts
}

// plan sizes one mote's time-sorted run of records as a chunk. It
// transforms their values in coef (NextPow2(len(recs)) long), padded by
// wavelet.Pad's repeat of the last sample, and counts what an encoding
// at any fraction is made of.
func (w *agingScratch) plan(m radio.NodeID, recs []Record, coef []float64) (chunkPlan, error) {
	n := len(recs)
	for i := range coef {
		coef[i] = recs[min(i, n-1)].V
	}
	if _, err := w.wv.Forward(coef); err != nil {
		return chunkPlan{}, err
	}
	c := chunkPlan{m: m, recs: recs, coef: coef, c0: coef[0] != 0}
	for _, x := range coef[1:] {
		if x != 0 {
			c.detail++
		}
	}
	var err error
	if w.enc, err = compress.TimestampEncode(w.enc[:0], w.times(recs)); err != nil {
		return chunkPlan{}, err
	}
	c.tsLen = len(w.enc)
	return c, nil
}

// summarizeChunk encodes a planned chunk at coefficient fraction frac,
// appending its bytes to dst and its reconstruction to out. It keeps the
// top coefficients in the plan's own transform, so a plan encodes once.
func (w *agingScratch) summarizeChunk(dst []byte, out []flashRec, c *chunkPlan, frac float64) ([]byte, []flashRec, error) {
	n := len(c.recs)
	w.wv.TopK(c.coef, wavelet.KeepCount(frac, len(c.coef)))
	sp := w.wv.Sparse(c.coef, n)
	sp.Quantize() // bound must cover what the wire bytes reconstruct
	recon, err := w.wv.Decompress(sp)
	if err != nil {
		return dst, out, err
	}
	var bound float64
	for i, r := range c.recs {
		miss := math.Abs(recon[i] - r.V)
		if b := miss + r.ErrBound; b > bound {
			bound = b
		}
	}
	wb := wireBound(0, bound) // bound rounded up to a float32

	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.m))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(wb))
	if dst, err = compress.TimestampEncode(dst, w.times(c.recs)); err != nil {
		return dst, out, err
	}
	dst = sp.AppendMarshal(dst)
	for i, r := range c.recs {
		out = append(out, flashRec{m: c.m, r: Record{T: r.T, V: recon[i], ErrBound: float64(wb)}})
	}
	return dst, out, nil
}

// decodeChunk decodes the chunk at the head of buf into the read state's
// buffers: its mote, its timestamps with their reconstructed values (both
// valid until the next decode), the widened bound every reconstruction
// carries, and the bytes after the chunk.
func (rr *rangeRead) decodeChunk(buf []byte) (m radio.NodeID, ts []int64, recon []float64, bound float64, rest []byte, err error) {
	if len(buf) < chunkHeaderSize {
		return 0, nil, nil, 0, nil, fmt.Errorf("store: truncated wavelet chunk header (%d bytes)", len(buf))
	}
	m = radio.NodeID(binary.LittleEndian.Uint32(buf[0:]))
	n := int(binary.LittleEndian.Uint32(buf[4:]))
	bound = float64(math.Float32frombits(binary.LittleEndian.Uint32(buf[8:])))
	if n < 0 || n > len(buf)-chunkHeaderSize { // every timestamp takes a byte
		return 0, nil, nil, 0, nil, fmt.Errorf("store: implausible wavelet chunk count %d", n)
	}
	if rr.ts, rest, err = compress.TimestampDecode(rr.ts[:0], buf[chunkHeaderSize:], n); err != nil {
		return 0, nil, nil, 0, nil, err
	}
	sp, spLen, err := rr.wv.UnmarshalSparsePrefix(rest)
	if err != nil {
		return 0, nil, nil, 0, nil, err
	}
	if sp.N != n || sp.PaddedN > 2*n { // checked before Decompress sizes a transform by it
		return 0, nil, nil, 0, nil, fmt.Errorf("store: wavelet chunk reconstructs %d of %d records, header says %d", sp.N, sp.PaddedN, n)
	}
	if recon, err = rr.wv.Decompress(sp); err != nil {
		return 0, nil, nil, 0, nil, err
	}
	return m, rr.ts, recon, bound, rest[spLen:], nil
}
