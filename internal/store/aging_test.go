package store

// Aging correctness: the honest-bounds contract (an aged record's error
// bound covers the true value at its timestamp, however many summarization
// passes it survived), the wavelet chunk codec round trip, and the
// coarsening bound audit — including trailing groups smaller than the
// factor.

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"presto/internal/flash"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wavelet"
)

func TestCoarsenBoundPropertyIncludingPartialGroups(t *testing.T) {
	// Property: for every group — including a trailing group smaller than
	// the factor — the coarse record's bound covers every merged member:
	// bound >= |mean - V_i| + bound_i.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(40)
		factor := 2 + rng.Intn(9)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = Record{
				T:        simtime.Time(i) * simtime.Minute,
				V:        rng.NormFloat64() * 20,
				ErrBound: rng.Float64() * 2,
			}
		}
		out := coarsenRecords(append([]Record(nil), recs...), factor)
		want := (n + factor - 1) / factor
		if len(out) != want {
			t.Fatalf("trial %d: %d groups, want %d (n=%d factor=%d)", trial, len(out), want, n, factor)
		}
		for gi, g := range out {
			lo := gi * factor
			hi := lo + factor
			if hi > n {
				hi = n
			}
			if g.T != recs[lo].T {
				t.Fatalf("trial %d group %d: timestamp %v, want group-first %v", trial, gi, g.T, recs[lo].T)
			}
			for _, r := range recs[lo:hi] {
				if math.Abs(g.V-r.V)+r.ErrBound > g.ErrBound+1e-12 {
					t.Fatalf("trial %d group %d (size %d): member %+v outside bound %v of mean %v",
						trial, gi, hi-lo, r, g.ErrBound, g.V)
				}
			}
		}
	}
}

func TestWaveletChunkRoundTrip(t *testing.T) {
	// plan -> summarizeChunk -> decodeChunk must return every timestamp exactly,
	// and each reconstructed value must sit within the chunk bound of the
	// original — which in turn must be no tighter than any member's own
	// bound.
	rng := rand.New(rand.NewSource(5))
	var rr rangeRead // one decoder for every fraction: its buffers are reused
	for _, frac := range []float64{1, 0.5, 0.25, 0.125, 0.01} {
		var recs []Record
		tt := simtime.Time(0)
		for i := 0; i < 100; i++ {
			// Irregular grid: mostly 1-minute steps with occasional gaps.
			tt += simtime.Minute
			if rng.Intn(10) == 0 {
				tt += simtime.Time(rng.Intn(120)) * simtime.Minute
			}
			recs = append(recs, Record{T: tt, V: 20 + 5*math.Sin(float64(i)/7) + rng.NormFloat64(), ErrBound: rng.Float64() / 2})
		}
		var w agingScratch
		c, err := w.plan(7, recs, make([]float64, wavelet.NextPow2(len(recs))))
		if err != nil {
			t.Fatal(err)
		}
		size := c.size(frac)
		chunk, enc, err := w.summarizeChunk(nil, nil, &c, frac)
		if err != nil {
			t.Fatal(err)
		}
		if len(chunk) != size {
			t.Fatalf("frac %v: chunk encodes to %d bytes, plan sized %d", frac, len(chunk), size)
		}
		m, ts, recon, bound, rest, err := rr.decodeChunk(chunk)
		if err != nil || len(rest) != 0 {
			t.Fatalf("decode: %v, %d bytes left", err, len(rest))
		}
		var got []flashRec
		for i, t := range ts {
			got = append(got, flashRec{m: m, r: Record{T: simtime.Time(t), V: recon[i], ErrBound: bound}})
		}
		if len(got) != len(recs) {
			t.Fatalf("frac %v: %d records decoded, want %d", frac, len(got), len(recs))
		}
		for i, fr := range got {
			if fr.m != 7 {
				t.Fatalf("frac %v: record %d mote %d, want 7", frac, i, fr.m)
			}
			if fr.r.T != recs[i].T {
				t.Fatalf("frac %v: record %d timestamp %v, want %v", frac, i, fr.r.T, recs[i].T)
			}
			if fr.r != enc[i].r {
				t.Fatalf("frac %v: decode %+v disagrees with encoder's reconstruction %+v", frac, fr.r, enc[i].r)
			}
			if math.Abs(fr.r.V-recs[i].V)+recs[i].ErrBound > fr.r.ErrBound+1e-12 {
				t.Fatalf("frac %v: record %d recon %v bound %v misses original %+v",
					frac, i, fr.r.V, fr.r.ErrBound, recs[i])
			}
			if fr.r.ErrBound < recs[i].ErrBound {
				t.Fatalf("frac %v: record %d bound %v tighter than the raw record's %v",
					frac, i, fr.r.ErrBound, recs[i].ErrBound)
			}
		}
		// Tighter tiers may not widen, but full resolution must be
		// near-lossless (float32 quantization only).
		if frac == 1 {
			for i, fr := range got {
				if math.Abs(fr.r.V-recs[i].V) > 1e-3 {
					t.Fatalf("full-fraction recon %v far from original %v at %d", fr.r.V, recs[i].V, i)
				}
			}
		}
	}
}

// floodBackend appends a deterministic 2-mote stream of multiples of the
// device capacity, returning the original value and bound per (mote, T).
func floodBackend(t *testing.T, fb *FlashBackend, geo flash.Geometry, times int) map[radio.NodeID]map[simtime.Time]Record {
	t.Helper()
	perPage := geo.PageSize / flashRecSize
	total := times * perPage * geo.PagesPerBlock * geo.NumBlocks
	rng := rand.New(rand.NewSource(23))
	orig := map[radio.NodeID]map[simtime.Time]Record{1: {}, 2: {}}
	for i := 0; i < total; i++ {
		m := radio.NodeID(1 + i%2)
		r := Record{
			T:        simtime.Time(i) * simtime.Minute,
			V:        18 + 6*math.Sin(float64(i)/400) + rng.NormFloat64()/4,
			ErrBound: float64(i%3) / 10, // mix of exact and lossy records
		}
		if err := fb.Append(m, r); err != nil {
			t.Fatal(err)
		}
		orig[m][r.T] = r
	}
	return orig
}

func TestAgedBoundsHonestAfterManyCompactions(t *testing.T) {
	// The guaranteed-precision contract must survive aging in both modes:
	// every record the backend returns — raw, uniform-coarsened, or
	// wavelet-reconstructed across several levels — carries a bound wide
	// enough to cover the original value recorded at that timestamp plus
	// that record's own bound, and never a bound tighter than the raw
	// record it stands for.
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	agingModes(t, geo, func(t *testing.T, fb *FlashBackend) {
		orig := floodBackend(t, fb, geo, 6)
		if fb.Stats().Compactions < 2 {
			t.Fatalf("only %d compactions; the test needs multi-level aging", fb.Stats().Compactions)
		}
		for _, m := range []radio.NodeID{1, 2} {
			recs, err := fb.QueryRange(m, 0, simtime.Time(1<<62))
			if err != nil {
				t.Fatal(err)
			}
			if len(recs) == 0 {
				t.Fatalf("mote %d: no records survived", m)
			}
			for _, r := range recs {
				o, ok := orig[m][r.T]
				if !ok {
					t.Fatalf("mote %d: invented timestamp %v", m, r.T)
				}
				if math.Abs(r.V-o.V)+o.ErrBound > r.ErrBound+1e-9 {
					t.Fatalf("mote %d at %v: recon %v bound %v cannot cover original %v (bound %v)",
						m, r.T, r.V, r.ErrBound, o.V, o.ErrBound)
				}
				if r.ErrBound+1e-9 < o.ErrBound {
					t.Fatalf("mote %d at %v: aged bound %v tighter than raw bound %v",
						m, r.T, r.ErrBound, o.ErrBound)
				}
			}
		}
	})
}

func TestWaveletAgingDenserThanUniform(t *testing.T) {
	// The acceptance property: at equal device occupancy (same geometry,
	// same append stream, compaction at the same trigger), wavelet aging
	// answers old-window PAST queries at measurably denser effective
	// resolution than uniform coarsening, because it spends its bytes on
	// value detail instead of whole records.
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	perPage := geo.PageSize / flashRecSize
	total := 6 * perPage * geo.PagesPerBlock * geo.NumBlocks
	oldWindow := simtime.Time(total/4) * simtime.Minute

	density := map[string]int{}
	occupancy := map[string]int{}
	for _, mode := range []string{AgingUniform, AgingWavelet} {
		fb, err := NewFlashBackendPolicy(geo, AgingPolicy{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		floodBackend(t, fb, geo, 6)
		recs, err := fb.QueryRange(1, 0, oldWindow)
		if err != nil {
			t.Fatal(err)
		}
		density[mode] = len(recs)
		occupancy[mode] = fb.OccupiedBlocks()
	}
	if occupancy[AgingWavelet] > occupancy[AgingUniform] {
		t.Fatalf("wavelet occupies %d blocks vs uniform %d — not an equal-occupancy comparison",
			occupancy[AgingWavelet], occupancy[AgingUniform])
	}
	if density[AgingWavelet] < 2*density[AgingUniform] {
		t.Fatalf("wavelet old-window density %d not measurably above uniform %d",
			density[AgingWavelet], density[AgingUniform])
	}
}

func TestChunkDirectorySkipsOtherMotes(t *testing.T) {
	// A wavelet segment interleaves every mote's chunks in one byte
	// stream. The per-chunk directory must let a one-mote range read
	// decode only that mote's chunks — returning exactly what decoding
	// every touched segment whole returns (the reference read), while
	// skipping the other motes' records and reading fewer pages.
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	fb, err := NewFlashBackendPolicy(geo, AgingPolicy{Mode: AgingWavelet})
	if err != nil {
		t.Fatal(err)
	}
	floodBackend(t, fb, geo, 6)
	if fb.Stats().WaveletChunks == 0 {
		t.Fatal("no wavelet chunks written; test needs aged segments")
	}
	for _, seg := range fb.log.Segs {
		if seg.Meta.kind == segWavelet && len(seg.Meta.dir) == 0 {
			t.Fatal("wavelet segment without a chunk directory")
		}
	}

	perPage := geo.PageSize / flashRecSize
	oldWindow := simtime.Time(6*perPage*geo.PagesPerBlock*geo.NumBlocks/4) * simtime.Minute
	before := fb.Stats()
	withDir, err := fb.QueryRange(1, 0, oldWindow)
	if err != nil {
		t.Fatal(err)
	}
	after := fb.Stats()
	if len(withDir) == 0 {
		t.Fatal("old window empty")
	}
	if after.RecordsSkipped == before.RecordsSkipped {
		t.Fatal("directory skipped nothing on a single-mote query over interleaved chunks")
	}
	if after.ReadAmp() >= after.ReadAmpNoDir() {
		t.Fatalf("ReadAmp %.2f not below ReadAmpNoDir %.2f", after.ReadAmp(), after.ReadAmpNoDir())
	}
	pagesWithDir := after.PagesRead - before.PagesRead

	// Reference: decode every touched segment whole — byte-identical
	// records at a higher cost.
	noDir, err := referenceQueryRange(fb, 1, 0, oldWindow)
	if err != nil {
		t.Fatal(err)
	}
	final := fb.Stats()
	if !sameRecords(withDir, noDir) {
		t.Fatalf("directory read returned %d records, full decode %d, or they differ", len(withDir), len(noDir))
	}
	if pagesNoDir := final.PagesRead - after.PagesRead; pagesWithDir >= pagesNoDir {
		t.Fatalf("directory read %d pages, full decode %d — no page saving", pagesWithDir, pagesNoDir)
	}
}

func TestParseAgingPolicy(t *testing.T) {
	cases := []struct {
		in      string
		mode    string
		tiers   []float64
		wantErr bool
	}{
		{in: "", mode: AgingWavelet, tiers: DefaultAgingTiers()},
		{in: "wavelet", mode: AgingWavelet, tiers: DefaultAgingTiers()},
		{in: "uniform", mode: AgingUniform, tiers: DefaultAgingTiers()},
		{in: "wavelet:0.5,0.25", mode: AgingWavelet, tiers: []float64{0.5, 0.25}},
		{in: "wavelet:1/2,1/4,1/8", mode: AgingWavelet, tiers: []float64{0.5, 0.25, 0.125}},
		{in: "bogus", wantErr: true},
		{in: "wavelet:0", wantErr: true},
		{in: "wavelet:2.0", wantErr: true},
		{in: "wavelet:1/0", wantErr: true},
	}
	for _, c := range cases {
		pol, err := ParseAgingPolicy(c.in)
		if c.wantErr {
			if err == nil {
				t.Fatalf("ParseAgingPolicy(%q): expected error, got %+v", c.in, pol)
			}
			continue
		}
		if err != nil {
			t.Fatalf("ParseAgingPolicy(%q): %v", c.in, err)
		}
		if pol.Mode != c.mode {
			t.Fatalf("ParseAgingPolicy(%q): mode %q, want %q", c.in, pol.Mode, c.mode)
		}
		if len(pol.Tiers) != len(c.tiers) {
			t.Fatalf("ParseAgingPolicy(%q): tiers %v, want %v", c.in, pol.Tiers, c.tiers)
		}
		for i := range c.tiers {
			if math.Abs(pol.Tiers[i]-c.tiers[i]) > 1e-12 {
				t.Fatalf("ParseAgingPolicy(%q): tiers %v, want %v", c.in, pol.Tiers, c.tiers)
			}
		}
		// Round trip through String.
		back, err := ParseAgingPolicy(pol.String())
		if err != nil {
			t.Fatalf("reparse %q: %v", pol.String(), err)
		}
		if back.Mode != pol.Mode {
			t.Fatalf("String round trip changed mode: %q -> %q", pol.Mode, back.Mode)
		}
	}
}

// TestDecodeChunkRefusesHostileTimestamps crafts wavelet chunks, as a
// restored blob could carry them, whose timestamps wrap negative through
// int64: compaction could not re-encode such a record and would fail on it
// at every later append, so the decoder refuses them.
func TestDecodeChunkRefusesHostileTimestamps(t *testing.T) {
	sp, err := wavelet.CompressFraction([]float64{20, 21}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, ts := range map[string][]uint64{
		"first above MaxInt64":  {1 << 63, 0},
		"sum above MaxInt64":    {math.MaxInt64 - 5, 6},
		"sum at MaxInt64 holds": {math.MaxInt64 - 6, 6},
	} {
		buf := binary.LittleEndian.AppendUint32(nil, 3)
		buf = binary.LittleEndian.AppendUint32(buf, 2)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(0.5))
		for _, v := range ts {
			buf = binary.AppendUvarint(buf, v)
		}
		buf = sp.AppendMarshal(buf)
		_, got, _, _, _, err := new(rangeRead).decodeChunk(buf)
		if name == "sum at MaxInt64 holds" {
			if err != nil || got[1] != math.MaxInt64 {
				t.Errorf("%s: decoded %v, err %v", name, got, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: decoded timestamps %v, want an error", name, got)
		}
	}
}
