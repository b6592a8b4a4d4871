package store

// The wavelet planner against the loop it replaced: planWavelet sizes
// chunks from coefficient counts and buildWavelet encodes each chunk once,
// where the reference below (the planner before counting, kept test-only)
// encoded every chunk at every fraction and grid it tried. Both must give
// the same bytes, directory, records, size and errors.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"presto/internal/compress"
	"presto/internal/flash"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wavelet"
)

// refChunk is one chunk as the reference encoder built it.
type refChunk struct {
	bytes []byte
	recs  []flashRec
}

// referenceChunk encodes one mote's time-sorted records at fraction frac
// with a full CompressFraction, Quantize and Decompress.
func referenceChunk(m radio.NodeID, recs []Record, frac float64) (refChunk, error) {
	n := len(recs)
	vals := make([]float64, n)
	ts := make([]int64, n)
	for i, r := range recs {
		vals[i] = r.V
		ts[i] = int64(r.T)
	}
	sp, err := wavelet.CompressFraction(vals, frac)
	if err != nil {
		return refChunk{}, err
	}
	sp.Quantize()
	recon, err := wavelet.Decompress(sp)
	if err != nil {
		return refChunk{}, err
	}
	var bound float64
	for i, r := range recs {
		if b := math.Abs(recon[i]-r.V) + r.ErrBound; b > bound {
			bound = b
		}
	}
	wb := wireBound(0, bound)
	buf := make([]byte, chunkHeaderSize, chunkHeaderSize+n+sp.WireSize())
	binary.LittleEndian.PutUint32(buf[0:], uint32(m))
	binary.LittleEndian.PutUint32(buf[4:], uint32(n))
	binary.LittleEndian.PutUint32(buf[8:], math.Float32bits(wb))
	buf, err = compress.TimestampEncode(buf, ts)
	if err != nil {
		return refChunk{}, err
	}
	buf = append(buf, sp.Marshal()...)
	out := make([]flashRec, n)
	for i := range recs {
		out[i] = flashRec{m: m, r: Record{T: recs[i].T, V: recon[i], ErrBound: float64(wb)}}
	}
	return refChunk{bytes: buf, recs: out}, nil
}

// referenceBuild encodes every mote's run on grid at fraction frac.
func referenceBuild(order []radio.NodeID, grid map[radio.NodeID][]Record, frac float64, window int) ([]refChunk, []flashRec, int, error) {
	var chunks []refChunk
	var out []flashRec
	size := 0
	for _, m := range order {
		rs := grid[m]
		for i := 0; i < len(rs); i += window {
			ch, err := referenceChunk(m, rs[i:min(i+window, len(rs))], frac)
			if err != nil {
				return nil, nil, 0, err
			}
			chunks = append(chunks, ch)
			out = append(out, ch.recs...)
			size += len(ch.bytes)
		}
	}
	return chunks, out, size, nil
}

// refPlan is what the reference planner produced, and how it got there.
type refPlan struct {
	chunks           []refChunk
	recs             []flashRec
	size             int
	err              error
	halvings, rounds int
}

// referencePlan is planWavelet as it was before it sized from counts: it
// rebuilds every chunk after each halving and each thinning round.
func referencePlan(b *FlashBackend, order []radio.NodeID, perMote map[radio.NodeID][]Record, level int) refPlan {
	capBytes := b.dev.Geometry().PagesPerBlock * b.dev.Geometry().PageSize
	const minChunkBytes = chunkHeaderSize + 1 + 12 + 8
	if len(order)*minChunkBytes > capBytes {
		return refPlan{err: fmt.Errorf("store: wavelet compaction cannot fit %d motes in a %d-byte block", len(order), capBytes)}
	}
	frac := b.pol.fraction(level)
	window := b.pol.ChunkWindow
	grid := perMote
	maxLen := 0
	for _, rs := range perMote {
		maxLen = max(maxLen, len(rs))
	}
	maxChunk := min(maxLen, window)
	var p refPlan
	for {
		chunks, out, size, err := referenceBuild(order, grid, frac, window)
		if err != nil || size <= capBytes {
			p.chunks, p.recs, p.size, p.err = chunks, out, size, err
			return p
		}
		if frac*float64(wavelet.NextPow2(maxChunk)) > 2 {
			frac /= 2
			p.halvings++
			continue
		}
		p.rounds++
		if 1<<p.rounds > 2*maxLen {
			p.err = fmt.Errorf("store: wavelet compaction output %d bytes exceeds block capacity %d", size, capBytes)
			return p
		}
		thinned := make(map[radio.NodeID][]Record, len(perMote))
		for m, rs := range perMote {
			if len(rs) < 2 {
				thinned[m] = rs
				continue
			}
			w := (rs[len(rs)-1].T - rs[0].T) / simtime.Time(len(rs))
			if w <= 0 {
				w = 1
			}
			thinned[m] = pyramidThin(rs, w<<p.rounds)
		}
		grid = thinned
	}
}

// runShape names the kind of values a random run carries.
type runShape int

const (
	shapeSmooth runShape = iota // sine plus noise, the sensor-like case
	shapeConst                  // one value: no non-zero detail
	shapeZero                   // all zero: no non-zero coefficient at all
	shapeTiny                   // ~1e-50: every coefficient rounds to a float32 zero
	shapeSteps                  // few distinct values: many exact-zero and equal-magnitude details
	numShapes
)

// randomRun is one mote's time-sorted, deduplicated run of n records.
func randomRun(rng *rand.Rand, n int, shape runShape) []Record {
	rs := make([]Record, n)
	t := simtime.Time(rng.Intn(1000)) * simtime.Minute
	c := rng.NormFloat64() * 10
	for i := range rs {
		t += simtime.Minute
		if rng.Intn(12) == 0 {
			t += simtime.Time(1+rng.Intn(90)) * simtime.Minute
		}
		var v float64
		switch shape {
		case shapeSmooth:
			v = 20 + 5*math.Sin(float64(i)/9) + rng.NormFloat64()/3
		case shapeConst:
			v = c
		case shapeTiny:
			v = 1e-50 * (1 + rng.Float64())
		case shapeSteps:
			v = float64(rng.Intn(3))
		}
		rs[i] = Record{T: t, V: v, ErrBound: float64(rng.Intn(3)) / 8}
	}
	return rs
}

func TestWaveletPlanMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	tiers := [][]float64{{1}, {0.5, 0.25, 0.125}, {0.3}, {0.01}}
	windows := []int{1, 3, 16, 100, 128}
	seen := map[string]int{}
	for trial := 0; trial < 1000; trial++ {
		pol := AgingPolicy{Mode: AgingWavelet, Tiers: tiers[rng.Intn(len(tiers))], ChunkWindow: windows[rng.Intn(len(windows))]}
		geo := flash.Geometry{PageSize: 32 << rng.Intn(5), PagesPerBlock: 1 + rng.Intn(64), NumBlocks: compactFanIn + 2}
		fb, err := NewFlashBackendPolicy(geo, pol)
		if err != nil {
			t.Fatal(err)
		}
		perMote := map[radio.NodeID][]Record{}
		for m := 0; m < 1+rng.Intn(6); m++ {
			n := 1 + rng.Intn(300)
			switch rng.Intn(4) {
			case 0:
				n = 1
			case 1:
				n = 1 << rng.Intn(9)
			}
			shape := runShape(rng.Intn(int(numShapes)))
			perMote[radio.NodeID(m+1)] = randomRun(rng, n, shape)
			seen[fmt.Sprintf("shape %d", shape)]++
			if n == 1 {
				seen["single record"]++
			} else if last := (n-1)%pol.ChunkWindow + 1; !wavelet.IsPow2(last) {
				seen["non-power-of-two chunk"]++
			}
		}
		if rng.Intn(40) == 0 { // a raw page restored from hostile bytes
			rs := perMote[1]
			rs[0].T = -rs[len(rs)-1].T - simtime.Minute
			seen["negative timestamp"]++
		}
		order := sortedMotes(perMote)
		level := 1 + rng.Intn(4)

		want := referencePlan(fb, order, perMote, level)
		runs := make([][]Record, len(order))
		for i, m := range order {
			runs[i] = perMote[m]
		}
		plans, frac, size, err := fb.planWavelet(order, runs, level)
		var stream []byte
		var dir []chunkDirEntry
		var recs []flashRec
		if err == nil {
			stream, dir, recs, err = fb.buildWavelet(plans, frac, size)
		}
		ctx := fmt.Sprintf("trial %d (geo %+v, policy %v, window %d, level %d)", trial, geo, pol, pol.ChunkWindow, level)
		if fmt.Sprint(err) != fmt.Sprint(want.err) {
			t.Fatalf("%s: error %v, reference %v", ctx, err, want.err)
		}
		switch {
		case want.err != nil && strings.HasPrefix(want.err.Error(), "compress:"):
			seen["encode error"]++
			continue
		case want.err != nil && want.rounds > 0:
			seen["cannot fit after thinning"]++
			continue
		case want.err != nil:
			seen["cannot fit a chunk per mote"]++
			continue
		case want.rounds > 0:
			seen[fmt.Sprintf("thinning round %d", want.rounds)]++
		case want.halvings > 0:
			seen["halving"]++
		default:
			seen["fits at once"]++
		}
		if size != want.size || len(stream) != want.size {
			t.Fatalf("%s: size %d (stream %d), reference %d", ctx, size, len(stream), want.size)
		}
		if len(dir) != len(want.chunks) {
			t.Fatalf("%s: %d chunks, reference %d", ctx, len(dir), len(want.chunks))
		}
		off := 0
		for i, ch := range want.chunks {
			wantDir := chunkDirEntry{m: ch.recs[0].m, off: off, size: len(ch.bytes), count: len(ch.recs),
				minT: ch.recs[0].r.T, maxT: ch.recs[len(ch.recs)-1].r.T}
			if dir[i] != wantDir {
				t.Fatalf("%s: chunk %d directory %+v, reference %+v", ctx, i, dir[i], wantDir)
			}
			if got := stream[off : off+len(ch.bytes)]; !bytes.Equal(got, ch.bytes) {
				t.Fatalf("%s: chunk %d bytes differ from the reference's", ctx, i)
			}
			off += len(ch.bytes)
		}
		if len(recs) != len(want.recs) {
			t.Fatalf("%s: %d records, reference %d", ctx, len(recs), len(want.recs))
		}
		for i, fr := range recs {
			w := want.recs[i]
			if fr.m != w.m || fr.r.T != w.r.T || math.Float64bits(fr.r.V) != math.Float64bits(w.r.V) ||
				math.Float64bits(fr.r.ErrBound) != math.Float64bits(w.r.ErrBound) {
				t.Fatalf("%s: record %d %+v, reference %+v", ctx, i, fr, w)
			}
		}
	}
	t.Logf("coverage: %v", seen)
	need := []string{"fits at once", "halving", "cannot fit after thinning", "cannot fit a chunk per mote",
		"single record", "non-power-of-two chunk", "negative timestamp", "encode error"}
	for r := 1; r <= 5; r++ {
		need = append(need, fmt.Sprintf("thinning round %d", r))
	}
	for s := runShape(0); s < numShapes; s++ {
		need = append(need, fmt.Sprintf("shape %d", s))
	}
	for _, k := range need {
		if seen[k] == 0 {
			t.Errorf("no trial covered %q (coverage %v)", k, seen)
		}
	}
}

// BenchmarkWaveletCompact times one wavelet compaction of four full raw
// blocks on the flash_aging benchmark's geometry (512 B pages, 64 pages
// per block): 16 motes streaming a sample a minute each, aged to level 1
// (half the coefficients, one halving to fit) and level 3 (an eighth).
func BenchmarkWaveletCompact(b *testing.B) {
	for _, level := range []int{1, 3} {
		b.Run(fmt.Sprintf("level%d", level), func(b *testing.B) {
			geo := flash.Geometry{PageSize: 512, PagesPerBlock: 64, NumBlocks: compactFanIn + 2}
			fb, err := NewFlashBackend(geo)
			if err != nil {
				b.Fatal(err)
			}
			rng := rand.New(rand.NewSource(3))
			perBlock := geo.PagesPerBlock * fb.log.PerPage()
			for i := 0; len(fb.log.Segs) < compactFanIn+1; i++ {
				m := radio.NodeID(1 + i%16)
				r := Record{T: simtime.Time(i/16) * simtime.Minute, V: 18 + 6*math.Sin(float64(i)/700+float64(m)) + rng.NormFloat64()/4}
				if err := fb.Append(m, r); err != nil {
					b.Fatal(err)
				}
			}
			sealed := fb.log.Segs[:compactFanIn]
			for i := range sealed {
				if sealed[i].Count != perBlock {
					b.Fatalf("segment %d holds %d records, want a full block of %d", i, sealed[i].Count, perBlock)
				}
				sealed[i].Meta.level = level - 1
			}
			reserve := fb.log.Free[0]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out := segment{Block: reserve}
				if _, err := fb.compact(sealed, &out); err != nil {
					b.Fatal(err)
				}
				// Erasing costs next to nothing; pausing the timer around
				// it would cost a stop-the-world memory read per op.
				if err := fb.dev.EraseBlock(reserve); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
