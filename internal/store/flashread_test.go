package store

// The flash set read against its per-mote reference, its allocation
// guard, and the restore-time checks on a snapshot's segment table.

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"presto/internal/archive"
	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// referenceQueryRange is the per-mote flash range read QueryRanges
// replaced, kept as the oracle: every segment whose index overlaps
// [t0, t1] is decoded whole (wavelet segments too, bypassing the chunk
// directory), filtered to m and the window, then the pending tail;
// sorted and deduplicated.
func referenceQueryRange(b *FlashBackend, m radio.NodeID, t0, t1 simtime.Time) ([]Record, error) {
	b.stats.QueryRanges++
	var out []Record
	for i := range b.log.Segs {
		seg := &b.log.Segs[i]
		if !seg.Meta.overlaps(m, t0, t1) {
			continue
		}
		recs, err := b.readSegment(seg, nil)
		if err != nil {
			return nil, err
		}
		b.stats.RecordsScanned += uint64(len(recs))
		for _, fr := range recs {
			if fr.m == m && fr.r.T >= t0 && fr.r.T <= t1 {
				out = append(out, fr.r)
			}
		}
	}
	for _, fr := range b.log.Pending {
		b.stats.RecordsScanned++
		if fr.m == m && fr.r.T >= t0 && fr.r.T <= t1 {
			out = append(out, fr.r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].T < out[j].T })
	out = dedupeSorted(out)
	b.stats.RecordsMatched += uint64(len(out))
	return out, nil
}

// sameRecords reports bit equality of two record runs.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].T != b[i].T || math.Float64bits(a[i].V) != math.Float64bits(b[i].V) ||
			math.Float64bits(a[i].ErrBound) != math.Float64bits(b[i].ErrBound) {
			return false
		}
	}
	return true
}

// randomArchive fills a backend of random geometry and aging mode with a
// stream of in-order samples, out-of-order backfills and equal-T
// duplicates (tighter, looser and equal bounds), and leaves a non-empty
// pending tail. Values and bounds are float32-exact so equal-bound
// duplicates survive the page encoding as ties.
func randomArchive(t *testing.T, rng *rand.Rand) (*FlashBackend, int, simtime.Time) {
	t.Helper()
	geo := flash.Geometry{
		PageSize:      []int{64, 128, 256}[rng.Intn(3)],
		PagesPerBlock: 2 + rng.Intn(7),
		NumBlocks:     compactFanIn + 2 + rng.Intn(6),
	}
	mode := []string{AgingUniform, AgingWavelet}[rng.Intn(2)]
	fb, err := NewFlashBackendPolicy(geo, AgingPolicy{Mode: mode, ChunkWindow: 4 + rng.Intn(60)})
	if err != nil {
		t.Fatal(err)
	}
	motes := 1 + rng.Intn(5)
	capacity := fb.log.PerPage() * geo.PagesPerBlock * geo.NumBlocks
	n := capacity/2 + rng.Intn(3*capacity)
	next := make([]simtime.Time, motes)
	var seen [][]Record = make([][]Record, motes)
	for k := 0; k < n; k++ {
		mi := rng.Intn(motes)
		r := Record{V: float64(rng.Intn(400)) / 4, ErrBound: float64(rng.Intn(4)) / 4}
		switch x := rng.Intn(10); {
		case x == 0 && next[mi] > 0: // backfill
			r.T = simtime.Time(rng.Int63n(int64(next[mi])))
		case x == 1 && len(seen[mi]) > 0: // equal-T duplicate
			prev := seen[mi][rng.Intn(len(seen[mi]))]
			r.T = prev.T
			r.ErrBound = []float64{0, prev.ErrBound, prev.ErrBound + 0.5}[rng.Intn(3)]
		default:
			r.T = next[mi]
			next[mi] += simtime.Minute
		}
		seen[mi] = append(seen[mi], r)
		_ = fb.Append(radio.NodeID(1+mi), r) // a full device sheds; the read must still agree
	}
	for len(fb.log.Pending) == 0 {
		mi := rng.Intn(motes)
		_ = fb.Append(radio.NodeID(1+mi), Record{T: next[mi], V: 1})
		next[mi] += simtime.Minute
	}
	horizon := simtime.Time(0)
	for _, t := range next {
		horizon = max(horizon, t)
	}
	return fb, motes, horizon
}

// checkRound runs one random round of requests through QueryRanges and
// through the reference, comparing records, matched counts and pages.
func checkRound(t *testing.T, rng *rand.Rand, fb *FlashBackend, motes int, horizon simtime.Time, out [][]Record) {
	t.Helper()
	k := 1 + rng.Intn(motes+2)
	ms := make([]radio.NodeID, k)
	lo := make([]simtime.Time, k)
	hi := make([]simtime.Time, k)
	minutes := int64(horizon / simtime.Minute)
	for i := range ms {
		// Minute-aligned windows, so window edges land on record times.
		ms[i] = radio.NodeID(1 + rng.Intn(motes+1)) // one id past the archive: unknown mote
		lo[i] = simtime.Time(rng.Int63n(minutes+1)) * simtime.Minute
		hi[i] = lo[i] + simtime.Time(rng.Int63n(minutes/2+1))*simtime.Minute
	}
	base := fb.Stats()
	want := make([][]Record, k)
	for i := range ms {
		recs, err := referenceQueryRange(fb, ms[i], lo[i], hi[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = recs
	}
	ref := fb.Stats()
	if err := fb.QueryRanges(ms, lo, hi, out[:k]); err != nil {
		t.Fatal(err)
	}
	got := fb.Stats()
	for i := range ms {
		if !sameRecords(out[i], want[i]) {
			t.Fatalf("mote %d [%v, %v]: set read %v, reference %v", ms[i], lo[i], hi[i], out[i], want[i])
		}
	}
	if g, w := got.RecordsMatched-ref.RecordsMatched, ref.RecordsMatched-base.RecordsMatched; g != w {
		t.Fatalf("RecordsMatched %d, reference %d", g, w)
	}
	if g, w := got.QueryRanges-ref.QueryRanges, ref.QueryRanges-base.QueryRanges; g != w {
		t.Fatalf("QueryRanges %d, reference %d", g, w)
	}
	if g, w := got.PagesRead-ref.PagesRead, ref.PagesRead-base.PagesRead; g > w {
		t.Fatalf("set read paid %d pages, reference %d", g, w)
	}
}

func TestQueryRangesMatchesReference(t *testing.T) {
	aged := map[string]bool{} // modes whose archives saw a compaction
	for seed := int64(1); seed <= 100; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			fb, motes, horizon := randomArchive(t, rng)
			if fb.Stats().Compactions > 0 {
				aged[fb.pol.Mode] = true
			}
			out := make([][]Record, motes+2) // reused across rounds, like the store's
			for round := 0; round < 8; round++ {
				checkRound(t, rng, fb, motes, horizon, out)
			}
			// The same reads on a restored copy.
			var buf bytes.Buffer
			if err := fb.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			cp, err := NewFlashBackendPolicy(fb.dev.Geometry(), fb.pol)
			if err != nil {
				t.Fatal(err)
			}
			if err := cp.Restore(&buf); err != nil {
				t.Fatal(err)
			}
			for round := 0; round < 8; round++ {
				checkRound(t, rng, cp, motes, horizon, out)
			}
		})
	}
	if !aged[AgingUniform] || !aged[AgingWavelet] {
		t.Fatalf("geometries never compacted in both aging modes: %v", aged)
	}
}

func TestQueryRangesRejectsBadShapes(t *testing.T) {
	onFlash(t, func(t *testing.T, b Backend) {
		one := []radio.NodeID{1}
		if err := b.QueryRanges(one, []simtime.Time{0}, []simtime.Time{1}, nil); err == nil {
			t.Fatal("mismatched output length accepted")
		}
		if err := b.QueryRanges(one, []simtime.Time{2}, []simtime.Time{1}, make([][]Record, 1)); err == nil {
			t.Fatal("inverted range accepted")
		}
	})
}

func TestQueryRangesAllocFree(t *testing.T) {
	// The set read over raw segments plus the pending tail decodes in
	// place: once the output buffers have grown it allocates nothing. A
	// narrow window reads only the pages whose span meets it.
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 64}
	fb, err := NewFlashBackend(geo)
	if err != nil {
		t.Fatal(err)
	}
	const motes = 4
	for i := 0; i < 2005; i++ {
		if err := fb.Append(radio.NodeID(1+i%motes), Record{T: simtime.Time(i) * simtime.Minute, V: float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if fb.Stats().Compactions != 0 || len(fb.log.Pending) == 0 {
		t.Fatalf("want raw segments only plus a pending tail: %d compactions, %d pending", fb.Stats().Compactions, len(fb.log.Pending))
	}
	ms := []radio.NodeID{1, 2, 3, 1} // a mote may be asked twice
	lo := []simtime.Time{1000 * simtime.Minute, 1000 * simtime.Minute, 1100 * simtime.Minute, 1900 * simtime.Minute}
	hi := []simtime.Time{1200 * simtime.Minute, 1200 * simtime.Minute, 1300 * simtime.Minute, 2100 * simtime.Minute}
	out := make([][]Record, len(ms))
	before := fb.Stats()
	if err := fb.QueryRanges(ms, lo, hi, out); err != nil { // warm-up sizes the buffers
		t.Fatal(err)
	}
	after := fb.Stats()
	if n := testing.AllocsPerRun(20, func() {
		if err := fb.QueryRanges(ms, lo, hi, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("set read allocated %.0f times per call, want 0", n)
	}
	if len(out[3]) == 0 || out[3][len(out[3])-1].T != 2004*simtime.Minute {
		t.Fatal("pending tail missing from the set read")
	}
	// Record i sits on page i/perPage; the window's earliest record is
	// 1000, and the flushed pages end where the pending tail begins.
	if pages, span := after.PagesRead-before.PagesRead, uint64(2005/fb.log.PerPage()-1000/fb.log.PerPage()); pages > span {
		t.Fatalf("read %d pages for a window spanning %d", pages, span)
	}

	// Aged segments decode their wavelet chunks into the backend's own
	// buffers: once a read has sized them, reading aged windows allocates
	// nothing either.
	for i := 2005; fb.Stats().Compactions < 3; i++ {
		if err := fb.Append(radio.NodeID(1+i%motes), Record{T: simtime.Time(i) * simtime.Minute, V: float64(i % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	if fb.log.Segs[0].Meta.kind != segWavelet {
		t.Fatal("oldest segment not wavelet-aged")
	}
	lo = []simtime.Time{0, 0, 500 * simtime.Minute, 1000 * simtime.Minute}
	before = fb.Stats()
	if err := fb.QueryRanges(ms, lo, hi, out); err != nil {
		t.Fatal(err)
	}
	if scanned := fb.Stats().RecordsScanned - before.RecordsScanned; scanned == 0 || len(out[0]) == 0 || out[0][0].T != 0 {
		t.Fatalf("aged read scanned %d records and returned %d for mote 1, want mote 1's oldest first", scanned, len(out[0]))
	}
	if n := testing.AllocsPerRun(20, func() {
		if err := fb.QueryRanges(ms, lo, hi, out); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("aged set read allocated %.0f times per call, want 0", n)
	}
}

// bend is one way to bend a store's segment table out of shape before
// it is snapshotted, and what Restore's refusal must name.
type bend struct {
	want  string
	apply func()
}

// logBends bend the log's own table: every configuration of the log
// refuses them.
func logBends[R any, S flash.Meta[S]](l *flash.Log[R, S], geo flash.Geometry) map[string]bend {
	return map[string]bend{
		"open block without segments":     {"not the last segment", func() { l.Segs, l.Cur = nil, 0 }},
		"open block past the device":      {"open block", func() { l.Cur = geo.NumBlocks }},
		"open block below -1":             {"open block", func() { l.Cur = -2 }},
		"open block not the last segment": {"not the last segment", func() { l.Cur = (l.Segs[len(l.Segs)-1].Block + 1) % geo.NumBlocks }},
		"open block page count":           {"open block has", func() { l.CurPages++ }},
		"segment block past the device":   {"outside", func() { l.Segs[0].Block = geo.NumBlocks }},
		"segment with too many pages":     {"pages (block of", func() { l.Segs[0].Pages = geo.PagesPerBlock + 1 }},
		"segment with negative count":     {"records", func() { l.Segs[0].Count = -1 }},
		"free block past the device":      {"free block", func() { l.Free = append(l.Free, geo.NumBlocks) }},
		"free list without reserve":       {"reserve", func() { l.Free = nil }},
	}
}

// restoreRig is one configuration of the log, filled past several
// reclaim passes and left with an open block and a pending tail.
type restoreRig struct {
	bends    map[string]bend
	snapshot func(w io.Writer) error
	restore  func(r io.Reader) error
	read     func() (string, error) // every record, printed
	fillPage func() error           // appends a page's worth and more
}

func backendRig(t *testing.T, geo flash.Geometry) restoreRig {
	fb, err := NewFlashBackendPolicy(geo, AgingPolicy{Mode: AgingWavelet})
	if err != nil {
		t.Fatal(err)
	}
	floodBackend(t, fb, geo, 2)
	for i := 0; fb.log.Cur < 0 || len(fb.log.Pending) == 0; i++ {
		if err := fb.Append(1, Record{T: simtime.Time(1<<40 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	bends := logBends(fb.log, geo)
	openSeg := func() *segment { return &fb.log.Segs[len(fb.log.Segs)-1] }
	firstWavelet := func() *segment {
		for i := range fb.log.Segs {
			if seg := &fb.log.Segs[i]; seg.Meta.kind == segWavelet && len(seg.Meta.dir) > 0 {
				return seg
			}
		}
		t.Fatal("no wavelet segment")
		return nil
	}
	bends["segment of unknown kind"] = bend{"unknown kind", func() { fb.log.Segs[0].Meta.kind = 7 }}
	bends["chunk past its pages"] = bend{"chunk at", func() {
		seg := firstWavelet()
		seg.Meta.dir[len(seg.Meta.dir)-1].size = seg.Pages*geo.PageSize + 1
	}}
	bends["page spans short"] = bend{"page spans", func() {
		seg := openSeg()
		seg.Meta.pageSpans = seg.Meta.pageSpans[:len(seg.Meta.pageSpans)-1]
	}}
	bends["page spans on a wavelet segment"] = bend{"page spans", func() {
		seg := firstWavelet()
		seg.Meta.pageSpans = make([]pageSpan, seg.Pages)
	}}
	return restoreRig{
		bends:    bends,
		snapshot: fb.Snapshot,
		restore:  fb.Restore,
		read: func() (string, error) {
			recs, err := fb.QueryRange(1, 0, 1<<62)
			return fmt.Sprint(recs), err
		},
		fillPage: func() error {
			for i := 0; i <= fb.log.PerPage(); i++ {
				if err := fb.Append(2, Record{T: simtime.Time(1<<41 + i)}); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func archiveRig(t *testing.T, geo flash.Geometry) restoreRig {
	dev, err := flash.New(geo, energy.Params{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := archive.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	l := st.Log()
	next := simtime.Time(0)
	add := func() error {
		next += simtime.Minute
		return st.Append(archive.Record{T: next, V: float64(next % 13)})
	}
	for i := 0; i < 2*geo.NumBlocks*geo.PagesPerBlock*l.PerPage() || l.Cur < 0 || len(l.Pending) == 0; i++ {
		if err := add(); err != nil {
			t.Fatal(err)
		}
	}
	if st.Stats().AgePasses == 0 {
		t.Fatal("no aging pass; the rig needs aged segments")
	}
	return restoreRig{
		bends:    logBends(l, geo),
		snapshot: st.Snapshot,
		restore:  st.Restore,
		read: func() (string, error) {
			recs, err := st.Query(0, 1<<62)
			return fmt.Sprint(recs), err
		},
		fillPage: func() error {
			for i := 0; i <= l.PerPage(); i++ {
				if err := add(); err != nil {
					return err
				}
			}
			return nil
		},
	}
}

func TestFlashRestoreRejectsBadTable(t *testing.T) {
	// Each case snapshots a store whose segment table has been bent out
	// of shape, then restores it into a second store: Restore must refuse
	// the blob instead of installing a table that panics on the next
	// append or read, and the target must keep its own state. Both
	// configurations of the log (the mote archive and the proxy backend)
	// run every bend of the log's own table; the backend also runs the
	// bends of its per-segment index.
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	configs := []struct {
		name  string
		build func(*testing.T, flash.Geometry) restoreRig
	}{{"archive", archiveRig}, {"backend", backendRig}}
	var names []string
	for name := range backendRig(t, geo).bends {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			for _, c := range configs {
				src := c.build(t, geo)
				b, ok := src.bends[name]
				if !ok {
					continue
				}
				t.Run(c.name, func(t *testing.T) {
					b.apply()
					var blob bytes.Buffer
					if err := src.snapshot(&blob); err != nil {
						t.Fatal(err)
					}
					dst := c.build(t, geo)
					want, err := dst.read()
					if err != nil {
						t.Fatal(err)
					}
					err = dst.restore(&blob)
					if err == nil || !strings.Contains(err.Error(), b.want) {
						t.Fatalf("Restore error %v, want one naming %q", err, b.want)
					}
					// The refused blob left dst whole: it still reads and
					// appends through a full page.
					if got, err := dst.read(); err != nil || got != want {
						t.Fatalf("store changed by a refused restore: %v", err)
					}
					if err := dst.fillPage(); err != nil {
						t.Fatal(err)
					}
				})
			}
		})
	}
}
