package store

// FlashBackend: the paper's flash-archival proxy store, the segment log
// of internal/flash configured for a domain's confirmed observations.
//
// Every mote's records share one log in arrival order, 20 bytes each on
// flash (mote, timestamp, float32 value, float32 bound). The log's index
// hook keeps, per segment, the [minT, maxT] span of each mote's records
// and, per raw page, the span of the records on it. Its aging hook
// (compact) clusters the oldest segments' records by mote and ages them
// under the AgingPolicy — wavelet chunks behind a per-segment chunk
// directory, or legacy uniform means — reclaiming blocks and repairing
// read locality at once; when even that cannot fit, appends shed the
// oldest buffered page. A range read is a set operation over a round's
// motes (QueryRanges): one walk of the segment list touches only segments
// some requested mote overlaps, reads only pages whose span meets the
// round's window, and decodes each page once, routing every record to the
// motes that asked. Arrival order interleaves motes, so young segments
// still show read amplification (BackendStats.ReadAmp).

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"

	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/snap"
	"presto/internal/wavelet"
)

// flashRecSize is the on-flash encoding: uint32 mote, int64 timestamp,
// float32 value, float32 error bound.
const flashRecSize = 20

// compactFanIn is how many old segments one compaction pass consumes.
const compactFanIn = 4

// ErrBackendFull is returned when the device is full and compaction cannot
// reclaim space.
var ErrBackendFull = errors.New("store: flash backend full")

// DefaultStoreGeometry sizes the per-domain archive device: 512 B pages,
// 64 pages/block, 256 blocks = 8 MiB (~400k records). Real proxies are
// tethered and carry gigabytes; experiments that want compaction pressure
// shrink NumBlocks instead of writing gigabytes.
func DefaultStoreGeometry() flash.Geometry {
	return flash.Geometry{PageSize: 512, PagesPerBlock: 64, NumBlocks: 256}
}

// flashRec pairs a record with its mote for log encoding.
type flashRec struct {
	m radio.NodeID
	r Record
}

// recCodec is the log's record codec; a snapshot carries a record (and a
// Latest entry) as mote, timestamp, value and bound at full width.
type recCodec struct{}

func (recCodec) Layout() (size, timeOffset int) { return flashRecSize, 4 }

func (recCodec) Put(slot []byte, fr flashRec) {
	binary.LittleEndian.PutUint32(slot, uint32(fr.m))
	binary.LittleEndian.PutUint64(slot[4:], uint64(fr.r.T))
	binary.LittleEndian.PutUint32(slot[12:], math.Float32bits(float32(fr.r.V)))
	binary.LittleEndian.PutUint32(slot[16:], math.Float32bits(wireBound(fr.r.V, fr.r.ErrBound)))
}

func (recCodec) Get(slot []byte) flashRec {
	return flashRec{
		m: radio.NodeID(binary.LittleEndian.Uint32(slot)),
		r: Record{
			T:        simtime.Time(binary.LittleEndian.Uint64(slot[4:])),
			V:        float64(math.Float32frombits(binary.LittleEndian.Uint32(slot[12:]))),
			ErrBound: float64(math.Float32frombits(binary.LittleEndian.Uint32(slot[16:]))),
		},
	}
}

func (recCodec) Save(e *snap.Enc, fr flashRec) {
	e.I64(int64(fr.m))
	e.I64(int64(fr.r.T))
	e.F64(fr.r.V)
	e.F64(fr.r.ErrBound)
}

func (recCodec) Load(d *snap.Dec) flashRec {
	return flashRec{m: radio.NodeID(d.I64()), r: Record{T: simtime.Time(d.I64()), V: d.F64(), ErrBound: d.F64()}}
}

// wireBound widens a record's error bound to cover the float32
// quantization of its value, so a decoded record still honors the
// guarantee |V - truth| <= ErrBound that backend.go advertises.
func wireBound(v, bound float64) float32 {
	q := math.Abs(v - float64(float32(v)))
	w := float32(bound + q)
	if float64(w) < bound+q {
		w = math.Nextafter32(w, float32(math.Inf(1)))
	}
	return w
}

// moteSpan is one mote's footprint inside a segment.
type moteSpan struct {
	minT, maxT simtime.Time
	count      int
}

// Segment kinds: how a block's pages decode.
const (
	// segRaw holds fixed-size records in arrival (or compaction-cluster)
	// order — the log's native format.
	segRaw = iota
	// segWavelet holds a byte stream of wavelet summary chunks (aging.go):
	// every original timestamp plus top-K value coefficients.
	segWavelet
)

// chunkDirEntry locates one wavelet chunk inside a segment's byte
// stream: which mote it summarizes, where its bytes live, and the time
// span it reconstructs. The directory lets a range read decode only the
// requested motes' chunks instead of reconstructing the whole segment.
type chunkDirEntry struct {
	m          radio.NodeID
	off, size  int // byte range within the segment stream
	count      int // records the chunk reconstructs
	minT, maxT simtime.Time
}

// pageSpan is the [minT, maxT] of the records on one raw page.
type pageSpan struct{ minT, maxT simtime.Time }

// segMeta is a segment's index. A segment's Count is the records
// decodable from it (reconstructed, for a wavelet segment).
type segMeta struct {
	kind  int // segRaw or segWavelet
	level int // aging level: 0 = raw, +1 per compaction survived
	spans map[radio.NodeID]*moteSpan
	// dir is the per-chunk directory of a segWavelet segment, in stream
	// order.
	dir []chunkDirEntry
	// pageSpans holds, per page of a segRaw segment, the time span of the
	// records on it, so a range read skips pages outside its window.
	// Wavelet segments have none (their directory serves that purpose).
	pageSpans []pageSpan
}

type segment = flash.Segment[segMeta]

// Save encodes the index, spans in ascending mote order.
func (sm segMeta) Save(e *snap.Enc) {
	e.Uvarint(uint64(sm.kind))
	e.Uvarint(uint64(sm.level))
	ids := sortedMotes(sm.spans)
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		sp := sm.spans[id]
		e.I64(int64(id))
		e.I64(int64(sp.minT))
		e.I64(int64(sp.maxT))
		e.Uvarint(uint64(sp.count))
	}
	e.Uvarint(uint64(len(sm.dir)))
	for _, ce := range sm.dir {
		e.I64(int64(ce.m))
		e.Uvarint(uint64(ce.off))
		e.Uvarint(uint64(ce.size))
		e.Uvarint(uint64(ce.count))
		e.I64(int64(ce.minT))
		e.I64(int64(ce.maxT))
	}
	e.Uvarint(uint64(len(sm.pageSpans)))
	for _, ps := range sm.pageSpans {
		e.I64(int64(ps.minT))
		e.I64(int64(ps.maxT))
	}
}

// Load decodes an index written by Save.
func (segMeta) Load(d *snap.Dec) segMeta {
	sm := segMeta{kind: int(d.Uvarint()), level: int(d.Uvarint())}
	n := d.Count()
	sm.spans = make(map[radio.NodeID]*moteSpan, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		id := radio.NodeID(d.I64())
		sm.spans[id] = &moteSpan{minT: simtime.Time(d.I64()), maxT: simtime.Time(d.I64()), count: int(d.Uvarint())}
	}
	n = d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		sm.dir = append(sm.dir, chunkDirEntry{
			m:     radio.NodeID(d.I64()),
			off:   int(d.Uvarint()),
			size:  int(d.Uvarint()),
			count: int(d.Uvarint()),
			minT:  simtime.Time(d.I64()),
			maxT:  simtime.Time(d.I64()),
		})
	}
	n = d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		sm.pageSpans = append(sm.pageSpans, pageSpan{minT: simtime.Time(d.I64()), maxT: simtime.Time(d.I64())})
	}
	return sm
}

// Check validates a restored index against its segment's page count: a
// known kind, one page span per page of a raw segment (none on a wavelet
// one), and every chunk within the segment's pages.
func (sm segMeta) Check(g flash.Geometry, pages int) error {
	wantSpans := pages
	switch sm.kind {
	case segRaw:
	case segWavelet:
		wantSpans = 0
	default:
		return fmt.Errorf("of unknown kind %d", sm.kind)
	}
	if len(sm.pageSpans) != wantSpans {
		return fmt.Errorf("has %d page spans for %d pages", len(sm.pageSpans), pages)
	}
	bytes := pages * g.PageSize
	for _, de := range sm.dir {
		if de.off < 0 || de.size < 0 || de.off > bytes || de.size > bytes-de.off {
			return fmt.Errorf("chunk at %d+%d outside its %d pages", de.off, de.size, pages)
		}
	}
	return nil
}

func (sm *segMeta) note(m radio.NodeID, t simtime.Time) {
	sp, ok := sm.spans[m]
	if !ok {
		if sm.spans == nil {
			sm.spans = make(map[radio.NodeID]*moteSpan)
		}
		sm.spans[m] = &moteSpan{minT: t, maxT: t, count: 1}
		return
	}
	sp.minT = min(sp.minT, t)
	sp.maxT = max(sp.maxT, t)
	sp.count++
}

// overlaps reports whether the segment can hold records for m in [t0, t1].
func (sm *segMeta) overlaps(m radio.NodeID, t0, t1 simtime.Time) bool {
	sp, ok := sm.spans[m]
	return ok && sp.minT <= t1 && sp.maxT >= t0
}

// FlashBackend is the log-structured flash archive. Confined to one shard
// worker; not safe for concurrent use.
type FlashBackend struct {
	log *flash.Log[flashRec, segMeta]
	dev *flash.Device
	pol AgingPolicy

	latest map[radio.NodeID]Record
	stats  BackendStats
	rr     rangeRead
	aging  agingScratch
	group  moteGroups
}

// NewFlashBackend creates a backend on a fresh device with the given
// geometry (zero value = DefaultStoreGeometry) and the default wavelet
// aging policy. The device is unmetered: proxies are tethered, so flash
// energy is not the constraint it is on motes — what the simulation models
// here is the write/read/erase op pattern and its read amplification.
func NewFlashBackend(geo flash.Geometry) (*FlashBackend, error) {
	return NewFlashBackendPolicy(geo, DefaultAgingPolicy())
}

// NewFlashBackendPolicy is NewFlashBackend with an explicit aging policy
// (zero-value fields take defaults; see AgingPolicy).
func NewFlashBackendPolicy(geo flash.Geometry, pol AgingPolicy) (*FlashBackend, error) {
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	if geo == (flash.Geometry{}) {
		geo = DefaultStoreGeometry()
	}
	dev, err := flash.New(geo, energy.Params{}, nil)
	if err != nil {
		return nil, err
	}
	if geo.NumBlocks < compactFanIn+2 {
		return nil, fmt.Errorf("store: flash backend needs at least %d blocks", compactFanIn+2)
	}
	b := &FlashBackend{
		dev:    dev,
		pol:    pol.normalized(),
		latest: make(map[radio.NodeID]Record),
		rr:     rangeRead{first: make(map[radio.NodeID]int)},
	}
	b.log, err = flash.NewLog(dev, flash.LogConfig[flashRec, segMeta]{Codec: recCodec{}, Index: b.index, Age: b.compact})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return b, nil
}

// Device exposes the underlying simulated flash.
func (b *FlashBackend) Device() *flash.Device { return b.dev }

// OccupiedBlocks reports how many erase blocks currently hold data —
// the device occupancy experiments equalize when comparing aging modes.
func (b *FlashBackend) OccupiedBlocks() int { return b.dev.Geometry().NumBlocks - len(b.log.Free) }

// Append logs one confirmed observation. A negative timestamp is refused
// before anything is buffered: compaction cannot encode it and would fail
// on it at every later append.
func (b *FlashBackend) Append(m radio.NodeID, r Record) error {
	if r.T < 0 {
		return &NegativeTimeError{Mote: m, T: r.T}
	}
	b.stats.Appends++
	b.stats.Records++
	// Ties on timestamp keep the tighter bound, mirroring the query-path
	// dedupe rule (an exact push must not be shadowed by a lossy backfill).
	if last, ok := b.latest[m]; !ok || r.T > last.T ||
		(r.T == last.T && r.ErrBound <= last.ErrBound) {
		b.latest[m] = r
	}
	err := b.log.Append(flashRec{m: m, r: r})
	if p, per := b.log.Pending, b.log.PerPage(); err != nil && len(p) > 4*per {
		// Device full and compaction cannot reclaim space: shed the
		// oldest buffered page so RAM stays bounded, and surface the
		// error so the sink can count the drop. A mote whose only record
		// was shed loses its Latest entry (conservative: the coverage
		// pre-check then bails instead of trusting a phantom).
		shed, kept := p[:per], p[per:]
		b.stats.Records -= uint64(per)
		b.stats.Dropped += uint64(per)
		for _, fr := range shed {
			if cur, ok := b.latest[fr.m]; ok && cur.T == fr.r.T && !survives(fr.m, fr.r.T, kept, b.log.Segs) {
				delete(b.latest, fr.m)
			}
		}
		b.log.Pending = p[:copy(p, kept)]
	}
	return err
}

// survives reports whether mote m holds a record at time >= t in pending
// or in segs.
func survives(m radio.NodeID, t simtime.Time, pending []flashRec, segs []segment) bool {
	for _, fr := range pending {
		if fr.m == m && fr.r.T >= t {
			return true
		}
	}
	for i := range segs {
		if sp, ok := segs[i].Meta.spans[m]; ok && sp.maxT >= t {
			return true
		}
	}
	return false
}

// index is the log's per-page hook: it extends the segment's mote spans
// over the page of recs just programmed and records the page's span.
func (b *FlashBackend) index(seg *segment, recs []flashRec) {
	ps := pageSpan{minT: recs[0].r.T, maxT: recs[0].r.T}
	for _, fr := range recs {
		seg.Meta.note(fr.m, fr.r.T)
		ps.minT, ps.maxT = min(ps.minT, fr.r.T), max(ps.maxT, fr.r.T)
	}
	seg.Meta.pageSpans = append(seg.Meta.pageSpans, ps)
}

// compact is the log's aging hook: it rewrites the oldest compactFanIn
// sealed segments into out, reclaiming fanIn-1 blocks and repairing the
// read locality the arrival-order log lacks. Records are clustered by
// mote, time-sorted and deduplicated, then aged per the backend's
// AgingPolicy: wavelet mode (default) summarizes each mote's run as
// multi-resolution coefficient chunks — every timestamp survives, value
// detail decays with the segment's age level — while uniform mode merges
// groups of consecutive records into widened-bound means (the legacy
// behaviour). Either way the output's error bounds cover every record it
// stands for.
func (b *FlashBackend) compact(sealed []segment, out *segment) (int, error) {
	if len(sealed) < compactFanIn {
		return 0, ErrBackendFull
	}
	// The input is read into one buffer sized for this pass: every record
	// takes at least a byte of its segment, whatever its Count claims.
	// Kept between passes, it would hold a whole compaction's records.
	n, pageSize := 0, b.dev.Geometry().PageSize
	for i := range sealed[:compactFanIn] {
		n += min(sealed[i].Count, sealed[i].Pages*pageSize)
	}
	in := make([]flashRec, 0, n)
	level := 0
	for i := range sealed[:compactFanIn] {
		var err error
		if in, err = b.readSegment(&sealed[i], in); err != nil {
			return 0, err
		}
		level = max(level, sealed[i].Meta.level)
	}
	level++ // the rewritten segment is one aging step older than its inputs
	rawTotal := len(in)
	g := &b.group
	order, runs := g.group(in)
	defer clear(runs) // the runs are this pass's records: keep none

	var total int
	for i, s := range runs {
		slices.SortFunc(s, byTime)
		runs[i] = dedupeSorted(s)
		total += len(runs[i])
	}

	// Age the survivors into the reserve block, keeping the
	// reconstructable records for the Latest repair.
	out.Meta.level = level
	var recs []flashRec
	var err error
	if b.pol.Mode == AgingUniform {
		if recs, err = b.planUniform(order, runs, total); err == nil {
			err = b.log.WriteRecords(out, recs)
		}
	} else {
		recs, err = b.writeWavelet(out, order, runs, level)
	}
	if err != nil {
		return 0, err
	}
	// Everything that did not survive — coarsening-merged or duplicate
	// timestamps collapsed by the dedupe — left the store.
	merged := uint64(rawTotal - len(recs))
	b.stats.Compactions++
	b.stats.Coarsened += merged
	b.stats.Records -= merged

	// Reconcile the Latest index against the rebuilt store: a quiet
	// mote's newest record may have been merged away (uniform) or had its
	// value rewritten by reconstruction (wavelet). Only replace an entry
	// when no record at its timestamp survives anywhere (later segments
	// and the pending buffer included — an equal-T duplicate outside the
	// victims keeps the entry valid); wavelet-summarized timestamps
	// survive, but the entry must carry the reconstructed value and bound
	// that QueryRange will actually return.
	newestOut := g.newest
	clear(newestOut)
	for _, fr := range recs {
		if r, ok := newestOut[fr.m]; !ok || fr.r.T >= r.T {
			newestOut[fr.m] = fr.r
		}
	}
	rest := b.log.Segs[compactFanIn:]
	for _, m := range order {
		cur, ok := b.latest[m]
		if !ok {
			continue
		}
		nr, aged := newestOut[m]
		elsewhere := survives(m, cur.T, b.log.Pending, rest)
		switch {
		case aged && nr.T == cur.T && !elsewhere:
			b.latest[m] = nr // same instant, now reconstructed
		case elsewhere || (aged && nr.T >= cur.T):
		case aged:
			b.latest[m] = nr
		default:
			delete(b.latest, m)
		}
	}
	return compactFanIn, nil
}

// moteGroups is a FlashBackend's reusable per-mote compaction state: the
// dense mote index one pass groups its input by, and the newest aged
// record per mote. Its buffers grow with the motes in a pass, not with
// their records.
type moteGroups struct {
	ids    map[radio.NodeID]int    // mote → its dense index
	seen   []radio.NodeID          // dense index → mote: motes by first appearance
	place  []int                   // dense index → the mote's place in order
	end    []int                   // per place: where its run ends
	order  []radio.NodeID          // the motes ascending
	runs   [][]Record              // per place: the mote's records
	newest map[radio.NodeID]Record // per mote: its newest aged record
}

// group clusters in by mote as appending each record to its mote's slice
// would: it returns the motes ascending and, per mote, its records in
// read order, laid end to end in one slice the size of in. A counting
// sort on a dense per-pass mote index does it with one map lookup per
// record.
func (g *moteGroups) group(in []flashRec) (order []radio.NodeID, runs [][]Record) {
	if g.ids == nil {
		g.ids = make(map[radio.NodeID]int)
		g.newest = make(map[radio.NodeID]Record)
	}
	clear(g.ids)
	g.seen = g.seen[:0]
	key := make([]int, len(in)) // in[j]'s mote's dense index
	for j, fr := range in {
		k, ok := g.ids[fr.m]
		if !ok {
			k = len(g.seen)
			g.ids[fr.m] = k
			g.seen = append(g.seen, fr.m)
		}
		key[j] = k
	}
	g.order = append(g.order[:0], g.seen...)
	slices.Sort(g.order)
	g.place = g.place[:0]
	for _, m := range g.seen {
		i, _ := slices.BinarySearch(g.order, m)
		g.place = append(g.place, i)
	}
	// end[i] counts place i's records, then becomes where its run
	// begins, then, once every record is placed, where it ends.
	g.end = append(g.end[:0], make([]int, len(g.order))...)
	for _, k := range key {
		g.end[g.place[k]]++
	}
	at := 0
	for i, n := range g.end {
		g.end[i], at = at, at+n
	}
	recs := make([]Record, len(in))
	for j, fr := range in {
		i := g.place[key[j]]
		recs[g.end[i]] = fr.r
		g.end[i]++
	}
	g.runs = g.runs[:0]
	begin := 0
	for _, end := range g.end {
		g.runs = append(g.runs, recs[begin:end])
		begin = end
	}
	return g.order, g.runs
}

// planUniform coarsens each mote's run just enough that the merged output
// fits one block of fixed-size records. The output size is the sum of
// per-mote ceilings, so ceil(total/capacity) alone can overflow by up to
// one record per mote on uneven interleaves — the factor grows until the
// rounded total actually fits.
func (b *FlashBackend) planUniform(order []radio.NodeID, runs [][]Record, total int) ([]flashRec, error) {
	capacity := b.dev.Geometry().PagesPerBlock * b.log.PerPage()
	factor := (total + capacity - 1) / capacity
	if factor < 2 {
		factor = 2
	}
	coarseTotal := func(f int) int {
		n := 0
		for _, rs := range runs {
			n += (len(rs) + f - 1) / f
		}
		return n
	}
	for coarseTotal(factor) > capacity && factor < total {
		factor++
	}
	var out []flashRec
	for i, m := range order {
		for _, r := range coarsenRecords(runs[i], factor) {
			out = append(out, flashRec{m: m, r: r})
		}
	}
	if len(out) > capacity {
		return nil, fmt.Errorf("store: compaction output %d exceeds block capacity %d", len(out), capacity)
	}
	return out, nil
}

// writeWavelet lays the wavelet plan's chunks into out as one byte stream
// across its pages, with their directory, and returns the records they
// reconstruct.
func (b *FlashBackend) writeWavelet(out *segment, order []radio.NodeID, runs [][]Record, level int) ([]flashRec, error) {
	plans, frac, size, err := b.planWavelet(order, runs, level)
	if err != nil {
		return nil, err
	}
	stream, dir, recs, err := b.buildWavelet(plans, frac, size)
	if err != nil {
		return nil, err
	}
	out.Meta.kind = segWavelet
	out.Meta.dir = dir
	for len(stream) > 0 {
		n := min(b.dev.Geometry().PageSize, len(stream))
		if err := b.log.WritePage(out, stream[:n]); err != nil {
			return nil, err
		}
		stream = stream[n:]
	}
	b.stats.WaveletChunks += uint64(len(dir))
	for _, fr := range recs {
		out.Meta.note(fr.m, fr.r.T)
	}
	out.Count = len(recs)
	return recs, nil
}

// planWavelet sizes each mote's run as wavelet chunks at the level's tier
// fraction, shrinking until the stream fits one block: first by halving
// the coefficient fraction, then — once chunks are down to a couple of
// coefficients — by thinning the time grid onto an age-octave pyramid
// (pyramidThin) whose base cell width doubles per round. Old data thus
// degrades progressively, oldest-coarsest, instead of being discarded
// wholesale. The search encodes nothing: each grid is transformed and
// counted once (agingScratch.plan), after which a chunk's size at any
// fraction is arithmetic (chunkPlan.size). It returns the plans of the
// grid that fits, the fraction to encode them at and the stream's size.
func (b *FlashBackend) planWavelet(order []radio.NodeID, runs [][]Record, level int) ([]chunkPlan, float64, int, error) {
	capBytes := b.dev.Geometry().PagesPerBlock * b.dev.Geometry().PageSize
	// Infeasibility precheck: even one record per mote costs at least a
	// chunk header, a timestamp byte and one coefficient. Failing fast
	// here keeps a permanently-full device (Append keeps retrying
	// compaction) from paying the whole shrink loop on every append.
	const minChunkBytes = chunkHeaderSize + 1 + 12 + 8
	if len(order)*minChunkBytes > capBytes {
		return nil, 0, 0, fmt.Errorf("store: wavelet compaction cannot fit %d motes in a %d-byte block", len(order), capBytes)
	}
	frac := b.pol.fraction(level)
	window := b.pol.ChunkWindow
	grid := runs
	maxLen, total := 0, 0
	for _, rs := range runs {
		maxLen = max(maxLen, len(rs))
		total += len(rs)
	}
	// Halving frac below one kept coefficient per largest actual chunk is
	// a no-op (short runs floor at k = 1 long before frac*window does) —
	// gate on the real transform length so no size-identical round runs.
	maxChunk := min(maxLen, window)
	// A chunk's transform is under twice its length, and thinning only
	// shortens runs, so every grid's transforms fit in 2*total.
	coef := make([]float64, 2*total)
	var plans []chunkPlan
	for round := 0; ; {
		var err error
		if plans, err = b.planGrid(plans[:0], coef, order, grid, window); err != nil {
			return nil, 0, 0, err
		}
		size := planSize(plans, frac)
		for size > capBytes && frac*float64(wavelet.NextPow2(maxChunk)) > 2 {
			frac /= 2 // drop more coefficients first
			size = planSize(plans, frac)
		}
		if size <= capBytes {
			return plans, frac, size, nil
		}
		// Coefficient floor: thin the time grid. Each round re-buckets
		// the original records onto the pyramid at twice the previous
		// base width; the idempotence of the pyramid (regions already at
		// target density are untouched) keeps repeated compactions from
		// compounding decay beyond what the data's age warrants.
		// Once the base width exceeds every mote's span the pyramid is at
		// its floor (one record per occupied age octave) and no further
		// round can shrink it.
		round++
		if 1<<round > 2*maxLen {
			return nil, 0, 0, fmt.Errorf("store: wavelet compaction output %d bytes exceeds block capacity %d", size, capBytes)
		}
		thinned := make([][]Record, len(runs))
		for i, rs := range runs {
			if len(rs) < 2 {
				thinned[i] = rs
				continue
			}
			span := rs[len(rs)-1].T - rs[0].T
			w := span / simtime.Time(len(rs)) // current mean spacing
			if w <= 0 {
				w = 1
			}
			thinned[i] = pyramidThin(rs, w<<round)
		}
		grid = thinned
	}
}

// planGrid appends to plans every mote's run on grid (grid[i] is
// order[i]'s) as chunks of at most window records, their transforms laid
// out in coef.
func (b *FlashBackend) planGrid(plans []chunkPlan, coef []float64, order []radio.NodeID, grid [][]Record, window int) ([]chunkPlan, error) {
	for k, m := range order {
		rs := grid[k]
		for i := 0; i < len(rs); i += window {
			end := min(i+window, len(rs))
			p := wavelet.NextPow2(end - i)
			c, err := b.aging.plan(m, rs[i:end], coef[:p:p])
			if err != nil {
				return nil, err
			}
			plans = append(plans, c)
			coef = coef[p:]
		}
	}
	return plans, nil
}

// planSize is the stream length of plans encoded at fraction frac.
func planSize(plans []chunkPlan, frac float64) int {
	size := 0
	for i := range plans {
		size += plans[i].size(frac)
	}
	return size
}

// buildWavelet encodes every planned chunk once, at fraction frac, into
// one stream of the planned size, returning the stream, its chunk
// directory and the records the chunks reconstruct.
func (b *FlashBackend) buildWavelet(plans []chunkPlan, frac float64, size int) ([]byte, []chunkDirEntry, []flashRec, error) {
	stream := make([]byte, 0, size)
	dir := make([]chunkDirEntry, 0, len(plans))
	n := 0
	for i := range plans {
		n += len(plans[i].recs)
	}
	recs := make([]flashRec, 0, n)
	for i := range plans {
		c := &plans[i]
		off := len(stream)
		var err error
		if stream, recs, err = b.aging.summarizeChunk(stream, recs, c, frac); err != nil {
			return nil, nil, nil, err
		}
		// A chunk is one mote's time-ordered run, so its first and last
		// records bound it.
		dir = append(dir, chunkDirEntry{
			m:     c.m,
			off:   off,
			size:  len(stream) - off,
			count: len(c.recs),
			minT:  c.recs[0].T,
			maxT:  c.recs[len(c.recs)-1].T,
		})
	}
	if len(stream) != size {
		return nil, nil, nil, fmt.Errorf("store: wavelet plan sized %d bytes, encoded %d", size, len(stream))
	}
	return stream, dir, recs, nil
}

// coarsenRecords merges each group of factor consecutive records into one
// carrying the group mean and the group's first timestamp (so time
// coverage never shrinks). The error bound must still guarantee
// |V - truth| for every instant the record now stands for, so it widens
// to the worst member: max over the group of |mean - V_i| + bound_i.
func coarsenRecords(recs []Record, factor int) []Record {
	if factor < 2 || len(recs) == 0 {
		return recs
	}
	out := make([]Record, 0, (len(recs)+factor-1)/factor)
	for i := 0; i < len(recs); i += factor {
		end := i + factor
		if end > len(recs) {
			end = len(recs)
		}
		out = append(out, mergeRecords(recs[i:end]))
	}
	return out
}

// readSegment appends every record in a segment to dst, paying the page
// reads — compaction's input. Wavelet segments reconstruct their records
// from the stored summary chunks: every summarized timestamp comes back,
// carrying the chunk's widened error bound.
func (b *FlashBackend) readSegment(seg *segment, dst []flashRec) ([]flashRec, error) {
	if seg.Meta.kind == segWavelet {
		_, err := b.readChunks(seg, func(chunkDirEntry) bool { return true }, func(m radio.NodeID, ts []int64, recon []float64, bound float64) {
			for i, t := range ts {
				dst = append(dst, flashRec{m: m, r: Record{T: simtime.Time(t), V: recon[i], ErrBound: bound}})
			}
		})
		return dst, err
	}
	return b.log.ReadSegment(seg, dst)
}

// rangeRead is a FlashBackend's reusable set-read state: the bytes of the
// wavelet chunk being decoded and the buffers it decodes into and, for
// the duration of one QueryRanges call, its requests plus the index that
// routes a decoded record to every request for its mote.
type rangeRead struct {
	chunk  []byte
	ts     []int64
	wv     wavelet.Scratch
	first  map[radio.NodeID]int // mote → its last request
	next   []int                // request → the previous one for its mote, -1 ends
	lo, hi []simtime.Time
	out    [][]Record
}

// head returns m's last request, -1 when m was not asked for.
func (rr *rangeRead) head(m radio.NodeID) int {
	if i, ok := rr.first[m]; ok {
		return i
	}
	return -1
}

// wants reports whether some request for m overlaps [t0, t1].
func (rr *rangeRead) wants(m radio.NodeID, t0, t1 simtime.Time) bool {
	for i := rr.head(m); i >= 0; i = rr.next[i] {
		if rr.lo[i] <= t1 && rr.hi[i] >= t0 {
			return true
		}
	}
	return false
}

// route appends a decoded record to every request in the chain from
// head (its mote's, see head) whose window holds it.
func (rr *rangeRead) route(head int, r Record) {
	for i := head; i >= 0; i = rr.next[i] {
		if r.T >= rr.lo[i] && r.T <= rr.hi[i] {
			rr.out[i] = append(rr.out[i], r)
		}
	}
}

// QueryRange returns m's records in [t0, t1] in a fresh slice: the
// one-mote case of QueryRanges.
func (b *FlashBackend) QueryRange(m radio.NodeID, t0, t1 simtime.Time) ([]Record, error) {
	out := [][]Record{nil}
	if err := b.QueryRanges([]radio.NodeID{m}, []simtime.Time{t0}, []simtime.Time{t1}, out); err != nil {
		return nil, err
	}
	return out[0], nil
}

// QueryRanges is the flash backend's one range read, a set operation: it
// walks the segment list once and touches a segment only when some
// requested mote's span there overlaps that mote's window. A raw segment
// reads only the pages whose span meets the union of the windows, each
// page once, decoding records in place from one reused page buffer. A
// wavelet segment decodes, at most once, each directory chunk some request
// wants, reading each page at most once. The unflushed tail is scanned
// once. PagesRead and RecordsScanned count that work; QueryRanges and
// RecordsMatched count per mote.
func (b *FlashBackend) QueryRanges(ms []radio.NodeID, lo, hi []simtime.Time, out [][]Record) error {
	if err := checkRanges(ms, lo, hi, out); err != nil || len(ms) == 0 {
		return err
	}
	rr := &b.rr
	clear(rr.first)
	rr.next = rr.next[:0]
	rr.lo, rr.hi, rr.out = lo, hi, out
	wlo, whi := lo[0], hi[0]
	for i, m := range ms {
		out[i] = out[i][:0]
		rr.next = append(rr.next, rr.head(m))
		rr.first[m] = i
		wlo, whi = min(wlo, lo[i]), max(whi, hi[i])
	}
	err := b.scanRanges(ms, wlo, whi)
	rr.lo, rr.hi, rr.out = nil, nil, nil
	if err != nil {
		return err
	}
	for i := range out {
		slices.SortFunc(out[i], byTime)
		out[i] = dedupeSorted(out[i])
		b.stats.QueryRanges++
		b.stats.RecordsMatched += uint64(len(out[i]))
	}
	return nil
}

// scanRanges is QueryRanges' walk: segments oldest first, then the
// pending tail, routing each matching record in decode order.
func (b *FlashBackend) scanRanges(ms []radio.NodeID, wlo, whi simtime.Time) error {
	rr := &b.rr
	for s := range b.log.Segs {
		seg := &b.log.Segs[s]
		touched := false
		for i, m := range ms {
			if seg.Meta.overlaps(m, rr.lo[i], rr.hi[i]) {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		if seg.Meta.kind == segWavelet {
			// Decode the chunks some request wants; records in the others
			// count as skipped, the read amplification the directory
			// avoided.
			decoded, err := b.readChunks(seg, func(de chunkDirEntry) bool { return rr.wants(de.m, de.minT, de.maxT) },
				func(m radio.NodeID, ts []int64, recon []float64, bound float64) {
					head := rr.head(m)
					for i, t := range ts {
						rr.route(head, Record{T: simtime.Time(t), V: recon[i], ErrBound: bound})
					}
				})
			b.stats.RecordsScanned += uint64(decoded)
			b.stats.RecordsSkipped += uint64(seg.Count - decoded)
			if err != nil {
				return err
			}
			continue
		}
		for p, ps := range seg.Meta.pageSpans {
			if ps.maxT < wlo || ps.minT > whi {
				continue
			}
			page, err := b.log.ReadPage(seg.Block, p)
			if err != nil {
				return err
			}
			for i := 0; i < b.log.PerPage(); i++ {
				if slot, ok := b.log.Slot(page, i); ok {
					fr := recCodec{}.Get(slot)
					b.stats.RecordsScanned++
					rr.route(rr.head(fr.m), fr.r)
				}
			}
		}
	}
	b.stats.RecordsScanned += uint64(len(b.log.Pending))
	for _, fr := range b.log.Pending {
		rr.route(rr.head(fr.m), fr.r)
	}
	return nil
}

// readChunks decodes the chunks of a wavelet segment that want accepts,
// reading each page at most once, and hands each to fn: the directory's
// mote, the timestamps, their reconstructed values and the chunk's bound.
// The directory is in stream order, so a page shared by two wanted
// chunks is still in the page buffer when the second needs it.
func (b *FlashBackend) readChunks(seg *segment, want func(chunkDirEntry) bool, fn func(radio.NodeID, []int64, []float64, float64)) (decoded int, err error) {
	rr := &b.rr
	ps := b.dev.Geometry().PageSize
	var page []byte
	inBuf := -1 // page held in page
	for _, de := range seg.Meta.dir {
		if !want(de) {
			continue
		}
		rr.chunk = rr.chunk[:0]
		for off, end := de.off, de.off+de.size; off < end; {
			if p := off / ps; p != inBuf {
				if page, err = b.log.ReadPage(seg.Block, p); err != nil {
					return decoded, err
				}
				inBuf = p
			}
			in := off % ps
			n := min(ps-in, end-off)
			if in+n > len(page) {
				return decoded, fmt.Errorf("store: wavelet chunk at %d+%d runs past its page", de.off, de.size)
			}
			rr.chunk = append(rr.chunk, page[in:in+n]...)
			off += n
		}
		_, ts, recon, bound, _, err := rr.decodeChunk(rr.chunk)
		if err != nil {
			return decoded, err
		}
		decoded += len(ts)
		fn(de.m, ts, recon, bound)
	}
	return decoded, nil
}

// byTime orders records by timestamp.
func byTime(a, b Record) int { return cmp.Compare(a.T, b.T) }

// Latest returns the newest record appended for a mote (tracked in RAM —
// the log's tail is always hot).
func (b *FlashBackend) Latest(m radio.NodeID) (Record, bool) {
	b.stats.LatestReads++
	r, ok := b.latest[m]
	return r, ok
}

// Stats returns cumulative counters. The page counts are the device's:
// every page the backend programs or reads goes through its log.
func (b *FlashBackend) Stats() BackendStats {
	st := b.stats
	st.PagesRead, st.PagesWritten, _ = b.dev.Stats()
	return st
}
