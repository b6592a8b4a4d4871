package store

// FlashBackend: the paper's flash-archival proxy store as a log-structured
// record log on simulated NAND (internal/flash).
//
// Confirmed observations from every mote in the domain are appended to one
// shared log in arrival order: records pack into page-sized buffers and
// each full buffer costs exactly one page-program operation — the
// page-append write pattern that makes flash archival two orders of
// magnitude cheaper per byte than radio. One erase block is one segment; a
// compact in-RAM index tracks, per segment, the [minT, maxT] span of each
// mote's records, and per raw page the [minT, maxT] of the records on it.
// A range read is a set operation over a round's motes (QueryRanges): it
// walks the segment list once, touches only segments some requested mote
// overlaps, reads only pages whose span meets the round's window, and
// decodes each page once, routing every record to the motes that asked.
// Because arrival order interleaves motes, young segments still exhibit
// read amplification (records decoded per record returned — see
// BackendStats.ReadAmp); when the device runs out of erased blocks, a
// compaction pass rewrites the oldest segments clustered by mote and
// coarsened in time, reclaiming blocks and repairing locality at once.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/radio"
	"presto/internal/simtime"
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

// flashSegment is one sealed-or-open erase block of the log.
type flashSegment struct {
	block int
	pages int
	count int // records decodable from the segment (reconstructed for wavelet)
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

// pageSpan is the [minT, maxT] of the records on one raw page.
type pageSpan struct{ minT, maxT simtime.Time }

// spanOf returns the time span of a page's worth of records.
func spanOf(recs []flashRec) pageSpan {
	sp := pageSpan{minT: recs[0].r.T, maxT: recs[0].r.T}
	for _, fr := range recs[1:] {
		sp.minT = min(sp.minT, fr.r.T)
		sp.maxT = max(sp.maxT, fr.r.T)
	}
	return sp
}

func (seg *flashSegment) note(m radio.NodeID, t simtime.Time) {
	sp, ok := seg.spans[m]
	if !ok {
		seg.spans[m] = &moteSpan{minT: t, maxT: t, count: 1}
		return
	}
	if t < sp.minT {
		sp.minT = t
	}
	if t > sp.maxT {
		sp.maxT = t
	}
	sp.count++
}

// overlaps reports whether the segment can hold records for m in [t0, t1].
func (seg *flashSegment) overlaps(m radio.NodeID, t0, t1 simtime.Time) bool {
	sp, ok := seg.spans[m]
	return ok && sp.minT <= t1 && sp.maxT >= t0
}

// flashRec pairs a record with its mote for log encoding.
type flashRec struct {
	m radio.NodeID
	r Record
}

// FlashBackend is the log-structured flash archive. Confined to one shard
// worker; not safe for concurrent use.
type FlashBackend struct {
	dev     *flash.Device
	geo     flash.Geometry
	perPage int
	pol     AgingPolicy

	segs     []*flashSegment // oldest first; the last may be open
	free     []int           // erased blocks (LIFO)
	cur      int             // block being filled, -1 if none
	curPages int
	pending  []flashRec // records not yet flushed to a page

	latest map[radio.NodeID]Record
	stats  BackendStats
	rr     rangeRead
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
	perPage := geo.PageSize / flashRecSize
	if perPage < 1 {
		return nil, fmt.Errorf("store: page size %d too small for one record", geo.PageSize)
	}
	if geo.NumBlocks < compactFanIn+2 {
		return nil, fmt.Errorf("store: flash backend needs at least %d blocks", compactFanIn+2)
	}
	b := &FlashBackend{
		dev:     dev,
		geo:     geo,
		perPage: perPage,
		pol:     pol.normalized(),
		cur:     -1,
		latest:  make(map[radio.NodeID]Record),
		rr:      rangeRead{first: make(map[radio.NodeID]int)},
	}
	for blk := geo.NumBlocks - 1; blk >= 0; blk-- {
		b.free = append(b.free, blk)
	}
	return b, nil
}

// Device exposes the underlying simulated flash (tests inspect wear and
// op counts).
func (b *FlashBackend) Device() *flash.Device { return b.dev }

// AgingPolicy returns the compaction aging policy in effect.
func (b *FlashBackend) AgingPolicy() AgingPolicy { return b.pol }

// OccupiedBlocks reports how many erase blocks currently hold data —
// the device occupancy experiments equalize when comparing aging modes.
func (b *FlashBackend) OccupiedBlocks() int { return b.geo.NumBlocks - len(b.free) }

// Append logs one confirmed observation.
func (b *FlashBackend) Append(m radio.NodeID, r Record) error {
	b.stats.Appends++
	b.stats.Records++
	// Ties on timestamp keep the tighter bound, mirroring the query-path
	// dedupe rule (an exact push must not be shadowed by a lossy backfill).
	if last, ok := b.latest[m]; !ok || r.T > last.T ||
		(r.T == last.T && r.ErrBound <= last.ErrBound) {
		b.latest[m] = r
	}
	b.pending = append(b.pending, flashRec{m: m, r: r})
	if len(b.pending) >= b.perPage {
		if err := b.flushPage(); err != nil {
			// Device full and compaction cannot reclaim space: shed the
			// oldest buffered page so RAM stays bounded, and surface the
			// error so the sink can count the drop. A mote whose only
			// record was shed loses its Latest entry (conservative: the
			// coverage pre-check then bails instead of trusting a phantom).
			if len(b.pending) > 4*b.perPage {
				shed := b.pending[:b.perPage]
				b.pending = b.pending[b.perPage:]
				b.stats.Records -= uint64(len(shed))
				b.stats.Dropped += uint64(len(shed))
				for _, fr := range shed {
					if cur, ok := b.latest[fr.m]; ok && cur.T == fr.r.T && !b.survives(fr.m, fr.r.T) {
						delete(b.latest, fr.m)
					}
				}
			}
			return err
		}
	}
	return nil
}

// survives reports whether mote m still holds a record at time >= t in
// the flushed segments or the remaining pending buffer.
func (b *FlashBackend) survives(m radio.NodeID, t simtime.Time) bool {
	for _, fr := range b.pending {
		if fr.m == m && fr.r.T >= t {
			return true
		}
	}
	for _, seg := range b.segs {
		if sp, ok := seg.spans[m]; ok && sp.maxT >= t {
			return true
		}
	}
	return false
}

// flushPage programs one page of pending records.
func (b *FlashBackend) flushPage() error {
	if len(b.pending) == 0 {
		return nil
	}
	if b.cur < 0 {
		if err := b.openBlock(); err != nil {
			return err
		}
	}
	n := len(b.pending)
	if n > b.perPage {
		n = b.perPage
	}
	buf := encodePage(b.geo.PageSize, b.perPage, b.pending[:n])
	page := b.cur*b.geo.PagesPerBlock + b.curPages
	if err := b.dev.Write(page, buf); err != nil {
		return fmt.Errorf("store: flash page write: %w", err)
	}
	b.stats.PagesWritten++
	seg := b.segs[len(b.segs)-1]
	for _, fr := range b.pending[:n] {
		seg.note(fr.m, fr.r.T)
	}
	seg.count += n
	seg.pages++
	seg.pageSpans = append(seg.pageSpans, spanOf(b.pending[:n]))
	b.curPages++
	b.pending = b.pending[n:]
	if b.curPages == b.geo.PagesPerBlock {
		b.cur = -1 // block sealed; next flush opens a new one
	}
	return nil
}

// encodePage packs records into one page image, padding unused slots with
// a sentinel timestamp.
func encodePage(pageSize, perPage int, recs []flashRec) []byte {
	buf := make([]byte, pageSize)
	for i := 0; i < perPage; i++ {
		off := i * flashRecSize
		if i < len(recs) {
			binary.LittleEndian.PutUint32(buf[off:], uint32(recs[i].m))
			binary.LittleEndian.PutUint64(buf[off+4:], uint64(recs[i].r.T))
			binary.LittleEndian.PutUint32(buf[off+12:], math.Float32bits(float32(recs[i].r.V)))
			binary.LittleEndian.PutUint32(buf[off+16:], math.Float32bits(wireBound(recs[i].r.V, recs[i].r.ErrBound)))
		} else {
			binary.LittleEndian.PutUint64(buf[off+4:], math.MaxUint64) // padding
		}
	}
	return buf
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

// openBlock allocates a fresh block, compacting when the device runs low.
// One block stays in reserve so compaction always has an output block.
func (b *FlashBackend) openBlock() error {
	if len(b.free) <= 1 {
		if err := b.compact(); err != nil {
			return err
		}
	}
	if len(b.free) == 0 {
		return ErrBackendFull
	}
	blk := b.free[len(b.free)-1]
	b.free = b.free[:len(b.free)-1]
	b.cur = blk
	b.curPages = 0
	b.segs = append(b.segs, &flashSegment{block: blk, spans: make(map[radio.NodeID]*moteSpan)})
	return nil
}

// compact rewrites the oldest compactFanIn sealed segments into one block,
// reclaiming fanIn-1 blocks and repairing the read locality the
// arrival-order log lacks. Records are clustered by mote, time-sorted and
// deduplicated, then aged per the backend's AgingPolicy: wavelet mode
// (default) summarizes each mote's run as multi-resolution coefficient
// chunks — every timestamp survives, value detail decays with the
// segment's age level — while uniform mode merges groups of consecutive
// records into widened-bound means (the legacy behaviour). Either way the
// output's error bounds cover every record it stands for.
func (b *FlashBackend) compact() error {
	sealed := len(b.segs)
	if b.cur >= 0 {
		sealed--
	}
	if sealed < compactFanIn {
		return ErrBackendFull
	}
	victims := b.segs[:compactFanIn]
	perMote := make(map[radio.NodeID][]Record)
	var order []radio.NodeID
	rawTotal := 0
	level := 0
	for _, seg := range victims {
		recs, err := b.readSegment(seg)
		if err != nil {
			return err
		}
		rawTotal += len(recs)
		if seg.level > level {
			level = seg.level
		}
		for _, fr := range recs {
			if _, ok := perMote[fr.m]; !ok {
				order = append(order, fr.m)
			}
			perMote[fr.m] = append(perMote[fr.m], fr.r)
		}
	}
	level++ // the rewritten segment is one aging step older than its inputs
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	var total int
	for _, m := range order {
		s := perMote[m]
		sort.Slice(s, func(i, j int) bool { return s[i].T < s[j].T })
		s = dedupeSorted(s)
		perMote[m] = s
		total += len(s)
	}

	// Plan the aged output: the reconstructable records (for the index and
	// Latest repair) plus a writer that lays them into the reserve block.
	var out []flashRec
	var write func(blk int, seg *flashSegment) error
	var err error
	if b.pol.Mode == AgingUniform {
		out, write, err = b.planUniform(order, perMote, total)
	} else {
		out, write, err = b.planWavelet(order, perMote, level)
	}
	if err != nil {
		return err
	}
	// Everything that did not survive — coarsening-merged or duplicate
	// timestamps collapsed by the dedupe — left the store.
	merged := uint64(rawTotal - len(out))

	// Write the aged survivors into the reserve block.
	if len(b.free) == 0 {
		return ErrBackendFull
	}
	blk := b.free[len(b.free)-1]
	b.free = b.free[:len(b.free)-1]
	seg := &flashSegment{block: blk, level: level, spans: make(map[radio.NodeID]*moteSpan)}
	if err := write(blk, seg); err != nil {
		return err
	}
	for _, fr := range out {
		seg.note(fr.m, fr.r.T)
	}
	seg.count = len(out)

	for _, v := range victims {
		if err := b.dev.EraseBlock(v.block); err != nil {
			return err
		}
		b.free = append(b.free, v.block)
	}
	rest := append([]*flashSegment(nil), b.segs[compactFanIn:]...)
	b.segs = append([]*flashSegment{seg}, rest...)
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
	newestOut := make(map[radio.NodeID]Record)
	for _, fr := range out {
		if r, ok := newestOut[fr.m]; !ok || fr.r.T >= r.T {
			newestOut[fr.m] = fr.r
		}
	}
	for m := range perMote {
		cur, ok := b.latest[m]
		if !ok {
			continue
		}
		if nr, ok := newestOut[m]; ok && nr.T == cur.T && !b.survivesElsewhere(m, cur.T) {
			b.latest[m] = nr // same instant, now reconstructed
			continue
		}
		if b.survives(m, cur.T) {
			continue
		}
		if nr, ok := newestOut[m]; ok {
			b.latest[m] = nr
		} else {
			delete(b.latest, m)
		}
	}
	return nil
}

// planUniform coarsens each mote's run just enough that the merged output
// fits one block of fixed-size records. The output size is the sum of
// per-mote ceilings, so ceil(total/capacity) alone can overflow by up to
// one record per mote on uneven interleaves — the factor grows until the
// rounded total actually fits.
func (b *FlashBackend) planUniform(order []radio.NodeID, perMote map[radio.NodeID][]Record, total int) ([]flashRec, func(int, *flashSegment) error, error) {
	capacity := b.geo.PagesPerBlock * b.perPage
	factor := (total + capacity - 1) / capacity
	if factor < 2 {
		factor = 2
	}
	coarseTotal := func(f int) int {
		n := 0
		for _, m := range order {
			n += (len(perMote[m]) + f - 1) / f
		}
		return n
	}
	for coarseTotal(factor) > capacity && factor < total {
		factor++
	}
	var out []flashRec
	for _, m := range order {
		for _, r := range coarsenRecords(perMote[m], factor) {
			out = append(out, flashRec{m: m, r: r})
		}
	}
	if len(out) > capacity {
		return nil, nil, fmt.Errorf("store: compaction output %d exceeds block capacity %d", len(out), capacity)
	}
	write := func(blk int, seg *flashSegment) error {
		seg.kind = segRaw
		for p := 0; p*b.perPage < len(out); p++ {
			end := (p + 1) * b.perPage
			if end > len(out) {
				end = len(out)
			}
			batch := out[p*b.perPage : end]
			if err := b.dev.Write(blk*b.geo.PagesPerBlock+p, encodePage(b.geo.PageSize, b.perPage, batch)); err != nil {
				return fmt.Errorf("store: compaction write: %w", err)
			}
			b.stats.PagesWritten++
			seg.pages++
			seg.pageSpans = append(seg.pageSpans, spanOf(batch))
		}
		return nil
	}
	return out, write, nil
}

// planWavelet summarizes each mote's run as wavelet chunks at the level's
// tier fraction, shrinking until the encoded stream fits one block: first
// by halving the coefficient fraction, then — once chunks are down to a
// couple of coefficients — by thinning the time grid onto an age-octave
// pyramid (pyramidThin) whose base cell width doubles per round. Old data
// thus degrades progressively, oldest-coarsest, instead of being
// discarded wholesale.
func (b *FlashBackend) planWavelet(order []radio.NodeID, perMote map[radio.NodeID][]Record, level int) ([]flashRec, func(int, *flashSegment) error, error) {
	capBytes := b.geo.PagesPerBlock * b.geo.PageSize
	// Infeasibility precheck: even one record per mote costs at least a
	// chunk header, a timestamp byte and one coefficient. Failing fast
	// here keeps a permanently-full device (Append keeps retrying
	// compaction) from paying the whole shrink loop on every append.
	const minChunkBytes = chunkHeaderSize + 1 + 12 + 8
	if len(order)*minChunkBytes > capBytes {
		return nil, nil, fmt.Errorf("store: wavelet compaction cannot fit %d motes in a %d-byte block", len(order), capBytes)
	}
	frac := b.pol.fraction(level)
	window := b.pol.ChunkWindow
	grid := perMote
	maxLen := 0
	for _, rs := range perMote {
		if len(rs) > maxLen {
			maxLen = len(rs)
		}
	}
	// Halving frac below one kept coefficient per largest actual chunk is
	// a no-op (short runs floor at k = 1 long before frac*window does) —
	// gate on the real transform length so no byte-identical rebuild runs.
	maxChunk := maxLen
	if maxChunk > window {
		maxChunk = window
	}
	round := 0
	for {
		chunks, out, size, err := b.buildWavelet(order, grid, frac, window)
		if err != nil {
			return nil, nil, err
		}
		if size <= capBytes {
			write := func(blk int, seg *flashSegment) error {
				seg.kind = segWavelet
				stream := make([]byte, 0, size)
				for _, ch := range chunks {
					// Directory entry first: the chunk starts at the
					// stream's current length. A chunk is one mote's
					// time-ordered run, so first/last records bound it.
					seg.dir = append(seg.dir, chunkDirEntry{
						m:     ch.recs[0].m,
						off:   len(stream),
						size:  len(ch.bytes),
						count: len(ch.recs),
						minT:  ch.recs[0].r.T,
						maxT:  ch.recs[len(ch.recs)-1].r.T,
					})
					stream = append(stream, ch.bytes...)
				}
				for p := 0; len(stream) > 0; p++ {
					n := b.geo.PageSize
					if n > len(stream) {
						n = len(stream)
					}
					if err := b.dev.Write(blk*b.geo.PagesPerBlock+p, stream[:n]); err != nil {
						return fmt.Errorf("store: compaction write: %w", err)
					}
					b.stats.PagesWritten++
					seg.pages++
					stream = stream[n:]
				}
				b.stats.WaveletChunks += uint64(len(chunks))
				return nil
			}
			return out, write, nil
		}
		if frac*float64(wavelet.NextPow2(maxChunk)) > 2 {
			frac /= 2 // drop more coefficients first
			continue
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
			return nil, nil, fmt.Errorf("store: wavelet compaction output %d bytes exceeds block capacity %d", size, capBytes)
		}
		thinned := make(map[radio.NodeID][]Record, len(perMote))
		for m, rs := range perMote {
			if len(rs) < 2 {
				thinned[m] = rs
				continue
			}
			span := rs[len(rs)-1].T - rs[0].T
			w := span / simtime.Time(len(rs)) // current mean spacing
			if w <= 0 {
				w = 1
			}
			thinned[m] = pyramidThin(rs, w<<round)
		}
		grid = thinned
	}
}

// buildWavelet encodes every mote's run into chunks of at most window
// records at the given coefficient fraction, returning the chunks, the
// reconstructable records, and the total encoded size.
func (b *FlashBackend) buildWavelet(order []radio.NodeID, grid map[radio.NodeID][]Record, frac float64, window int) ([]waveletChunk, []flashRec, int, error) {
	var chunks []waveletChunk
	var out []flashRec
	size := 0
	for _, m := range order {
		rs := grid[m]
		for i := 0; i < len(rs); i += window {
			end := i + window
			if end > len(rs) {
				end = len(rs)
			}
			ch, err := summarizeChunk(m, rs[i:end], frac)
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

// survivesElsewhere is survives restricted to the pending buffer and the
// segments other than the just-written head — used to tell "this exact
// record still exists raw somewhere" apart from "only the reconstruction
// stands for it now".
func (b *FlashBackend) survivesElsewhere(m radio.NodeID, t simtime.Time) bool {
	for _, fr := range b.pending {
		if fr.m == m && fr.r.T >= t {
			return true
		}
	}
	for _, seg := range b.segs[1:] {
		if sp, ok := seg.spans[m]; ok && sp.maxT >= t {
			return true
		}
	}
	return false
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

// readPage reads one device page into the backend's reusable page buffer.
func (b *FlashBackend) readPage(page int) error {
	buf, err := b.dev.Read(page, b.rr.page)
	if err != nil {
		return fmt.Errorf("store: segment read: %w", err)
	}
	b.rr.page = buf
	b.stats.PagesRead++
	return nil
}

// rawRecord decodes slot i of a raw page; ok is false for padding.
func rawRecord(page []byte, i int) (fr flashRec, ok bool) {
	off := i * flashRecSize
	rawT := binary.LittleEndian.Uint64(page[off+4:])
	if rawT == math.MaxUint64 {
		return flashRec{}, false
	}
	return flashRec{
		m: radio.NodeID(binary.LittleEndian.Uint32(page[off:])),
		r: Record{
			T:        simtime.Time(rawT),
			V:        float64(math.Float32frombits(binary.LittleEndian.Uint32(page[off+12:]))),
			ErrBound: float64(math.Float32frombits(binary.LittleEndian.Uint32(page[off+16:]))),
		},
	}, true
}

// slots returns how many record slots a raw page read holds.
func (b *FlashBackend) slots(page []byte) int {
	return min(b.perPage, len(page)/flashRecSize)
}

// readSegment decodes every record in a segment, paying the page reads —
// compaction's input. Wavelet segments reconstruct their records from the
// stored summary chunks: every summarized timestamp comes back, carrying
// the chunk's widened error bound.
func (b *FlashBackend) readSegment(seg *flashSegment) ([]flashRec, error) {
	base := seg.block * b.geo.PagesPerBlock
	if seg.kind == segWavelet {
		var stream []byte
		for p := 0; p < seg.pages; p++ {
			if err := b.readPage(base + p); err != nil {
				return nil, err
			}
			stream = append(stream, b.rr.page...)
		}
		return decodeChunks(stream)
	}
	out := make([]flashRec, 0, seg.count)
	for p := 0; p < seg.pages; p++ {
		if err := b.readPage(base + p); err != nil {
			return nil, err
		}
		for i := 0; i < b.slots(b.rr.page); i++ {
			if fr, ok := rawRecord(b.rr.page, i); ok {
				out = append(out, fr)
			}
		}
	}
	return out, nil
}

// rangeRead is a FlashBackend's reusable set-read state: the page buffer,
// the bytes of the wavelet chunk being decoded, and, for the duration of
// one QueryRanges call, its requests plus the index that routes a decoded
// record to every request for its mote.
type rangeRead struct {
	page, chunk []byte
	first       map[radio.NodeID]int // mote → its last request
	next        []int                // request → the previous one for its mote, -1 ends
	lo, hi      []simtime.Time
	out         [][]Record
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
	return queryOne(b, m, t0, t1)
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
	for _, seg := range b.segs {
		touched := false
		for i, m := range ms {
			if seg.overlaps(m, rr.lo[i], rr.hi[i]) {
				touched = true
				break
			}
		}
		if !touched {
			continue
		}
		if seg.kind == segWavelet {
			if err := b.scanWavelet(seg); err != nil {
				return err
			}
			continue
		}
		base := seg.block * b.geo.PagesPerBlock
		for p, ps := range seg.pageSpans {
			if ps.maxT < wlo || ps.minT > whi {
				continue
			}
			if err := b.readPage(base + p); err != nil {
				return err
			}
			for i := 0; i < b.slots(rr.page); i++ {
				if fr, ok := rawRecord(rr.page, i); ok {
					b.stats.RecordsScanned++
					rr.route(rr.head(fr.m), fr.r)
				}
			}
		}
	}
	b.stats.RecordsScanned += uint64(len(b.pending))
	for _, fr := range b.pending {
		rr.route(rr.head(fr.m), fr.r)
	}
	return nil
}

// scanWavelet decodes the chunks of a wavelet segment that some request
// wants. The directory is in stream order, so a page shared by two
// wanted chunks is still in the page buffer when the second needs it.
// Records in the chunks left undecoded count as skipped — the read
// amplification the directory avoided.
func (b *FlashBackend) scanWavelet(seg *flashSegment) error {
	rr := &b.rr
	base := seg.block * b.geo.PagesPerBlock
	ps := b.geo.PageSize
	inBuf := -1 // page held in rr.page
	decoded := 0
	for _, de := range seg.dir {
		if !rr.wants(de.m, de.minT, de.maxT) {
			continue
		}
		rr.chunk = rr.chunk[:0]
		for off, end := de.off, de.off+de.size; off < end; {
			if p := off / ps; p != inBuf {
				if err := b.readPage(base + p); err != nil {
					return err
				}
				inBuf = p
			}
			in := off % ps
			n := min(ps-in, end-off)
			if in+n > len(rr.page) {
				return fmt.Errorf("store: wavelet chunk at %d+%d runs past its page", de.off, de.size)
			}
			rr.chunk = append(rr.chunk, rr.page[in:in+n]...)
			off += n
		}
		_, ts, recon, bound, _, err := decodeChunk(rr.chunk)
		if err != nil {
			return err
		}
		decoded += len(ts)
		head := rr.head(de.m)
		for i, t := range ts {
			rr.route(head, Record{T: simtime.Time(t), V: recon[i], ErrBound: bound})
		}
	}
	b.stats.RecordsScanned += uint64(decoded)
	b.stats.RecordsSkipped += uint64(seg.count - decoded)
	return nil
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

// Stats returns cumulative counters.
func (b *FlashBackend) Stats() BackendStats { return b.stats }
