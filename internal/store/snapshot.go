package store

import (
	"fmt"
	"io"
	"sort"

	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/snap"
)

// Snapshot externalizes the store's routing counters and its archive
// backend. The index, proxy attachments and per-mote intervals are
// deployment topology, rebuilt identically by the restoring side.
func (s *Store) Snapshot(w io.Writer) error {
	var e snap.Enc
	e.U64(s.rstats.Routed)
	e.U64(s.rstats.ReplicaRouted)
	e.U64(s.rstats.ReplicaStale)
	e.U64(s.rstats.ArchiveServed)
	e.U64(s.rstats.ArchiveStale)
	if err := snap.WriteBlock(w, snap.TagStore, e.Data()); err != nil {
		return err
	}
	return s.backend.Snapshot(w)
}

// Restore reinstalls state captured by Snapshot. The backend must be of
// the same kind the snapshot was taken from (both sides build from the
// same deployment config).
func (s *Store) Restore(r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagStore)
	if err != nil {
		return err
	}
	d := snap.NewDec(body)
	s.rstats.Routed = d.U64()
	s.rstats.ReplicaRouted = d.U64()
	s.rstats.ReplicaStale = d.U64()
	s.rstats.ArchiveServed = d.U64()
	s.rstats.ArchiveStale = d.U64()
	if err := d.Done(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return s.backend.Restore(r)
}

// encodeBackendStats appends every BackendStats counter.
func encodeBackendStats(e *snap.Enc, st BackendStats) {
	e.U64(st.Appends)
	e.U64(st.Records)
	e.U64(st.QueryRanges)
	e.U64(st.LatestReads)
	e.U64(st.PagesWritten)
	e.U64(st.PagesRead)
	e.U64(st.RecordsScanned)
	e.U64(st.RecordsMatched)
	e.U64(st.RecordsSkipped)
	e.U64(st.Compactions)
	e.U64(st.Coarsened)
	e.U64(st.WaveletChunks)
	e.U64(st.Dropped)
}

func decodeBackendStats(d *snap.Dec) BackendStats {
	var st BackendStats
	st.Appends = d.U64()
	st.Records = d.U64()
	st.QueryRanges = d.U64()
	st.LatestReads = d.U64()
	st.PagesWritten = d.U64()
	st.PagesRead = d.U64()
	st.RecordsScanned = d.U64()
	st.RecordsMatched = d.U64()
	st.RecordsSkipped = d.U64()
	st.Compactions = d.U64()
	st.Coarsened = d.U64()
	st.WaveletChunks = d.U64()
	st.Dropped = d.U64()
	return st
}

func sortedMotes[V any](m map[radio.NodeID]V) []radio.NodeID {
	ids := make([]radio.NodeID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Snapshot externalizes the in-memory backend: per-mote record runs (in
// ascending mote order for deterministic bytes) plus counters.
func (b *MemBackend) Snapshot(w io.Writer) error {
	var e snap.Enc
	encodeBackendStats(&e, b.stats)
	ids := sortedMotes(b.series)
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		recs := b.series[id]
		e.I64(int64(id))
		e.Uvarint(uint64(len(recs)))
		for _, rec := range recs {
			e.I64(int64(rec.T))
			e.F64(rec.V)
			e.F64(rec.ErrBound)
		}
	}
	return snap.WriteBlock(w, snap.TagBackend, e.Data())
}

// Restore overwrites the backend with state captured by Snapshot.
func (b *MemBackend) Restore(r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagBackend)
	if err != nil {
		return err
	}
	d := snap.NewDec(body)
	b.stats = decodeBackendStats(d)
	b.series = make(map[radio.NodeID][]Record)
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		id := radio.NodeID(d.I64())
		cnt := d.Count()
		recs := make([]Record, 0, cnt)
		for j := 0; j < cnt && d.Err() == nil; j++ {
			recs = append(recs, Record{T: simtime.Time(d.I64()), V: d.F64(), ErrBound: d.F64()})
		}
		b.series[id] = recs
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("store: mem backend: %w", err)
	}
	return nil
}

// Snapshot externalizes the log-structured backend: the in-RAM segment
// directory (spans, wavelet chunk directories, raw page spans), free list, open
// block, pending buffer, per-mote latest records and counters — then the
// flash device itself. Everything is read by direct field access, never
// through device reads, so a snapshot charges nothing and perturbs no
// read-amplification stats.
func (b *FlashBackend) Snapshot(w io.Writer) error {
	var e snap.Enc
	encodeBackendStats(&e, b.stats)
	e.Uvarint(uint64(len(b.segs)))
	for _, seg := range b.segs {
		e.Uvarint(uint64(seg.block))
		e.Uvarint(uint64(seg.pages))
		e.Uvarint(uint64(seg.count))
		e.Uvarint(uint64(seg.kind))
		e.Uvarint(uint64(seg.level))
		spanIDs := sortedMotes(seg.spans)
		e.Uvarint(uint64(len(spanIDs)))
		for _, id := range spanIDs {
			sp := seg.spans[id]
			e.I64(int64(id))
			e.I64(int64(sp.minT))
			e.I64(int64(sp.maxT))
			e.Uvarint(uint64(sp.count))
		}
		e.Uvarint(uint64(len(seg.dir)))
		for _, ce := range seg.dir {
			e.I64(int64(ce.m))
			e.Uvarint(uint64(ce.off))
			e.Uvarint(uint64(ce.size))
			e.Uvarint(uint64(ce.count))
			e.I64(int64(ce.minT))
			e.I64(int64(ce.maxT))
		}
		e.Uvarint(uint64(len(seg.pageSpans)))
		for _, ps := range seg.pageSpans {
			e.I64(int64(ps.minT))
			e.I64(int64(ps.maxT))
		}
	}
	e.Uvarint(uint64(len(b.free)))
	for _, blk := range b.free {
		e.Uvarint(uint64(blk))
	}
	e.I64(int64(b.cur))
	e.Uvarint(uint64(b.curPages))
	e.Uvarint(uint64(len(b.pending)))
	for _, p := range b.pending {
		e.I64(int64(p.m))
		e.I64(int64(p.r.T))
		e.F64(p.r.V)
		e.F64(p.r.ErrBound)
	}
	ids := sortedMotes(b.latest)
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		rec := b.latest[id]
		e.I64(int64(id))
		e.I64(int64(rec.T))
		e.F64(rec.V)
		e.F64(rec.ErrBound)
	}
	if err := snap.WriteBlock(w, snap.TagBackend, e.Data()); err != nil {
		return err
	}
	return b.dev.Snapshot(w)
}

// Restore overwrites the backend (and its device) with state captured by
// Snapshot. The segment table is checked before it is installed: a table
// that would make a later append or read index outside the device or the
// segment list is refused with an error, leaving the backend as it was.
func (b *FlashBackend) Restore(r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagBackend)
	if err != nil {
		return err
	}
	d := snap.NewDec(body)
	stats := decodeBackendStats(d)
	var segs []*flashSegment
	nSegs := d.Uvarint()
	for i := uint64(0); i < nSegs && d.Err() == nil; i++ {
		seg := &flashSegment{
			block: int(d.Uvarint()),
			pages: int(d.Uvarint()),
			count: int(d.Uvarint()),
			kind:  int(d.Uvarint()),
			level: int(d.Uvarint()),
			spans: make(map[radio.NodeID]*moteSpan),
		}
		nSpans := d.Uvarint()
		for j := uint64(0); j < nSpans && d.Err() == nil; j++ {
			id := radio.NodeID(d.I64())
			seg.spans[id] = &moteSpan{
				minT:  simtime.Time(d.I64()),
				maxT:  simtime.Time(d.I64()),
				count: int(d.Uvarint()),
			}
		}
		nDir := d.Uvarint()
		for j := uint64(0); j < nDir && d.Err() == nil; j++ {
			seg.dir = append(seg.dir, chunkDirEntry{
				m:     radio.NodeID(d.I64()),
				off:   int(d.Uvarint()),
				size:  int(d.Uvarint()),
				count: int(d.Uvarint()),
				minT:  simtime.Time(d.I64()),
				maxT:  simtime.Time(d.I64()),
			})
		}
		nPages := d.Uvarint()
		for j := uint64(0); j < nPages && d.Err() == nil; j++ {
			seg.pageSpans = append(seg.pageSpans, pageSpan{minT: simtime.Time(d.I64()), maxT: simtime.Time(d.I64())})
		}
		segs = append(segs, seg)
	}
	var free []int
	nFree := d.Uvarint()
	for i := uint64(0); i < nFree && d.Err() == nil; i++ {
		free = append(free, int(d.Uvarint()))
	}
	cur := int(d.I64())
	curPages := int(d.Uvarint())
	var pending []flashRec
	nPending := d.Uvarint()
	for i := uint64(0); i < nPending && d.Err() == nil; i++ {
		pending = append(pending, flashRec{
			m: radio.NodeID(d.I64()),
			r: Record{T: simtime.Time(d.I64()), V: d.F64(), ErrBound: d.F64()},
		})
	}
	latest := make(map[radio.NodeID]Record)
	nLatest := d.Uvarint()
	for i := uint64(0); i < nLatest && d.Err() == nil; i++ {
		id := radio.NodeID(d.I64())
		latest[id] = Record{T: simtime.Time(d.I64()), V: d.F64(), ErrBound: d.F64()}
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("store: flash backend: %w", err)
	}
	if err := b.checkTable(segs, free, cur, curPages); err != nil {
		return fmt.Errorf("store: flash backend: %w", err)
	}
	b.stats, b.segs, b.free, b.cur, b.curPages, b.pending, b.latest = stats, segs, free, cur, curPages, pending, latest
	return b.dev.Restore(r)
}

// checkTable validates a restored segment table against the backend's
// geometry: the open block is in range and is the last segment's (with
// that segment's page count), every segment's block and page count fit
// the device, every chunk lies within its segment's pages, every raw
// segment carries one page span per page, and every free block is in
// range.
func (b *FlashBackend) checkTable(segs []*flashSegment, free []int, cur, curPages int) error {
	g := b.geo
	if cur < -1 || cur >= g.NumBlocks {
		return fmt.Errorf("open block %d outside [-1, %d)", cur, g.NumBlocks)
	}
	if cur >= 0 {
		if len(segs) == 0 || segs[len(segs)-1].block != cur {
			return fmt.Errorf("open block %d is not the last segment's", cur)
		}
		if last := segs[len(segs)-1]; curPages != last.pages || curPages >= g.PagesPerBlock {
			return fmt.Errorf("open block has %d pages, its segment %d (block of %d)", curPages, last.pages, g.PagesPerBlock)
		}
	}
	for i, seg := range segs {
		if seg.block < 0 || seg.block >= g.NumBlocks {
			return fmt.Errorf("segment %d on block %d outside [0, %d)", i, seg.block, g.NumBlocks)
		}
		if seg.pages < 0 || seg.pages > g.PagesPerBlock {
			return fmt.Errorf("segment %d has %d pages (block of %d)", i, seg.pages, g.PagesPerBlock)
		}
		wantSpans := seg.pages
		switch seg.kind {
		case segRaw:
		case segWavelet:
			wantSpans = 0
		default:
			return fmt.Errorf("segment %d of unknown kind %d", i, seg.kind)
		}
		if len(seg.pageSpans) != wantSpans {
			return fmt.Errorf("segment %d has %d page spans for %d pages", i, len(seg.pageSpans), seg.pages)
		}
		bytes := seg.pages * g.PageSize
		for _, de := range seg.dir {
			if de.off < 0 || de.size < 0 || de.off > bytes || de.size > bytes-de.off {
				return fmt.Errorf("segment %d chunk at %d+%d outside its %d pages", i, de.off, de.size, seg.pages)
			}
		}
	}
	for _, blk := range free {
		if blk < 0 || blk >= g.NumBlocks {
			return fmt.Errorf("free block %d outside [0, %d)", blk, g.NumBlocks)
		}
	}
	return nil
}
