// Package archive implements the PRESTO mote's local archival store: a
// log-structured, time-indexed record store on simulated NAND flash with
// wavelet-style multi-resolution aging.
//
// Section 4 of the paper: "an archival file-system ... that provides
// energy-efficient archival of useful sensor data at each sensor as well as
// a simple time-based index structure to efficiently service read
// requests", and "if storage is constrained on each sensor, graceful aging
// of archived data can be enabled using wavelet-based multi-resolution
// techniques [10]".
//
// Records are appended in time order, packed into flash pages, and indexed
// in RAM by a compact per-segment [minT, maxT] table — a binary-searchable
// time index. When the device runs out of erased blocks, an aging pass
// takes the oldest blocks, re-encodes their records at one quarter the
// temporal resolution (pairwise-of-pairwise means, i.e. two Haar
// approximation levels), writes the coarse summary to a fresh block and
// erases the originals. Old data thus degrades gracefully in resolution
// instead of disappearing.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"presto/internal/flash"
	"presto/internal/simtime"
)

// Errors returned by the store.
var (
	ErrOutOfOrder = errors.New("archive: append is older than the newest record")
	ErrTooSmall   = errors.New("archive: device needs at least 6 erase blocks")
	ErrFull       = errors.New("archive: device full and aging cannot reclaim space")
)

// recordSize is the on-flash encoding size: int64 timestamp + float32 value.
const recordSize = 12

// ageFanIn is how many old blocks one aging pass consumes; their records
// are coarsened by the same factor, so the output fits in one quarter of
// the space and the pass nets ageFanIn-1 free blocks.
const ageFanIn = 4

// Record is one archived observation.
type Record struct {
	T simtime.Time
	V float64
}

// segment describes a contiguous, fully-written range of pages holding
// records in time order.
type segment struct {
	block int // erase block (one segment per block)
	pages int // pages used within the block
	count int // records
	minT  simtime.Time
	maxT  simtime.Time
	level int // 0 = full resolution; each aging pass adds 1
}

// Store is the archival file system. Not safe for concurrent use (the
// simulation core is single-threaded).
type Store struct {
	dev  *flash.Device
	geo  flash.Geometry
	segs []segment // sorted by minT (append order)

	free      []int    // erased, unused blocks (LIFO)
	cur       int      // block being filled, -1 if none
	curPages  int      // pages written in cur
	pending   []Record // records not yet flushed to a page
	perPage   int
	newest    simtime.Time
	hasNewest bool

	appends, agePasses, dropped uint64
}

// Open initializes a store on an empty device.
func Open(dev *flash.Device) (*Store, error) {
	geo := dev.Geometry()
	if geo.NumBlocks < 6 {
		return nil, ErrTooSmall
	}
	s := &Store{
		dev:     dev,
		geo:     geo,
		cur:     -1,
		perPage: geo.PageSize / recordSize,
	}
	if s.perPage < 1 {
		return nil, fmt.Errorf("archive: page size %d too small for one record", geo.PageSize)
	}
	// All blocks start free; hand them out from the end so block 0 is
	// used first (purely cosmetic determinism).
	for b := geo.NumBlocks - 1; b >= 0; b-- {
		s.free = append(s.free, b)
	}
	return s, nil
}

// Append stores one record. Timestamps must be non-decreasing.
func (s *Store) Append(r Record) error {
	if s.hasNewest && r.T < s.newest {
		return ErrOutOfOrder
	}
	s.pending = append(s.pending, r)
	s.newest, s.hasNewest = r.T, true
	s.appends++
	if len(s.pending) >= s.perPage {
		return s.flushPage()
	}
	return nil
}

// Flush forces any buffered records onto flash (padding the final page).
func (s *Store) Flush() error {
	for len(s.pending) > 0 {
		if err := s.flushPage(); err != nil {
			return err
		}
	}
	return nil
}

// flushPage writes up to one page of pending records.
func (s *Store) flushPage() error {
	if len(s.pending) == 0 {
		return nil
	}
	if s.cur < 0 {
		if err := s.openBlock(); err != nil {
			return err
		}
	}
	n := len(s.pending)
	if n > s.perPage {
		n = s.perPage
	}
	batch := s.pending[:n]
	buf := make([]byte, s.geo.PageSize)
	// Page header: record count in the first two bytes? No — pages are
	// fixed-size record arrays; a partial page pads with a sentinel
	// timestamp of -1 which can never occur (time starts at 0).
	for i := 0; i < s.perPage; i++ {
		off := i * recordSize
		if i < n {
			binary.LittleEndian.PutUint64(buf[off:], uint64(batch[i].T))
			binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(float32(batch[i].V)))
		} else {
			binary.LittleEndian.PutUint64(buf[off:], math.MaxUint64) // sentinel
		}
	}
	page := s.cur*s.geo.PagesPerBlock + s.curPages
	if err := s.dev.Write(page, buf); err != nil {
		return fmt.Errorf("archive: page write: %w", err)
	}
	// Update the open segment (always the last in segs).
	seg := &s.segs[len(s.segs)-1]
	if seg.count == 0 {
		seg.minT = batch[0].T
	}
	seg.maxT = batch[n-1].T
	seg.count += n
	seg.pages++
	s.curPages++
	s.pending = s.pending[n:]
	if s.curPages == s.geo.PagesPerBlock {
		s.cur = -1 // block full; next flush opens a new one
	}
	return nil
}

// openBlock allocates a fresh block for writing, aging if necessary.
func (s *Store) openBlock() error {
	// Keep one block in reserve so an aging pass always has somewhere to
	// write its output.
	if len(s.free) <= 1 {
		if err := s.agePass(); err != nil {
			return err
		}
	}
	if len(s.free) == 0 {
		return ErrFull
	}
	b := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	s.cur = b
	s.curPages = 0
	s.segs = append(s.segs, segment{block: b})
	return nil
}

// agePass coarsens the oldest ageFanIn sealed segments of the lowest level
// into one new segment, freeing ageFanIn-1 blocks net.
func (s *Store) agePass() error {
	// Candidates: sealed segments (not the currently-open one).
	sealed := len(s.segs)
	if s.cur >= 0 {
		sealed--
	}
	if sealed < ageFanIn {
		// Not enough history to age; as a last resort drop the oldest
		// sealed segment entirely.
		if sealed >= 1 {
			old := s.segs[0]
			if err := s.dev.EraseBlock(old.block); err != nil {
				return err
			}
			s.free = append(s.free, old.block)
			s.segs = append(s.segs[:0], s.segs[1:]...)
			s.dropped += uint64(old.count)
			return nil
		}
		return ErrFull
	}
	// The oldest ageFanIn sealed segments (segs is in time order).
	victims := make([]segment, ageFanIn)
	copy(victims, s.segs[:ageFanIn])
	var recs []Record
	maxLevel := 0
	for _, v := range victims {
		r, err := s.readSegment(v)
		if err != nil {
			return err
		}
		recs = append(recs, r...)
		if v.level > maxLevel {
			maxLevel = v.level
		}
	}
	coarse := coarsenRecords(recs, ageFanIn)
	// Write the coarse summary into the reserve block.
	if len(s.free) == 0 {
		return ErrFull
	}
	out := s.free[len(s.free)-1]
	s.free = s.free[:len(s.free)-1]
	seg := segment{block: out, level: maxLevel + 1}
	if err := s.writeRecords(out, coarse, &seg); err != nil {
		return err
	}
	// Erase victims and rebuild the segment table: [aged, rest...].
	for _, v := range victims {
		if err := s.dev.EraseBlock(v.block); err != nil {
			return err
		}
		s.free = append(s.free, v.block)
	}
	rest := append([]segment(nil), s.segs[ageFanIn:]...)
	s.segs = append([]segment{seg}, rest...)
	s.agePasses++
	return nil
}

// writeRecords packs records into pages of the given block, updating seg.
func (s *Store) writeRecords(block int, recs []Record, seg *segment) error {
	if len(recs) == 0 {
		return nil
	}
	seg.minT, seg.maxT = recs[0].T, recs[len(recs)-1].T
	seg.count = len(recs)
	for p := 0; p*s.perPage < len(recs); p++ {
		if p >= s.geo.PagesPerBlock {
			return fmt.Errorf("archive: aged records overflow block %d", block)
		}
		buf := make([]byte, s.geo.PageSize)
		for i := 0; i < s.perPage; i++ {
			off := i * recordSize
			idx := p*s.perPage + i
			if idx < len(recs) {
				binary.LittleEndian.PutUint64(buf[off:], uint64(recs[idx].T))
				binary.LittleEndian.PutUint32(buf[off+8:], math.Float32bits(float32(recs[idx].V)))
			} else {
				binary.LittleEndian.PutUint64(buf[off:], math.MaxUint64)
			}
		}
		if err := s.dev.Write(block*s.geo.PagesPerBlock+p, buf); err != nil {
			return err
		}
		seg.pages++
	}
	return nil
}

// coarsenRecords reduces temporal resolution by factor: each group of
// factor consecutive records becomes one record carrying the group's mean
// value (two cascaded Haar approximation levels when factor is 4) and the
// group's *first* timestamp. Window-start timestamps — rather than group
// means — keep the archive's time coverage stable under repeated aging:
// the oldest timestamp never drifts forward, history only gets coarser.
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
		var sumV float64
		for _, r := range recs[i:end] {
			sumV += r.V
		}
		out = append(out, Record{T: recs[i].T, V: sumV / float64(end-i)})
	}
	return out
}

// readSegment loads every record in a segment.
func (s *Store) readSegment(seg segment) ([]Record, error) {
	recs := make([]Record, 0, seg.count)
	base := seg.block * s.geo.PagesPerBlock
	for p := 0; p < seg.pages; p++ {
		buf, err := s.dev.Read(base+p, nil)
		if err != nil {
			return nil, fmt.Errorf("archive: segment read: %w", err)
		}
		for i := 0; i < s.perPage; i++ {
			off := i * recordSize
			rawT := binary.LittleEndian.Uint64(buf[off:])
			if rawT == math.MaxUint64 {
				continue // padding sentinel
			}
			v := math.Float32frombits(binary.LittleEndian.Uint32(buf[off+8:]))
			recs = append(recs, Record{T: simtime.Time(rawT), V: float64(v)})
		}
	}
	return recs, nil
}

// Query returns all records with t0 <= T <= t1 in time order, including
// unflushed pending records. Aged regions return coarse records.
func (s *Store) Query(t0, t1 simtime.Time) ([]Record, error) {
	if t1 < t0 {
		return nil, fmt.Errorf("archive: inverted range [%v, %v]", t0, t1)
	}
	var out []Record
	// Binary search for the first segment that may overlap: segs sorted
	// by minT and non-overlapping in time.
	i := sort.Search(len(s.segs), func(i int) bool { return s.segs[i].maxT >= t0 })
	for ; i < len(s.segs); i++ {
		seg := s.segs[i]
		if seg.count == 0 || seg.minT > t1 {
			break
		}
		recs, err := s.readSegment(seg)
		if err != nil {
			return nil, err
		}
		for _, r := range recs {
			if r.T >= t0 && r.T <= t1 {
				out = append(out, r)
			}
		}
	}
	for _, r := range s.pending {
		if r.T >= t0 && r.T <= t1 {
			out = append(out, r)
		}
	}
	return out, nil
}

// LevelAt reports the resolution level covering time t (0 = full
// resolution) and whether any segment covers it.
func (s *Store) LevelAt(t simtime.Time) (int, bool) {
	for _, seg := range s.segs {
		if seg.count > 0 && t >= seg.minT && t <= seg.maxT {
			return seg.level, true
		}
	}
	for _, r := range s.pending {
		if r.T == t {
			return 0, true
		}
	}
	return 0, false
}

// Bounds returns the oldest and newest archived timestamps and whether the
// store holds any data.
func (s *Store) Bounds() (oldest, newest simtime.Time, ok bool) {
	if len(s.segs) > 0 && s.segs[0].count > 0 {
		return s.segs[0].minT, s.newest, true
	}
	if len(s.pending) > 0 {
		return s.pending[0].T, s.newest, true
	}
	return 0, 0, false
}

// Stats reports store health for experiments.
type Stats struct {
	Appends    uint64
	AgePasses  uint64
	Dropped    uint64 // records lost to last-resort drops
	Segments   int
	FreeBlocks int
	MaxLevel   int
	Records    int // records currently stored (flash + pending)
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Appends:    s.appends,
		AgePasses:  s.agePasses,
		Dropped:    s.dropped,
		Segments:   len(s.segs),
		FreeBlocks: len(s.free),
	}
	for _, seg := range s.segs {
		st.Records += seg.count
		if seg.level > st.MaxLevel {
			st.MaxLevel = seg.level
		}
	}
	st.Records += len(s.pending)
	return st
}
