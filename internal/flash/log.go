package flash

// The segment log: §4's archival file system on flash, one core that the
// mote archive (internal/archive) and the proxy's flash backend
// (store.FlashBackend) each configure. Records buffer in RAM; each page's
// worth is programmed as the next page of the open block, and one erase
// block is one segment. Blocks come off a LIFO free list that always
// keeps one reserve block: when a block is needed and only the reserve is
// left, the aging hook writes an aged form of the oldest sealed segments
// into it, and the log erases them and splices the output in at the head.

import (
	"encoding/binary"
	"fmt"
	"math"

	"presto/internal/snap"
)

// Codec is a fixed-size record format: a record's page slot and its
// snapshot encoding. Layout gives the slot's size and the offset of the
// 8-byte timestamp every slot holds; all ones there marks a padding slot
// (timestamps are never negative).
type Codec[R any] interface {
	Layout() (size, timeOffset int)
	Put(slot []byte, r R)
	Get(slot []byte) R
	Save(e *snap.Enc, r R)
	Load(d *snap.Dec) R
}

// Meta is a configuration's per-segment index: its snapshot encoding and
// its restore-time check against a segment of the given page count.
type Meta[S any] interface {
	Save(e *snap.Enc)
	Load(d *snap.Dec) S
	Check(g Geometry, pages int) error
}

// Segment is one erase block of the log: Pages programmed pages holding
// Count records, and the configuration's index of them.
type Segment[S any] struct {
	Block, Pages, Count int
	Meta                S
}

// Table is the log's in-RAM state: what a snapshot saves and a restore
// checks and installs.
type Table[R any, S Meta[S]] struct {
	Segs     []Segment[S] // oldest first; the last is open when Cur >= 0
	Free     []int        // erased blocks, LIFO; never empty (the reserve)
	Cur      int          // the open block, -1 if none
	CurPages int          // pages programmed in the open block
	Pending  []R          // records not yet on a page
}

// LogConfig makes a log one store: a record codec, an index hook and an
// aging hook.
type LogConfig[R any, S Meta[S]] struct {
	Codec Codec[R]
	// Index updates seg's index for recs, the records just programmed as
	// its next page.
	Index func(seg *Segment[S], recs []R)
	// Age is handed the sealed segments, oldest first, and out, whose
	// Block is the reserve. It may write an aged form of the oldest into
	// out and returns how many of the oldest it consumed, at least one
	// unless it fails: the log erases those and puts out in their place,
	// or, if out holds no page, first returns the reserve to the free list.
	Age func(sealed []Segment[S], out *Segment[S]) (int, error)
}

// Log is a segment log on a Device. Not safe for concurrent use.
type Log[R any, S Meta[S]] struct {
	Table[R, S]
	dev        *Device
	geo        Geometry
	cfg        LogConfig[R, S]
	perPage    int
	size, off  int    // the codec's slot size and timestamp offset
	page, read []byte // the page image records are encoded into; the read buffer
}

// NewLog opens an empty log over every block of dev.
func NewLog[R any, S Meta[S]](dev *Device, cfg LogConfig[R, S]) (*Log[R, S], error) {
	geo := dev.Geometry()
	size, off := cfg.Codec.Layout()
	if geo.PageSize < size {
		return nil, fmt.Errorf("flash: page size %d too small for one %d-byte record", geo.PageSize, size)
	}
	l := &Log[R, S]{Table: Table[R, S]{Cur: -1}, dev: dev, geo: geo, cfg: cfg,
		perPage: geo.PageSize / size, size: size, off: off, page: make([]byte, geo.PageSize)}
	for b := geo.NumBlocks - 1; b >= 0; b-- { // block 0 is handed out first
		l.Free = append(l.Free, b)
	}
	return l, nil
}

// PerPage returns how many records one page holds.
func (l *Log[R, S]) PerPage() int { return l.perPage }

// Append buffers a record, programming a page once a page's worth is
// buffered.
func (l *Log[R, S]) Append(r R) error {
	l.Pending = append(l.Pending, r)
	if len(l.Pending) >= l.perPage {
		return l.flushPage()
	}
	return nil
}

// Flush programs every buffered record, padding the last page.
func (l *Log[R, S]) Flush() error {
	for len(l.Pending) > 0 {
		if err := l.flushPage(); err != nil {
			return err
		}
	}
	return nil
}

// flushPage programs up to a page of the buffer into the open block,
// opening one (and reclaiming, when only the reserve is left) if needed.
func (l *Log[R, S]) flushPage() error {
	if l.Cur < 0 {
		if len(l.Free) <= 1 {
			if err := l.reclaim(); err != nil {
				return err
			}
		}
		l.Cur, l.CurPages = l.pop(), 0
		l.Segs = append(l.Segs, Segment[S]{Block: l.Cur})
	}
	n := min(len(l.Pending), l.perPage)
	if err := l.WriteRecords(&l.Segs[len(l.Segs)-1], l.Pending[:n]); err != nil {
		return err
	}
	l.Pending = l.Pending[:copy(l.Pending, l.Pending[n:])]
	if l.CurPages++; l.CurPages == l.geo.PagesPerBlock {
		l.Cur = -1 // sealed
	}
	return nil
}

func (l *Log[R, S]) pop() int {
	b := l.Free[len(l.Free)-1]
	l.Free = l.Free[:len(l.Free)-1]
	return b
}

// reclaim runs the aging hook with the reserve block as its output, then
// erases what it consumed and splices the table.
func (l *Log[R, S]) reclaim() error {
	sealed := l.Segs
	if l.Cur >= 0 {
		sealed = sealed[:len(sealed)-1]
	}
	out := Segment[S]{Block: l.pop()}
	n, err := l.cfg.Age(sealed, &out)
	if err != nil || out.Pages == 0 {
		l.Free = append(l.Free, out.Block)
	}
	if err != nil {
		return err
	}
	for _, v := range l.Segs[:n] {
		if err := l.dev.EraseBlock(v.Block); err != nil {
			return err
		}
		l.Free = append(l.Free, v.Block)
	}
	if out.Pages > 0 {
		n--
		l.Segs[n] = out
	}
	kept := copy(l.Segs, l.Segs[n:])
	clear(l.Segs[kept:])
	l.Segs = l.Segs[:kept]
	return nil
}

// WriteRecords programs recs as seg's next pages, a page's worth at a
// time: each is encoded into the page image, padded, programmed, and
// handed to the index hook.
func (l *Log[R, S]) WriteRecords(seg *Segment[S], recs []R) error {
	for len(recs) > 0 {
		n := min(len(recs), l.perPage)
		clear(l.page)
		for i := 0; i < l.perPage; i++ {
			if slot := l.page[i*l.size : (i+1)*l.size]; i < n {
				l.cfg.Codec.Put(slot, recs[i])
			} else {
				binary.LittleEndian.PutUint64(slot[l.off:], math.MaxUint64)
			}
		}
		if err := l.WritePage(seg, l.page); err != nil {
			return err
		}
		l.cfg.Index(seg, recs[:n])
		seg.Count += n
		recs = recs[n:]
	}
	return nil
}

// WritePage programs data (at most a page; the device copies it) as seg's
// next page. The records in it are the caller's to count.
func (l *Log[R, S]) WritePage(seg *Segment[S], data []byte) error {
	if seg.Pages >= l.geo.PagesPerBlock {
		return fmt.Errorf("flash: block %d is full", seg.Block)
	}
	if err := l.dev.Write(seg.Block*l.geo.PagesPerBlock+seg.Pages, data); err != nil {
		return fmt.Errorf("flash: page write: %w", err)
	}
	seg.Pages++
	return nil
}

// ReadPage reads page p of block into the log's read buffer, which the
// next read reuses.
func (l *Log[R, S]) ReadPage(block, p int) ([]byte, error) {
	buf, err := l.dev.Read(block*l.geo.PagesPerBlock+p, l.read)
	if err != nil {
		return nil, fmt.Errorf("flash: segment read: %w", err)
	}
	l.read = buf
	return buf, nil
}

// Slot returns slot i (below PerPage) of a record page for the codec's
// Get, and whether it holds a record: false for padding and for a slot
// past the end of a short page. Hot read loops call their codec's Get
// directly; an interface call per record costs more than the decode.
func (l *Log[R, S]) Slot(page []byte, i int) ([]byte, bool) {
	if (i+1)*l.size > len(page) {
		return nil, false
	}
	slot := page[i*l.size : (i+1)*l.size]
	return slot, binary.LittleEndian.Uint64(slot[l.off:]) != math.MaxUint64
}

// ReadSegment appends every record of a record segment to dst, one page
// read per page.
func (l *Log[R, S]) ReadSegment(seg *Segment[S], dst []R) ([]R, error) {
	for p := 0; p < seg.Pages; p++ {
		page, err := l.ReadPage(seg.Block, p)
		if err != nil {
			return dst, err
		}
		for i := 0; i < l.perPage; i++ {
			if slot, ok := l.Slot(page, i); ok {
				dst = append(dst, l.cfg.Codec.Get(slot))
			}
		}
	}
	return dst, nil
}

// Save encodes the table.
func (l *Log[R, S]) Save(e *snap.Enc) {
	e.Uvarint(uint64(len(l.Segs)))
	for _, sg := range l.Segs {
		e.Uvarint(uint64(sg.Block))
		e.Uvarint(uint64(sg.Pages))
		e.Uvarint(uint64(sg.Count))
		sg.Meta.Save(e)
	}
	e.Uvarint(uint64(len(l.Free)))
	for _, b := range l.Free {
		e.Uvarint(uint64(b))
	}
	e.I64(int64(l.Cur))
	e.Uvarint(uint64(l.CurPages))
	e.Uvarint(uint64(len(l.Pending)))
	for _, r := range l.Pending {
		l.cfg.Codec.Save(e, r)
	}
}

// Load decodes a table written by Save, for Install once the caller has
// decoded the rest of its block.
func (l *Log[R, S]) Load(d *snap.Dec) Table[R, S] {
	var t Table[R, S]
	var meta S
	n := d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		t.Segs = append(t.Segs, Segment[S]{Block: int(d.Uvarint()), Pages: int(d.Uvarint()), Count: int(d.Uvarint()), Meta: meta.Load(d)})
	}
	n = d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		t.Free = append(t.Free, int(d.Uvarint()))
	}
	t.Cur, t.CurPages = int(d.I64()), int(d.Uvarint())
	n = d.Count()
	for i := 0; i < n && d.Err() == nil; i++ {
		t.Pending = append(t.Pending, l.cfg.Codec.Load(d))
	}
	return t
}

// Install checks t against the geometry and installs it. A table that
// would make a later append or read index outside the device or the
// segment list is refused, leaving the log as it was: the open block
// must be in range and the last segment's (with its page count); every
// segment's block, page count, record count and index must fit; every
// free block must be in range, and the reserve must be there.
func (l *Log[R, S]) Install(t Table[R, S]) error {
	g := l.geo
	if t.Cur < -1 || t.Cur >= g.NumBlocks {
		return fmt.Errorf("open block %d outside [-1, %d)", t.Cur, g.NumBlocks)
	}
	if t.Cur >= 0 {
		if len(t.Segs) == 0 || t.Segs[len(t.Segs)-1].Block != t.Cur {
			return fmt.Errorf("open block %d is not the last segment's", t.Cur)
		}
		if last := t.Segs[len(t.Segs)-1]; t.CurPages != last.Pages || t.CurPages >= g.PagesPerBlock {
			return fmt.Errorf("open block has %d pages, its segment %d (block of %d)", t.CurPages, last.Pages, g.PagesPerBlock)
		}
	}
	for i, seg := range t.Segs {
		if seg.Block < 0 || seg.Block >= g.NumBlocks {
			return fmt.Errorf("segment %d on block %d outside [0, %d)", i, seg.Block, g.NumBlocks)
		}
		if seg.Pages < 0 || seg.Pages > g.PagesPerBlock {
			return fmt.Errorf("segment %d has %d pages (block of %d)", i, seg.Pages, g.PagesPerBlock)
		}
		if seg.Count < 0 {
			return fmt.Errorf("segment %d has %d records", i, seg.Count)
		}
		if err := seg.Meta.Check(g, seg.Pages); err != nil {
			return fmt.Errorf("segment %d %w", i, err)
		}
	}
	for _, b := range t.Free {
		if b < 0 || b >= g.NumBlocks {
			return fmt.Errorf("free block %d outside [0, %d)", b, g.NumBlocks)
		}
	}
	if len(t.Free) == 0 {
		return fmt.Errorf("free list has no reserve block")
	}
	l.Table = t
	return nil
}
