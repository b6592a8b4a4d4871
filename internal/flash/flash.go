// Package flash simulates a NAND flash device with page program / page
// read / block erase semantics, per-operation energy charged to an
// energy.Meter, and wear counters.
//
// PRESTO motes carry "a significant amount of flash memory (1GB)" and the
// architecture leans on the fact that local storage is roughly two orders
// of magnitude cheaper than radio per byte. The segment log (log.go) runs
// on this device for both the mote archive and the proxy's flash backend,
// so every byte a mote logs, reads or ages is accounted for in the same
// energy budget as the radio.
package flash

import (
	"errors"
	"fmt"

	"presto/internal/energy"
)

// Standard NAND-style errors.
var (
	ErrOutOfRange   = errors.New("flash: page or block out of range")
	ErrPageSize     = errors.New("flash: write larger than page size")
	ErrNotErased    = errors.New("flash: programming a non-erased page")
	ErrNeverWritten = errors.New("flash: reading an unwritten page")
)

// Geometry describes a flash part.
type Geometry struct {
	PageSize      int // bytes per page
	PagesPerBlock int // pages per erase block
	NumBlocks     int // erase blocks
}

// DefaultGeometry is a small part used in tests and experiments: 256 B
// pages, 64 pages/block, 512 blocks = 8 MiB. (Real motes would carry ~1 GB;
// experiments that need aging pressure shrink NumBlocks instead of writing
// gigabytes.)
func DefaultGeometry() Geometry {
	return Geometry{PageSize: 256, PagesPerBlock: 64, NumBlocks: 512}
}

// Validate reports whether the geometry is usable.
func (g Geometry) Validate() error {
	if g.PageSize <= 0 || g.PagesPerBlock <= 0 || g.NumBlocks <= 0 {
		return fmt.Errorf("flash: non-positive geometry %+v", g)
	}
	return nil
}

// NumPages returns the total page count.
func (g Geometry) NumPages() int { return g.PagesPerBlock * g.NumBlocks }

// Capacity returns the device size in bytes.
func (g Geometry) Capacity() int { return g.NumPages() * g.PageSize }

// Device is a simulated NAND flash chip. It stores only what was
// programmed: a block's pages live in one arena the block gets at its
// first program, so a device that is mostly erased costs little more
// than its block table.
type Device struct {
	geo    Geometry
	params energy.Params
	meter  *energy.Meter

	blocks []block

	reads, writes, eraseOps uint64
}

// block is one erase block: its pages' bytes, page p at p*PageSize of
// the arena, with each page's programmed length (-1 while erased), and
// its wear count. arena and lens are nil until the block's first program.
type block struct {
	arena  []byte
	lens   []int32
	erases uint32
}

// New creates a device; meter may be nil for unmetered use (tests).
func New(geo Geometry, params energy.Params, meter *energy.Meter) (*Device, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	return &Device{geo: geo, params: params, meter: meter, blocks: make([]block, geo.NumBlocks)}, nil
}

// Geometry returns the device geometry.
func (d *Device) Geometry() Geometry { return d.geo }

func (d *Device) charge(c energy.Category, j float64) {
	if d.meter != nil {
		d.meter.Add(c, j)
	}
}

// locate returns a page's block and its index there, or nil for a page
// out of range.
func (d *Device) locate(page int) (*block, int) {
	if page < 0 || page >= d.geo.NumPages() {
		return nil, 0
	}
	return &d.blocks[page/d.geo.PagesPerBlock], page % d.geo.PagesPerBlock
}

// written reports whether page i of b holds data.
func (b *block) written(i int) bool { return b.lens != nil && b.lens[i] >= 0 }

// page returns page i's programmed bytes.
func (b *block) page(i, pageSize int) []byte {
	off := i * pageSize
	return b.arena[off : off+int(b.lens[i])]
}

// program stores data as page i, giving the block its arena first if it
// has none.
func (b *block) program(i int, data []byte, geo Geometry) {
	if b.lens == nil {
		b.arena = make([]byte, geo.PagesPerBlock*geo.PageSize)
		b.lens = make([]int32, geo.PagesPerBlock)
		b.erase()
	}
	copy(b.arena[i*geo.PageSize:], data)
	b.lens[i] = int32(len(data))
}

// erase marks every page of b erased, keeping its arena.
func (b *block) erase() {
	for p := range b.lens {
		b.lens[p] = -1
	}
}

// Write programs a page. The data must fit in one page and the page must
// be in the erased state (NAND cannot overwrite in place).
func (d *Device) Write(page int, data []byte) error {
	b, i := d.locate(page)
	if b == nil {
		return ErrOutOfRange
	}
	if len(data) > d.geo.PageSize {
		return ErrPageSize
	}
	if b.written(i) {
		return ErrNotErased
	}
	b.program(i, data, d.geo)
	d.writes++
	d.charge(energy.FlashWrite, float64(d.geo.PageSize)*d.params.FlashWriteJPerByte)
	return nil
}

// Read copies a previously written page's contents into dst's storage
// (growing it when too small) and returns the filled slice; pass nil for
// a fresh copy. Either way the read costs one page read.
func (d *Device) Read(page int, dst []byte) ([]byte, error) {
	b, i := d.locate(page)
	if b == nil {
		return nil, ErrOutOfRange
	}
	if !b.written(i) {
		return nil, ErrNeverWritten
	}
	d.reads++
	d.charge(energy.FlashRead, float64(d.geo.PageSize)*d.params.FlashReadJPerByte)
	return append(dst[:0], b.page(i, d.geo.PageSize)...), nil
}

// Written reports whether a page currently holds data.
func (d *Device) Written(page int) bool {
	b, i := d.locate(page)
	return b != nil && b.written(i)
}

// EraseBlock clears every page in a block and bumps its wear counter.
// The block keeps its arena: an erased block is programmed again soon,
// in the segment log's steady state.
func (d *Device) EraseBlock(block int) error {
	if block < 0 || block >= d.geo.NumBlocks {
		return ErrOutOfRange
	}
	b := &d.blocks[block]
	b.erase()
	b.erases++
	d.eraseOps++
	d.charge(energy.FlashErase, d.params.FlashEraseJPerBlock)
	return nil
}

// Erases returns the wear count of a block (0 for out-of-range blocks).
func (d *Device) Erases(block int) uint32 {
	if block < 0 || block >= d.geo.NumBlocks {
		return 0
	}
	return d.blocks[block].erases
}

// Stats reports cumulative operation counts.
func (d *Device) Stats() (reads, writes, erases uint64) {
	return d.reads, d.writes, d.eraseOps
}

// BlockOf returns the erase block containing a page.
func (d *Device) BlockOf(page int) int { return page / d.geo.PagesPerBlock }
