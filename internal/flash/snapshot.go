package flash

import (
	"fmt"
	"io"

	"presto/internal/snap"
)

// Snapshot externalizes the device state: written pages (index +
// contents), per-block wear counters, and operation counts. It reads
// fields directly — never through Read — so capturing a snapshot charges
// no energy and perturbs no counters: a checkpointed-but-kept-running
// domain stays bit-identical to one that was never checkpointed.
func (d *Device) Snapshot(w io.Writer) error {
	var e snap.Enc
	e.Uvarint(uint64(d.geo.PageSize))
	e.Uvarint(uint64(d.geo.PagesPerBlock))
	e.Uvarint(uint64(d.geo.NumBlocks))
	e.U64(d.reads)
	e.U64(d.writes)
	e.U64(d.eraseOps)

	var nWritten uint64
	for b := range d.blocks {
		for i := range d.blocks[b].lens {
			if d.blocks[b].written(i) {
				nWritten++
			}
		}
	}
	e.Uvarint(nWritten)
	for b := range d.blocks {
		blk := &d.blocks[b]
		for i := range blk.lens {
			if blk.written(i) {
				e.Uvarint(uint64(b*d.geo.PagesPerBlock + i))
				e.Bytes(blk.page(i, d.geo.PageSize))
			}
		}
	}
	e.Uvarint(uint64(len(d.blocks)))
	for b := range d.blocks {
		e.U32(d.blocks[b].erases)
	}
	return snap.WriteBlock(w, snap.TagFlash, e.Data())
}

// Restore overwrites a device (of the same geometry) with state captured
// by Snapshot.
func (d *Device) Restore(r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagFlash)
	if err != nil {
		return err
	}
	dec := snap.NewDec(body)
	ps, ppb, nb := int(dec.Uvarint()), int(dec.Uvarint()), int(dec.Uvarint())
	if dec.Err() == nil && (ps != d.geo.PageSize || ppb != d.geo.PagesPerBlock || nb != d.geo.NumBlocks) {
		return fmt.Errorf("flash: snapshot geometry %d/%d/%d does not match device %d/%d/%d",
			ps, ppb, nb, d.geo.PageSize, d.geo.PagesPerBlock, d.geo.NumBlocks)
	}
	d.reads = dec.U64()
	d.writes = dec.U64()
	d.eraseOps = dec.U64()

	for b := range d.blocks {
		d.blocks[b].erase()
	}
	nWritten := dec.Uvarint()
	for i := uint64(0); i < nWritten && dec.Err() == nil; i++ {
		p := dec.Uvarint()
		data := dec.Bytes()
		if dec.Err() != nil {
			break
		}
		if p >= uint64(d.geo.NumPages()) {
			return fmt.Errorf("flash: snapshot page %d out of range", p)
		}
		if len(data) > d.geo.PageSize {
			return fmt.Errorf("flash: snapshot page %d holds %d bytes, page size %d", p, len(data), d.geo.PageSize)
		}
		blk, pi := d.locate(int(p))
		blk.program(pi, data, d.geo)
	}
	if n := int(dec.Uvarint()); dec.Err() == nil && n != len(d.blocks) {
		return fmt.Errorf("flash: snapshot has %d blocks, want %d", n, len(d.blocks))
	}
	for b := range d.blocks {
		d.blocks[b].erases = dec.U32()
	}
	if err := dec.Done(); err != nil {
		return fmt.Errorf("flash: %w", err)
	}
	return nil
}
