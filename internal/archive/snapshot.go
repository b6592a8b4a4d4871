package archive

import (
	"fmt"
	"io"

	"presto/internal/simtime"
	"presto/internal/snap"
)

// Snapshot externalizes the store's in-RAM state: the log's segment
// table (time index, free list, open block, buffered records), then the
// newest timestamp and counters. The flash contents themselves are the
// device's state — callers snapshot the flash.Device separately
// (mote.Snapshot composes the two). Nothing is read from the device, so
// a snapshot charges no energy.
func (s *Store) Snapshot(w io.Writer) error {
	var e snap.Enc
	s.log.Save(&e)
	e.I64(int64(s.newest))
	e.Bool(s.hasNewest)
	e.U64(s.appends)
	e.U64(s.agePasses)
	e.U64(s.dropped)
	return snap.WriteBlock(w, snap.TagArchive, e.Data())
}

// Restore overwrites the store's in-RAM state with state captured by
// Snapshot. The underlying flash.Device must already hold the matching
// restored contents. A malformed blob, or a segment table the device
// geometry cannot hold, is refused with the store left as it was.
func (s *Store) Restore(r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagArchive)
	if err != nil {
		return err
	}
	d := snap.NewDec(body)
	tab := s.log.Load(d)
	newest, hasNewest := simtime.Time(d.I64()), d.Bool()
	appends, agePasses, dropped := d.U64(), d.U64(), d.U64()
	if err := d.Done(); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := s.log.Install(tab); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	s.newest, s.hasNewest = newest, hasNewest
	s.appends, s.agePasses, s.dropped = appends, agePasses, dropped
	return nil
}
