package store

import (
	"fmt"
	"io"
	"sort"

	"presto/internal/radio"
	"presto/internal/snap"
)

// Snapshot externalizes the store's routing counters and its archive
// backend, when it has one. The index, proxy attachments, per-mote
// intervals and the backend's presence are deployment topology, rebuilt
// identically by the restoring side.
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
	if s.backend == nil {
		return nil
	}
	return s.backend.Snapshot(w)
}

// Restore reinstalls state captured by Snapshot. The backend must be of
// the same kind the snapshot was taken from, or absent on both sides
// (both sides build from the same deployment config).
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
	if s.backend == nil {
		return nil
	}
	return s.backend.Restore(r)
}

// counters lists every BackendStats counter, in snapshot order.
func (st *BackendStats) counters() []*uint64 {
	return []*uint64{&st.Appends, &st.Records, &st.QueryRanges, &st.LatestReads, &st.PagesWritten, &st.PagesRead,
		&st.RecordsScanned, &st.RecordsMatched, &st.RecordsSkipped, &st.Compactions, &st.Coarsened, &st.WaveletChunks, &st.Dropped}
}

// encodeBackendStats appends every BackendStats counter.
func encodeBackendStats(e *snap.Enc, st BackendStats) {
	for _, c := range st.counters() {
		e.U64(*c)
	}
}

func decodeBackendStats(d *snap.Dec) BackendStats {
	var st BackendStats
	for _, c := range st.counters() {
		*c = d.U64()
	}
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

// Snapshot externalizes the log-structured backend: its counters, the
// log's segment table (per-segment mote spans, chunk directories and raw
// page spans; free list, open block, pending buffer) and the per-mote
// latest records — then the flash device itself. Nothing is read from
// the device, so a snapshot charges nothing and perturbs no
// read-amplification stats.
func (b *FlashBackend) Snapshot(w io.Writer) error {
	var e snap.Enc
	encodeBackendStats(&e, b.Stats())
	b.log.Save(&e)
	ids := sortedMotes(b.latest)
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		recCodec{}.Save(&e, flashRec{m: id, r: b.latest[id]})
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
	tab := b.log.Load(d)
	n := d.Count()
	latest := make(map[radio.NodeID]Record, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		fr := recCodec{}.Load(d)
		latest[fr.m] = fr.r
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("store: flash backend: %w", err)
	}
	if err := b.log.Install(tab); err != nil {
		return fmt.Errorf("store: flash backend: %w", err)
	}
	b.stats, b.latest = stats, latest
	return b.dev.Restore(r)
}
