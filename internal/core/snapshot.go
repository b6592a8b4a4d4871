package core

// Domain snapshots: one versioned, checksummed blob per simulation
// domain, composed from every layer's Snapshot stream in a fixed order —
// kernel, medium, motes (ascending id), proxies (build order), index,
// store, bridge. The format is deterministic end to end: snapshotting
// the same domain at the same virtual instant always produces the same
// bytes, which is what the migration and re-join tests enforce, and
// capturing a snapshot never perturbs the domain (every layer reads its
// state without side effects), so checkpoint-without-drop is free.
//
// What is NOT in a snapshot: deployment topology (endpoint attachment,
// proxy registration, replica wiring — all derived from the Config and
// rebuilt identically by the restoring side) and scheduled closures
// (each layer's restore re-registers its own pending work: the medium
// re-launches radio flights, motes re-arm their tickers, the bridge
// re-launches wired deliveries). AutoRetrain tickers are engine-level
// wiring, not domain state — reinstall them after a restore if needed.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"presto/internal/radio"
	"presto/internal/snap"
)

// domainSnapVersion is bumped whenever any layer's block format changes.
// Version 2 drops the backend block from domains without a backend;
// version 3 drops each mote's shared history from the proxy block.
const domainSnapVersion = 3

var domainSnapMagic = []byte("PDSN")

// SnapshotDomain writes hosted domain d's complete state to w as one
// self-describing blob. It runs on the domain's worker, between
// commands; the domain must be quiescent (no queries settling — the
// proxy layer additionally refuses if any pull rendezvous is in flight).
func (n *Network) SnapshotDomain(d int, w io.Writer) error {
	s, ok := n.localShard(d)
	if !ok {
		return fmt.Errorf("core: domain %d not hosted by this process", d)
	}
	var snapErr error
	if !s.call(func(s *shard) { snapErr = s.snapshot(w) }) {
		return ErrClosed
	}
	return snapErr
}

// RestoreDomain reinstalls domain d's state from a blob written by
// SnapshotDomain — on this or any other process hosting a freshly built
// (or freshly adopted) instance of the same domain under the same
// config. After it returns the domain behaves bit-for-bit as the
// snapshotted one would: same clock, same pending radio traffic, same
// models, same answers.
func (n *Network) RestoreDomain(d int, r io.Reader) error {
	s, ok := n.localShard(d)
	if !ok {
		return fmt.Errorf("core: domain %d not hosted by this process", d)
	}
	var restErr error
	if !s.call(func(s *shard) { restErr = s.restore(r) }) {
		return ErrClosed
	}
	return restErr
}

func (s *shard) snapshot(w io.Writer) error {
	if len(s.pending) != 0 {
		return fmt.Errorf("core: domain %d has %d queries settling", s.domain, len(s.pending))
	}
	cw := snap.NewWriter(w)
	hdr := make([]byte, 0, 13)
	hdr = append(hdr, domainSnapMagic...)
	hdr = append(hdr, domainSnapVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(s.domain))
	if _, err := cw.Write(hdr); err != nil {
		return err
	}
	if err := s.sim.Snapshot(cw); err != nil {
		return fmt.Errorf("core: domain %d kernel: %w", s.domain, err)
	}
	if err := s.medium.Snapshot(cw); err != nil {
		return fmt.Errorf("core: domain %d medium: %w", s.domain, err)
	}
	for _, m := range s.motes {
		if err := m.Snapshot(cw); err != nil {
			return fmt.Errorf("core: domain %d: %w", s.domain, err)
		}
	}
	for _, p := range s.proxies {
		if err := p.Snapshot(cw); err != nil {
			return fmt.Errorf("core: domain %d: %w", s.domain, err)
		}
	}
	if err := s.ix.Snapshot(cw); err != nil {
		return fmt.Errorf("core: domain %d index: %w", s.domain, err)
	}
	if err := s.st.Snapshot(cw); err != nil {
		return fmt.Errorf("core: domain %d store: %w", s.domain, err)
	}
	// The bridge block exists only when this domain has a bridge inbox
	// (wired-replica deployments attach one per domain; others don't).
	attached := s.bridge != nil && s.bridge.Attached(radio.DomainID(s.domain))
	bridged := byte(0)
	if attached {
		bridged = 1
	}
	if _, err := cw.Write([]byte{bridged}); err != nil {
		return err
	}
	if attached {
		if err := s.bridge.SnapshotDomain(radio.DomainID(s.domain), cw); err != nil {
			return fmt.Errorf("core: domain %d bridge: %w", s.domain, err)
		}
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], cw.Sum32())
	_, err := w.Write(sum[:])
	return err
}

func (s *shard) restore(r io.Reader) error {
	if len(s.pending) != 0 {
		return fmt.Errorf("core: domain %d has %d queries settling", s.domain, len(s.pending))
	}
	cr := snap.NewReader(r)
	var hdr [13]byte
	if _, err := io.ReadFull(cr, hdr[:]); err != nil {
		return fmt.Errorf("%w: domain header: %v", snap.ErrCorrupt, err)
	}
	if !bytes.Equal(hdr[:4], domainSnapMagic) {
		return fmt.Errorf("%w: bad magic %q", snap.ErrCorrupt, hdr[:4])
	}
	if hdr[4] != domainSnapVersion {
		return fmt.Errorf("core: snapshot version %d, this build reads %d", hdr[4], domainSnapVersion)
	}
	if dom := int(binary.LittleEndian.Uint64(hdr[5:])); dom != s.domain {
		return fmt.Errorf("core: snapshot of domain %d offered to domain %d", dom, s.domain)
	}
	// Kernel first: it clears the event heap and sets the clock, then
	// each layer re-registers its own pending work against it.
	if err := s.sim.Restore(cr); err != nil {
		return fmt.Errorf("core: domain %d kernel: %w", s.domain, err)
	}
	if err := s.medium.Restore(cr); err != nil {
		return fmt.Errorf("core: domain %d medium: %w", s.domain, err)
	}
	for _, m := range s.motes {
		if err := m.Restore(cr); err != nil {
			return fmt.Errorf("core: domain %d: %w", s.domain, err)
		}
	}
	for _, p := range s.proxies {
		if err := p.Restore(cr); err != nil {
			return fmt.Errorf("core: domain %d: %w", s.domain, err)
		}
	}
	if err := s.ix.Restore(cr); err != nil {
		return fmt.Errorf("core: domain %d index: %w", s.domain, err)
	}
	if err := s.st.Restore(cr); err != nil {
		return fmt.Errorf("core: domain %d store: %w", s.domain, err)
	}
	var bridged [1]byte
	if _, err := io.ReadFull(cr, bridged[:]); err != nil {
		return fmt.Errorf("%w: bridge flag: %v", snap.ErrCorrupt, err)
	}
	attached := s.bridge != nil && s.bridge.Attached(radio.DomainID(s.domain))
	if (bridged[0] == 1) != attached {
		return fmt.Errorf("core: domain %d bridge presence mismatch (snapshot %d)", s.domain, bridged[0])
	}
	if attached {
		if err := s.bridge.RestoreDomain(radio.DomainID(s.domain), cr); err != nil {
			return fmt.Errorf("core: domain %d bridge: %w", s.domain, err)
		}
	}
	want := cr.Sum32()
	var sum [4]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return fmt.Errorf("%w: checksum: %v", snap.ErrCorrupt, err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != want {
		return fmt.Errorf("%w: checksum 0x%08x, computed 0x%08x", snap.ErrCorrupt, got, want)
	}
	return nil
}
