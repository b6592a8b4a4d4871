package radio

import (
	"fmt"
	"io"
	"sort"
	"time"

	"presto/internal/simtime"
	"presto/internal/snap"
)

// Snapshot externalizes the medium's mutable state: the medium-wide
// counters, every attached endpoint's tunables and counters (sorted by
// node id for deterministic bytes), and the in-air flights in launch
// order, which slot reuse in the flight table does not disturb. Config
// and energy params are construction inputs, not state — the restoring
// side rebuilds the medium from the same deployment config.
func (m *Medium) Snapshot(w io.Writer) error {
	var e snap.Enc
	e.U64(m.sent)
	e.U64(m.delivered)
	e.U64(m.lost)
	e.U64(m.retried)

	ids := make([]NodeID, 0, len(m.nodes))
	for id := range m.nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		ep := m.nodes[id]
		e.I64(int64(id))
		e.I64(int64(ep.lplInterval))
		e.I64(int64(ep.listenFrom))
		e.U64(ep.txMsgs)
		e.U64(ep.rxMsgs)
		e.U64(ep.txBytes)
		e.U64(ep.rxBytes)
	}

	m.flights.encode(&e, encodePacket)
	return snap.WriteBlock(w, snap.TagMedium, e.Data())
}

// Restore reinstalls medium state captured by Snapshot onto a freshly
// built medium whose endpoints are already attached (the deployment
// build wires handlers; handlers are closures and never serialized).
// Endpoints attached locally but absent from the snapshot were detached
// at capture time and are detached here too. Flights are re-scheduled at
// their original absolute delivery instants — no randomness is consumed
// (every draw happened at the original Send).
func (m *Medium) Restore(r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagMedium)
	if err != nil {
		return err
	}
	d := snap.NewDec(body)
	m.sent = d.U64()
	m.delivered = d.U64()
	m.lost = d.U64()
	m.retried = d.U64()

	present := make(map[NodeID]bool)
	nNodes := d.Uvarint()
	for i := uint64(0); i < nNodes && d.Err() == nil; i++ {
		id := NodeID(d.I64())
		ep, ok := m.nodes[id]
		if !ok {
			return fmt.Errorf("radio: restore: endpoint %d in snapshot but not attached", id)
		}
		present[id] = true
		ep.lplInterval = time.Duration(d.I64())
		ep.listenFrom = simtime.Time(d.I64())
		ep.txMsgs = d.U64()
		ep.rxMsgs = d.U64()
		ep.txBytes = d.U64()
		ep.rxBytes = d.U64()
	}

	flights := decodeFlights(d, decodePacket)
	if err := d.Done(); err != nil {
		return fmt.Errorf("radio: medium: %w", err)
	}

	// Endpoints the snapshot does not mention were detached when it was
	// taken. (Detach accrues idle-listen energy against the fresh meter;
	// harmless — the owning layer's restore overwrites the meter after.)
	var gone []*Endpoint
	for id, ep := range m.nodes {
		if !present[id] {
			gone = append(gone, ep)
		}
	}
	for _, ep := range gone {
		ep.Detach()
	}

	m.flights.relaunch(flights)
	return nil
}

// encode writes the flights in launch order, each message by enc.
func (a *inAir[T]) encode(e *snap.Enc, enc func(*snap.Enc, T)) {
	var live []inFlight[T]
	for _, f := range a.slots {
		if f.seq != 0 {
			live = append(live, f)
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i].seq < live[j].seq })
	e.Uvarint(uint64(len(live)))
	for _, f := range live {
		e.I64(int64(f.at))
		enc(e, f.msg)
	}
}

// decodeFlights reads flights written by encode.
func decodeFlights[T any](d *snap.Dec, dec func(*snap.Dec) T) []inFlight[T] {
	n := d.Count()
	out := make([]inFlight[T], 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		at := simtime.Time(d.I64())
		out = append(out, inFlight[T]{at: at, msg: dec(d)})
	}
	return out
}

// relaunch replaces the table's flights with fls, launched in order at
// their original instants; no randomness is consumed.
func (a *inAir[T]) relaunch(fls []inFlight[T]) {
	a.slots, a.free = a.slots[:0], a.free[:0]
	for _, f := range fls {
		a.launch(f.at, f.msg)
	}
}

func encodePacket(e *snap.Enc, p Packet) {
	e.I64(int64(p.Src))
	e.I64(int64(p.Dst))
	e.Uvarint(uint64(p.Kind))
	e.Bytes(p.Payload)
	e.I64(int64(p.SentAt))
}

func decodePacket(d *snap.Dec) Packet {
	var p Packet
	p.Src = NodeID(d.I64())
	p.Dst = NodeID(d.I64())
	p.Kind = Kind(d.Uvarint())
	if b := d.Bytes(); len(b) > 0 {
		p.Payload = append([]byte(nil), b...)
	}
	p.SentAt = simtime.Time(d.I64())
	return p
}

// SnapshotDomain externalizes one domain's receive-side bridge state:
// the undrained inbox and the drained-but-undelivered flights in launch
// order. The bridge-wide sent/delivered counters are process-level stats shared by
// every domain and are not part of any one domain's state. Only the
// goroutine driving the domain's simulator may call this (the same rule
// as Drain), since it reads the flight list that goroutine owns.
func (b *Bridge) SnapshotDomain(d DomainID, w io.Writer) error {
	b.mu.Lock()
	dom, ok := b.domains[d]
	var inbox []BridgeMsg
	if ok {
		inbox = append(inbox, dom.inbox...)
	}
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("radio: bridge domain %d not attached", d)
	}

	var e snap.Enc
	e.Uvarint(uint64(len(inbox)))
	for _, msg := range inbox {
		encodeBridgeMsg(&e, msg)
	}
	dom.flights.encode(&e, encodeBridgeMsg)
	return snap.WriteBlock(w, snap.TagBridge, e.Data())
}

// RestoreDomain reinstalls a domain's bridge state captured by
// SnapshotDomain. The domain must already be attached (the deployment
// build wires its handler). Flights are re-scheduled at their original
// absolute delivery instants on the domain's restored kernel.
func (b *Bridge) RestoreDomain(d DomainID, r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagBridge)
	if err != nil {
		return err
	}
	b.mu.Lock()
	dom, ok := b.domains[d]
	b.mu.Unlock()
	if !ok {
		return fmt.Errorf("radio: restore: bridge domain %d not attached", d)
	}

	dec := snap.NewDec(body)
	var inbox []BridgeMsg
	nInbox := dec.Uvarint()
	for i := uint64(0); i < nInbox && dec.Err() == nil; i++ {
		inbox = append(inbox, decodeBridgeMsg(dec))
	}
	flights := decodeFlights(dec, decodeBridgeMsg)
	if err := dec.Done(); err != nil {
		return fmt.Errorf("radio: bridge: %w", err)
	}

	b.mu.Lock()
	dom.inbox = inbox
	b.mu.Unlock()
	dom.flights.relaunch(flights)
	return nil
}

func encodeBridgeMsg(e *snap.Enc, m BridgeMsg) {
	e.I64(int64(m.Src))
	e.I64(int64(m.Dst))
	e.I64(int64(m.Mote))
	e.Uvarint(uint64(m.Kind))
	e.Bytes(m.Payload)
}

func decodeBridgeMsg(d *snap.Dec) BridgeMsg {
	var m BridgeMsg
	m.Src = DomainID(d.I64())
	m.Dst = DomainID(d.I64())
	m.Mote = NodeID(d.I64())
	m.Kind = Kind(d.Uvarint())
	if b := d.Bytes(); len(b) > 0 {
		m.Payload = append([]byte(nil), b...)
	}
	return m
}
