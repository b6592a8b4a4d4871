package proxy

import (
	"fmt"
	"io"
	"sort"

	"presto/internal/model"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/snap"
)

// ErrNotQuiescent reports an attempt to snapshot a proxy with live
// asynchronous work: in-flight archive rendezvous, queued pulls, or
// active watches all hold closures (query waiters, predicate callbacks)
// that cannot be serialized. Domain migration runs at quiesced lease
// boundaries where none exist; anything else must drain first.
var ErrNotQuiescent = fmt.Errorf("proxy: snapshot requires a quiescent proxy (no in-flight pulls or watches)")

// Snapshot externalizes the proxy's state: the pull-ID counter, stats,
// and per-mote state (model, tunables, spatial residuals) followed by
// each mote's summary cache — motes in ascending id order for
// deterministic bytes. It fails with ErrNotQuiescent if any asynchronous
// work is outstanding.
func (p *Proxy) Snapshot(w io.Writer) error {
	if len(p.pulls) > 0 || len(p.watches) > 0 {
		return ErrNotQuiescent
	}
	ids := make([]radio.NodeID, 0, len(p.motes))
	for id := range p.motes {
		if st := p.motes[id]; st.inflight != nil || len(st.pullQueue) > 0 {
			return ErrNotQuiescent
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var e snap.Enc
	e.U64(uint64(p.nextID))
	e.U64(p.stats.PushesReceived)
	e.U64(p.stats.BatchesReceived)
	e.U64(p.stats.EventsReceived)
	e.U64(p.stats.PullsIssued)
	e.U64(p.stats.PullsCoalesced)
	e.U64(p.stats.PullsQueued)
	e.U64(p.stats.PullsTimedOut)
	e.U64(p.stats.StalenessPulls)
	e.U64(p.stats.QueriesAnswered)
	for _, n := range p.stats.AnswersBySource {
		e.U64(n)
	}
	e.U64(p.stats.ReplicaForwarded)
	e.U64(p.stats.ReplicaAbsorbed)
	e.U64(p.stats.RangeSlotsCached)
	e.U64(p.stats.RangeSlotsPredicted)

	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		st := p.motes[id]
		e.I64(int64(id))
		e.Bytes(st.mdl.Marshal())
		e.F64(st.delta)
		e.I64(int64(st.sampleInterval))
		e.I64(int64(st.lastHeard))
		e.Bool(st.replicaOnly)
		if st.spatial != nil {
			e.Bool(true)
			n, mean, m2, min, max := st.spatial.resid.State()
			e.U64(n)
			e.F64(mean)
			e.F64(m2)
			e.F64(min)
			e.F64(max)
		} else {
			e.Bool(false)
		}
	}
	if err := snap.WriteBlock(w, snap.TagProxy, e.Data()); err != nil {
		return err
	}
	for _, id := range ids {
		if err := p.motes[id].series.Snapshot(w); err != nil {
			return err
		}
	}
	return nil
}

// Restore reinstalls state captured by Snapshot onto a freshly built
// proxy whose motes are already registered (the deployment build calls
// Register/RegisterReplica; registration topology is derived from
// config, not snapshotted). The replica tap and archive sink are wiring,
// re-installed by the builder.
func (p *Proxy) Restore(r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagProxy)
	if err != nil {
		return err
	}
	d := snap.NewDec(body)
	p.nextID = uint32(d.U64())
	p.stats.PushesReceived = d.U64()
	p.stats.BatchesReceived = d.U64()
	p.stats.EventsReceived = d.U64()
	p.stats.PullsIssued = d.U64()
	p.stats.PullsCoalesced = d.U64()
	p.stats.PullsQueued = d.U64()
	p.stats.PullsTimedOut = d.U64()
	p.stats.StalenessPulls = d.U64()
	p.stats.QueriesAnswered = d.U64()
	for i := range p.stats.AnswersBySource {
		p.stats.AnswersBySource[i] = d.U64()
	}
	p.stats.ReplicaForwarded = d.U64()
	p.stats.ReplicaAbsorbed = d.U64()
	p.stats.RangeSlotsCached = d.U64()
	p.stats.RangeSlotsPredicted = d.U64()

	n := d.Uvarint()
	if d.Err() == nil && n != uint64(len(p.motes)) {
		return fmt.Errorf("proxy %d: snapshot has %d motes, %d registered", p.cfg.ID, n, len(p.motes))
	}
	order := make([]radio.NodeID, 0, n)
	for i := uint64(0); i < n && d.Err() == nil; i++ {
		id := radio.NodeID(d.I64())
		st, ok := p.motes[id]
		if !ok {
			return fmt.Errorf("proxy %d: snapshot mote %d not registered", p.cfg.ID, id)
		}
		order = append(order, id)
		mdl, mdlErr := model.Unmarshal(d.Bytes())
		if mdlErr != nil {
			return fmt.Errorf("proxy %d: restore mote %d model: %w", p.cfg.ID, id, mdlErr)
		}
		st.mdl = mdl
		st.delta = d.F64()
		st.sampleInterval = simtime.Time(d.I64())
		st.lastHeard = simtime.Time(d.I64())
		st.replicaOnly = d.Bool()
		if d.Bool() {
			st.spatial = &spatialState{}
			nObs := d.U64()
			mean, m2, min, max := d.F64(), d.F64(), d.F64(), d.F64()
			st.spatial.resid.SetState(nObs, mean, m2, min, max)
		} else {
			st.spatial = nil
		}
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("proxy %d: %w", p.cfg.ID, err)
	}
	for _, id := range order {
		if err := p.motes[id].series.Restore(r); err != nil {
			return fmt.Errorf("proxy %d: mote %d cache: %w", p.cfg.ID, id, err)
		}
	}
	return nil
}
