package index

import (
	"fmt"
	"io"

	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/snap"
)

// Snapshot externalizes the index's detection state: the published
// counter, the cumulative hop count, the skip graph's generator state,
// and every (key, Detection) pair in key order. The topology maps
// (proxy/mote registration, replica wiring) are NOT serialized — they
// derive from the deployment config and the restoring side rebuilds them
// identically. The pair walk is hop-free, so capturing a snapshot cannot
// perturb a domain that keeps running.
func (ix *Index) Snapshot(w io.Writer) error {
	var e snap.Enc
	e.U64(ix.published)
	e.U64(ix.g.Hops())
	st := ix.g.RNGState()
	for _, v := range st {
		e.U64(v)
	}
	e.Uvarint(uint64(ix.g.Len()))
	var walkErr error
	ix.g.Walk(func(key uint64, value interface{}) {
		d, ok := value.(Detection)
		if !ok {
			walkErr = fmt.Errorf("index: non-detection value at key %d", key)
			return
		}
		e.U64(key)
		e.I64(int64(d.T))
		e.I64(int64(d.Mote))
		e.I64(int64(d.Proxy))
		e.String(d.Kind)
		e.F64(d.Value)
	})
	if walkErr != nil {
		return walkErr
	}
	return snap.WriteBlock(w, snap.TagIndex, e.Data())
}

// Restore reinstalls detection state captured by Snapshot onto a freshly
// built index (topology already registered by the deployment build).
// Pairs are re-inserted in key order — re-insertion draws fresh
// membership vectors and accrues hops, so the snapshotted generator
// state and hop counter are reinstalled afterwards: future inserts and
// searches behave exactly as the original index's would.
func (ix *Index) Restore(r io.Reader) error {
	body, err := snap.ReadBlock(r, snap.TagIndex)
	if err != nil {
		return err
	}
	d := snap.NewDec(body)
	published := d.U64()
	hops := d.U64()
	var st [4]uint64
	for i := range st {
		st[i] = d.U64()
	}
	n := d.Count()
	type pair struct {
		key uint64
		det Detection
	}
	pairs := make([]pair, 0, n)
	for i := 0; i < n && d.Err() == nil; i++ {
		var p pair
		p.key = d.U64()
		p.det.T = simtime.Time(d.I64())
		p.det.Mote = radio.NodeID(d.I64())
		p.det.Proxy = ProxyID(d.I64())
		p.det.Kind = d.String()
		p.det.Value = d.F64()
		pairs = append(pairs, p)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("index: %w", err)
	}
	for _, p := range pairs {
		if err := ix.g.Insert(p.key, p.det); err != nil {
			return fmt.Errorf("index: restore key %d: %w", p.key, err)
		}
	}
	ix.published = published
	ix.g.RestoreHops(hops)
	ix.g.SetRNGState(st)
	return nil
}
