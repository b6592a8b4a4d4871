package core

// Elastic domain hosting: a running process can adopt a global domain it
// does not currently host (building it bit-identically to the original
// Build) and drop a domain it does, so a cluster coordinator can migrate
// domains between live sites and re-admit restarted ones. Both
// operations mutate routing topology (moteShard/proxyShard/shards) that
// engine entry points read lock-free, so they require engine quiescence:
// no query, Run, or stats call concurrently in flight. The cluster
// layer guarantees this by migrating only between advance leases, with
// the coordinator's run loop held.

import (
	"fmt"

	"presto/internal/mote"
	"presto/internal/proxy"
	"presto/internal/radio"
	"sort"
)

// AdoptDomain builds global domain d in this process and grafts it onto
// the running deployment: worker started, bridge attached, replica taps
// wired. The domain starts from its post-Build state (virtual time 0,
// nothing sampled); callers re-hosting a live domain follow up with
// RestoreDomain before advancing it. Domain 0 is not adoptable in
// wired-replica deployments — it is the replica's home and every other
// domain's uplink target.
func (n *Network) AdoptDomain(d int) error {
	if d < 0 || d >= n.lay.Shards {
		return fmt.Errorf("core: domain %d outside the %d global domains", d, n.lay.Shards)
	}
	if d == 0 && n.cfg.WiredFirstProxy {
		return fmt.Errorf("core: domain 0 hosts the wired replica and cannot be adopted")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.localShard(d); ok {
		return fmt.Errorf("core: domain %d already hosted by this process", d)
	}
	lo, hi := n.lay.ProxyRange(d)
	s, err := n.buildShard(d, len(n.shards), lo, hi-lo)
	if err != nil {
		return err
	}
	n.shards = append(n.shards, s)
	for pi := lo; pi < hi; pi++ {
		n.proxyShard[pi] = s.slot
	}
	if n.cfg.replicates() {
		n.wireShardReplication(s)
	}
	n.refreshViews()
	n.eng.Rehost(d, 0)
	if n.started {
		for _, m := range s.motes {
			m.Start()
		}
	}
	go s.loop()
	return nil
}

// DropDomain stops hosting global domain d: the shard worker shuts down,
// the bridge inbox detaches, and the domain's motes and proxies leave
// the process's routing tables. The domain's state is gone — callers
// migrating it elsewhere snapshot it first (SnapshotDomain). The last
// hosted domain cannot be dropped, and domain 0 never moves in
// wired-replica deployments.
func (n *Network) DropDomain(d int) error {
	if d == 0 && n.cfg.WiredFirstProxy {
		return fmt.Errorf("core: domain 0 hosts the wired replica and cannot be dropped")
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	s, ok := n.localShard(d)
	if !ok {
		return fmt.Errorf("core: domain %d not hosted by this process", d)
	}
	if len(n.shards) == 1 {
		return fmt.Errorf("core: cannot drop domain %d, it is the last hosted domain", d)
	}
	s.shutdown()
	if n.bridge != nil {
		n.bridge.DetachDomain(radio.DomainID(d))
	}
	n.shards = append(n.shards[:s.slot], n.shards[s.slot+1:]...)
	for i, sh := range n.shards {
		sh.slot = i
	}
	for _, m := range s.motes {
		delete(n.moteShard, m.ID())
		delete(n.moteHome, m.ID())
	}
	lo, hi := n.lay.ProxyRange(d)
	for pi := lo; pi < hi; pi++ {
		delete(n.proxyShard, pi)
	}
	// Remaining shards may have shifted down a slot.
	for _, sh := range n.shards {
		for mid := range sh.moteProxy {
			n.moteShard[mid] = sh.slot
		}
		plo, phi := n.lay.ProxyRange(sh.domain)
		for pi := plo; pi < phi; pi++ {
			n.proxyShard[pi] = sh.slot
		}
	}
	n.refreshViews()
	n.eng.Rehost(d, -1)
	return nil
}

// HostsDomain reports whether this process currently hosts domain d.
func (n *Network) HostsDomain(d int) bool {
	_, ok := n.localShard(d)
	return ok
}

// refreshViews rebuilds the aggregate Proxies/Motes slices, the cached
// mote-id list and the shard-0 aliases from the shard set: at Build and
// whenever a domain is adopted or dropped.
func (n *Network) refreshViews() {
	var proxies []*proxy.Proxy
	var motes []*mote.Mote
	for _, s := range n.shards {
		proxies = append(proxies, s.proxies...)
		motes = append(motes, s.motes...)
	}
	sort.Slice(motes, func(i, j int) bool { return motes[i].ID() < motes[j].ID() })
	n.Proxies, n.Motes = proxies, motes
	n.reap.shards = n.shards
	n.moteIDs = make([]radio.NodeID, len(motes))
	for i, m := range motes {
		n.moteIDs[i] = m.ID()
	}
	if len(n.shards) > 0 {
		n.Sim = n.shards[0].sim
		n.Medium = n.shards[0].medium
		n.Index = n.shards[0].ix
		n.Store = n.shards[0].st
	}
}
