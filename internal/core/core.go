// Package core assembles the complete PRESTO system: the three-tier
// architecture of Figure 1 — remote sensors with local archives, tethered
// proxies with caches and prediction engines, and the unified logical
// store with its distributed index on top — wired together over the
// simulated radio and driven by discrete-event kernels.
//
// This is the package applications import: Build a Network from a Config,
// Bootstrap it (training phase → model-driven operation), then post
// queries against the unified store while virtual time advances.
//
// A deployment can be sharded (Config.Shards): proxies and their motes
// are partitioned into independent simulation domains that advance
// concurrently, one worker goroutine per domain, with a wired-replica
// bridge carrying confirmed data and models between domains. See
// client.go for the query engine and engine.go for the worker model.
// With Shards <= 1 the deployment is a single domain and behaves exactly
// like the unsharded design, including bit-for-bit reproducible runs for
// a given seed.
package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"presto/internal/baseline"
	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/gen"
	"presto/internal/index"
	"presto/internal/model"
	"presto/internal/mote"
	"presto/internal/predict"
	"presto/internal/proxy"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/store"
	"presto/internal/wire"
)

// proxyIDBase offsets proxy node ids above mote ids.
const proxyIDBase = 10000

// bridgeLatency is the one-way wired latency between simulation domains
// (replica traffic).
const bridgeLatency = 2 * time.Millisecond

// Config describes a deployment.
type Config struct {
	Seed          int64
	Proxies       int
	MotesPerProxy int

	// Shards partitions the deployment into this many concurrent
	// simulation domains (clamped to Proxies; <= 1 means a single
	// domain). Each domain owns a contiguous block of proxies plus their
	// motes and advances on its own worker goroutine.
	Shards int

	// FirstShard/SiteShards restrict Build to a contiguous window of the
	// global domains — cluster mode, where each OS process hosts one
	// window of the same deployment (internal/cluster assigns them).
	// SiteShards == 0 means host every domain (the ordinary
	// single-process build). Windowing changes nothing about the global
	// partition: domain seeds, proxy ranges and mote ids are derived from
	// the full config, so a windowed build is bit-identical to the
	// corresponding domains of a full build.
	FirstShard int
	SiteShards int

	Radio radio.Config

	SampleInterval time.Duration
	LPLInterval    time.Duration
	Flash          flash.Geometry
	Delta          float64

	// MoteSampleIntervals optionally overrides SampleInterval per mote,
	// indexed by global mote index (len 0 or Proxies*MotesPerProxy; a zero
	// entry keeps the global interval). Heterogeneous deployments set it —
	// a 5-minute traffic counter lives next to a 1-minute thermometer.
	MoteSampleIntervals []time.Duration
	// MoteDeltas optionally overrides Delta per mote the same way (a
	// vehicle count needs a wider push threshold than a temperature).
	MoteDeltas []float64

	// StoreBackend selects each domain's archival store: "mem" (default:
	// the proxy caches are the in-memory archive, with no backend behind
	// them) or "flash" (adds a log-structured archive on simulated NAND —
	// the paper's flash-archival proxy design).
	StoreBackend string
	// StoreFlash is the device geometry for the "flash" store backend
	// (zero value = store.DefaultStoreGeometry()).
	StoreFlash flash.Geometry
	// StoreAging selects how flash compaction ages old segments, in the
	// form store.ParseAgingPolicy accepts: "" or "wavelet" for age-tiered
	// wavelet summarization (optionally "wavelet:1/2,1/4,1/8" to set the
	// tier schedule), "uniform" for legacy widened-mean coarsening.
	StoreAging string

	// Preset optionally overrides the mote push policy (baselines).
	Preset *baseline.Preset

	// Traces supplies one trace per mote (Proxies*MotesPerProxy needed).
	Traces []*gen.Trace

	// WiredFirstProxy marks proxy 0 as wired and the rest wireless; when
	// set, proxy 0 is registered as the wired replica of the others and
	// receives a mirrored copy of their confirmed data and models —
	// directly when co-located in a domain, over the bridge otherwise.
	WiredFirstProxy bool
}

// DefaultConfig returns a small deployment: 1 proxy, 4 motes, 1-minute
// sampling, delta 1.0, a single simulation domain.
func DefaultConfig() Config {
	return Config{
		Seed:           1,
		Proxies:        1,
		MotesPerProxy:  4,
		Shards:         1,
		Radio:          radio.DefaultConfig(),
		SampleInterval: time.Minute,
		LPLInterval:    500 * time.Millisecond,
		Flash:          flash.Geometry{PageSize: 256, PagesPerBlock: 16, NumBlocks: 128},
		Delta:          1.0,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Proxies <= 0 || c.MotesPerProxy <= 0 {
		return fmt.Errorf("core: need positive proxies (%d) and motes per proxy (%d)", c.Proxies, c.MotesPerProxy)
	}
	if c.SampleInterval <= 0 {
		return errors.New("core: non-positive sample interval")
	}
	if len(c.Traces) < c.Proxies*c.MotesPerProxy {
		return fmt.Errorf("core: %d traces for %d motes", len(c.Traces), c.Proxies*c.MotesPerProxy)
	}
	if n := c.Proxies * c.MotesPerProxy; len(c.MoteSampleIntervals) != 0 && len(c.MoteSampleIntervals) != n {
		return fmt.Errorf("core: %d per-mote sample intervals for %d motes", len(c.MoteSampleIntervals), n)
	}
	if n := c.Proxies * c.MotesPerProxy; len(c.MoteDeltas) != 0 && len(c.MoteDeltas) != n {
		return fmt.Errorf("core: %d per-mote deltas for %d motes", len(c.MoteDeltas), n)
	}
	for i, d := range c.MoteSampleIntervals {
		if d < 0 {
			return fmt.Errorf("core: negative sample interval %v for mote %d", d, i+1)
		}
	}
	for i, d := range c.MoteDeltas {
		if d < 0 {
			return fmt.Errorf("core: negative delta %g for mote %d", d, i+1)
		}
	}
	switch c.StoreBackend {
	case "", "mem", "flash":
	default:
		return fmt.Errorf("core: unknown store backend %q (want mem or flash)", c.StoreBackend)
	}
	if _, err := store.ParseAgingPolicy(c.StoreAging); err != nil {
		return err
	}
	if c.FirstShard < 0 || c.SiteShards < 0 {
		return fmt.Errorf("core: negative shard window [%d, +%d)", c.FirstShard, c.SiteShards)
	}
	if c.SiteShards == 0 && c.FirstShard != 0 {
		return fmt.Errorf("core: FirstShard %d without SiteShards", c.FirstShard)
	}
	if total := NewLayout(c).Shards; c.SiteShards > 0 && c.FirstShard+c.SiteShards > total {
		return fmt.Errorf("core: shard window [%d, %d) exceeds the %d global domains",
			c.FirstShard, c.FirstShard+c.SiteShards, total)
	}
	return nil
}

// replicates reports whether proxy 0 mirrors the other proxies over the
// wired-replica bridge: the only traffic that crosses domains between
// leases.
func (c Config) replicates() bool { return c.WiredFirstProxy && c.Proxies > 1 }

// moteSampleInterval resolves mote mi's effective sampling period: the
// per-mote override when one is set, the global interval otherwise.
func (c Config) moteSampleInterval(mi int) time.Duration {
	if mi < len(c.MoteSampleIntervals) && c.MoteSampleIntervals[mi] > 0 {
		return c.MoteSampleIntervals[mi]
	}
	return c.SampleInterval
}

// moteDelta resolves mote mi's effective push threshold the same way.
func (c Config) moteDelta(mi int) float64 {
	if mi < len(c.MoteDeltas) && c.MoteDeltas[mi] > 0 {
		return c.MoteDeltas[mi]
	}
	return c.Delta
}

// ---------------------------------------------------------------------------
// Global layout

// Layout is the deterministic global partition of a deployment into
// simulation domains: which contiguous proxy block (and therefore which
// motes) each domain owns. It is pure arithmetic over the Config — no
// domain needs to be built — so a cluster coordinator uses it to route
// motes to the sites hosting their domains, and windowed builds use it
// to place their window inside the global plan.
type Layout struct {
	// Shards is the effective global domain count (Config.Shards clamped
	// to [1, Proxies]).
	Shards        int
	MotesPerProxy int
	proxyLo       []int // per domain: first global proxy index
	proxyHi       []int // per domain: one past the last global proxy index
}

// NewLayout computes the partition for a config (Proxies and
// MotesPerProxy must be positive, as Validate enforces).
func NewLayout(cfg Config) Layout {
	nShards := cfg.Shards
	if nShards <= 0 {
		nShards = 1
	}
	if nShards > cfg.Proxies {
		nShards = cfg.Proxies
	}
	l := Layout{Shards: nShards, MotesPerProxy: cfg.MotesPerProxy}
	base, rem := cfg.Proxies/nShards, cfg.Proxies%nShards
	pi := 0
	for si := 0; si < nShards; si++ {
		count := base
		if si < rem {
			count++
		}
		l.proxyLo = append(l.proxyLo, pi)
		l.proxyHi = append(l.proxyHi, pi+count)
		pi += count
	}
	return l
}

// ProxyRange returns the global proxy index range [lo, hi) domain d owns.
func (l Layout) ProxyRange(d int) (lo, hi int) { return l.proxyLo[d], l.proxyHi[d] }

// DomainOfMote maps a mote id to its owning global domain.
func (l Layout) DomainOfMote(m radio.NodeID) (int, bool) {
	mi := int(m) - 1
	if mi < 0 || l.MotesPerProxy <= 0 {
		return 0, false
	}
	pi := mi / l.MotesPerProxy
	for d := 0; d < l.Shards; d++ {
		if pi >= l.proxyLo[d] && pi < l.proxyHi[d] {
			return d, true
		}
	}
	return 0, false
}

// DomainMotes lists the mote ids domain d owns, ascending.
func (l Layout) DomainMotes(d int) []radio.NodeID {
	lo, hi := l.ProxyRange(d)
	out := make([]radio.NodeID, 0, (hi-lo)*l.MotesPerProxy)
	for mi := lo * l.MotesPerProxy; mi < hi*l.MotesPerProxy; mi++ {
		out = append(out, radio.NodeID(1+mi))
	}
	return out
}

// AllMotes lists every mote id in the deployment, ascending.
func (l Layout) AllMotes() []radio.NodeID {
	var out []radio.NodeID
	for d := 0; d < l.Shards; d++ {
		out = append(out, l.DomainMotes(d)...)
	}
	return out
}

// Network is a running PRESTO deployment: one or more concurrent
// simulation domains fronted by the query engine (client.go) as its one
// local site.
// Public methods are safe for concurrent use — each domain is owned by
// one worker goroutine and the engine routes work to it.
//
// Sim, Medium, Index and Store alias shard 0's domain for compatibility
// and single-domain introspection; touching them (or Proxies/Motes
// elements) directly is only safe while the engine is quiescent — no
// Run or query concurrently in flight.
type Network struct {
	cfg Config
	lay Layout
	// firstShard is the global index of shards[0] — non-zero only for
	// windowed (cluster-site) builds.
	firstShard int
	shards     []*shard

	// moteShard / moteHome route a locally-hosted mote id to its owning
	// shard (index into shards) and simulated node; proxyShard maps
	// locally-hosted global proxy indexes the same way. Immutable after
	// Build.
	moteShard  map[radio.NodeID]int
	moteHome   map[radio.NodeID]*mote.Mote
	proxyShard map[int]int

	// moteIDs caches the hosted mote ids, ascending — every all-motes spec
	// targets it. Rebuilt, never edited, when the shard set changes
	// (refreshViews), so rounds in flight may alias it.
	moteIDs []radio.NodeID

	bridge       *radio.Bridge
	replicaFirst bool // multi-domain wired replica serving enabled

	mu        sync.Mutex // engine control state (started)
	started   bool
	closeOnce sync.Once

	// runMu serializes Run: one caller advances the clock at a time.
	runMu sync.Mutex
	// eng is the query engine over this process's domains as one local
	// site; reap is what the finalizer shuts down if n is abandoned.
	eng  *Engine
	reap *reaper

	queriesSubmitted atomic.Uint64
	replicaServed    atomic.Uint64
	replicaBypassed  atomic.Uint64 // replica skipped by a freshness bound

	// Shard 0 aliases and global views (see type comment).
	Sim     *simtime.Simulator
	Medium  *radio.Medium
	Index   *index.Index
	Store   *store.Store
	Proxies []*proxy.Proxy
	Motes   []*mote.Mote
}

// Build constructs a deployment (not yet sampling; call Start or
// Bootstrap). Shard workers start immediately; Close the network when
// done with it (abandoned networks are reaped by a finalizer).
func Build(cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay := NewLayout(cfg)
	first, count := 0, lay.Shards
	if cfg.SiteShards > 0 {
		first, count = cfg.FirstShard, cfg.SiteShards
	}
	n := &Network{
		cfg:        cfg,
		lay:        lay,
		firstShard: first,
		moteShard:  make(map[radio.NodeID]int),
		moteHome:   make(map[radio.NodeID]*mote.Mote),
		proxyShard: make(map[int]int),
	}
	domainSite := make([]int, lay.Shards)
	for d := range domainSite {
		domainSite[d] = -1
		if d >= first && d < first+count {
			domainSite[d] = 0
		}
	}
	n.eng = NewEngine(n, 0, domainSite)
	n.reap = &reaper{standing: n.eng.standing}
	// The bridge exists whenever the *global* deployment is multi-domain:
	// a windowed build hosting a single domain still replicates over it —
	// traffic for domains in other processes leaves through its uplink
	// (cluster.Site installs one; without an uplink such traffic drops,
	// like radio loss).
	if lay.Shards > 1 {
		n.bridge = radio.NewBridge(bridgeLatency)
		// The replica NOW fast path runs where domain 0 (the wired proxy)
		// is hosted.
		n.replicaFirst = cfg.WiredFirstProxy && first == 0
	}

	// Build this process's window of the global partition: shard si owns
	// proxies [ProxyRange(si)) whether or not neighbouring domains are
	// hosted here.
	for si := first; si < first+count; si++ {
		lo, hi := lay.ProxyRange(si)
		s, err := n.buildShard(si, len(n.shards), lo, hi-lo)
		if err != nil {
			n.Close()
			return nil, err
		}
		n.shards = append(n.shards, s)
		for pi := lo; pi < hi; pi++ {
			n.proxyShard[pi] = s.slot
		}
	}

	// Wired replication: proxy 0 mirrors every wireless proxy. Same-
	// domain proxies tap straight into it; remote domains go over the
	// bridge. The replica registers every remote mote in replica-only
	// mode so it can absorb and serve their data.
	if cfg.replicates() {
		n.wireReplication()
	}

	if len(n.shards) == 0 {
		return nil, fmt.Errorf("core: empty shard window [%d, %d)", first, first+count)
	}

	n.refreshViews()
	for _, s := range n.shards {
		go s.loop()
	}
	runtime.SetFinalizer(n.reap, (*reaper).reap)
	return n, nil
}

// buildShard assembles one simulation domain (global index si) holding
// count proxies starting at global proxy index pi0, plus their motes,
// registered at the given process-local slot. Everything about the
// domain — kernel and index seeds, node ids, trace assignment — derives
// from the global indexes, so the same domain built in any process (at
// build time or adopted later) behaves bit-for-bit identically.
func (n *Network) buildShard(si, slot, pi0, count int) (*shard, error) {
	cfg := n.cfg
	sim := simtime.New(cfg.Seed + int64(si))
	ep := energy.DefaultParams() // every medium and mote meters with the defaults
	med, err := radio.NewMedium(sim, cfg.Radio, ep)
	if err != nil {
		return nil, err
	}
	ix := index.New(cfg.Seed + 1 + int64(si))
	st := store.New(ix, si)
	if cfg.StoreBackend == "flash" {
		pol, err := store.ParseAgingPolicy(cfg.StoreAging)
		if err != nil {
			return nil, err
		}
		fb, err := store.NewFlashBackendPolicy(cfg.StoreFlash, pol)
		if err != nil {
			return nil, err
		}
		st.SetBackend(fb)
	}
	s := &shard{
		domain:    si,
		slot:      slot,
		sim:       sim,
		medium:    med,
		ix:        ix,
		st:        st,
		moteProxy: make(map[radio.NodeID]*proxy.Proxy),
		bridge:    n.bridge,
		cmds:      make(chan shardCmd, 256),
		quit:      make(chan struct{}),
		pending:   make(map[*pendingQuery]struct{}),
	}

	for pi := pi0; pi < pi0+count; pi++ {
		pid := radio.NodeID(proxyIDBase + 1 + pi)
		p, err := proxy.New(sim, med, proxy.DefaultConfig(pid))
		if err != nil {
			return nil, err
		}
		wired := !cfg.WiredFirstProxy || pi == 0
		st.AddProxy(index.ProxyID(pi), p, wired)
		s.proxies = append(s.proxies, p)
	}

	for pi := pi0; pi < pi0+count; pi++ {
		for mi := pi * cfg.MotesPerProxy; mi < (pi+1)*cfg.MotesPerProxy; mi++ {
			mid := radio.NodeID(1 + mi)
			mc := mote.DefaultConfig(mid, radio.NodeID(proxyIDBase+1+pi))
			mc.SampleInterval = cfg.moteSampleInterval(mi)
			mc.LPLInterval = cfg.LPLInterval
			mc.Flash = cfg.Flash
			mc.Delta = cfg.moteDelta(mi)
			if cfg.Preset != nil {
				cfg.Preset.Apply(&mc)
			}
			tr := cfg.Traces[mi]
			sampler := func(t simtime.Time) float64 { return tr.Value(t) }
			m, err := mote.New(sim, med, ep, mc, sampler)
			if err != nil {
				return nil, err
			}
			p := s.proxies[pi-pi0]
			p.Register(mid, mc.SampleInterval, mc.Delta)
			st.AdoptMote(mid, index.ProxyID(pi), mc.SampleInterval)
			s.motes = append(s.motes, m)
			s.moteProxy[mid] = p
			n.moteShard[mid] = slot
			n.moteHome[mid] = m
		}
	}
	return s, nil
}

// wireReplication connects every wireless proxy's replica tap to proxy 0
// and registers their motes on it in replica-only mode. Within shard 0
// the tap is a direct call (same domain, same kernel); across shards it
// rides the bridge, whose handler on shard 0 absorbs the traffic. In a
// windowed build only the locally-hosted side of each link exists: the
// process hosting domain 0 registers *every* wireless proxy's motes on
// the replica (their traffic arrives over the bridge, locally or through
// the cluster transport), and other processes install taps whose
// bridge sends leave through the uplink.
func (n *Network) wireReplication() {
	cfg := n.cfg
	var wiredProxy *proxy.Proxy
	if s0, ok := n.localShard(0); ok {
		wiredProxy = s0.proxies[0]
		s0.wired = wiredProxy
		if n.bridge != nil {
			n.bridge.AttachDomain(0, s0.sim, func(msg radio.BridgeMsg) {
				wiredProxy.AbsorbReplica(msg.Mote, msg.Kind, msg.Payload)
			})
		}
		// Register every wireless proxy's motes — hosted here or not —
		// so the replica can absorb and serve whatever the bridge
		// delivers.
		for pi := 1; pi < cfg.Proxies; pi++ {
			for mi := pi * cfg.MotesPerProxy; mi < (pi+1)*cfg.MotesPerProxy; mi++ {
				wiredProxy.RegisterReplica(radio.NodeID(1+mi), cfg.moteSampleInterval(mi), cfg.moteDelta(mi))
			}
		}
	}

	for _, s := range n.shards {
		n.wireShardReplication(s)
	}
}

// wireShardReplication installs one shard's side of the replica links:
// the bridge inbox attachment and, for every wireless proxy it hosts,
// the replica tap (direct within domain 0, over the bridge elsewhere).
// Build calls it for every shard; AdoptDomain calls it for the shard it
// grafts onto a running deployment.
func (n *Network) wireShardReplication(s *shard) {
	si := s.domain
	if n.bridge != nil && si != 0 {
		// Non-replica domains still need an attachment so future
		// bidirectional traffic has an inbox; handler drops.
		n.bridge.AttachDomain(radio.DomainID(si), s.sim, func(radio.BridgeMsg) {})
	}
	lo, _ := n.lay.ProxyRange(si)
	for lpi, p := range s.proxies {
		pi := lo + lpi
		if pi == 0 {
			continue // the wired proxy does not replicate itself
		}
		if si == 0 {
			// Same domain: direct tap, and the domain-local store
			// routes these motes' queries to the replica (seed
			// behaviour, now with real mirrored data behind it).
			p.SetReplicaTap(s.wired.AbsorbReplica)
			// Proxy 0 is always wired here, so this cannot fail.
			_ = s.ix.SetReplica(index.ProxyID(pi), 0)
		} else {
			// Capture the bridge, not n: this closure is held by the
			// shard for its lifetime, and referencing n would keep
			// abandoned networks finalizer-unreachable.
			src, bridge := radio.DomainID(si), n.bridge
			p.SetReplicaTap(func(m radio.NodeID, kind radio.Kind, payload []byte) {
				bridge.Send(radio.BridgeMsg{
					Src: src, Dst: 0, Mote: m, Kind: kind,
					Payload: append([]byte(nil), payload...),
				})
			})
		}
	}
}

// localShard returns the shard hosting global domain d, if this process
// hosts it. Hosted windows need not be contiguous once domains have been
// adopted or dropped, so this scans rather than offsetting by firstShard.
func (n *Network) localShard(d int) (*shard, bool) {
	for _, s := range n.shards {
		if s.domain == d {
			return s, true
		}
	}
	return nil, false
}

// Layout returns the deployment's global domain partition.
func (n *Network) Layout() Layout { return n.lay }

// Bridge returns the inter-domain wired-replica bridge (nil for
// single-domain deployments). Cluster sites hang their transport uplink
// off it; tests inspect its counters.
func (n *Network) Bridge() *radio.Bridge { return n.bridge }

// Start begins sampling on every mote.
func (n *Network) Start() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.started {
		return
	}
	n.started = true
	n.eachShard(func(s *shard) {
		for _, m := range s.motes {
			m.Start()
		}
	})
}

// ProxyFor returns the proxy managing a mote.
func (n *Network) ProxyFor(m radio.NodeID) (*proxy.Proxy, error) {
	s, err := n.shardFor(m)
	if err != nil {
		return nil, err
	}
	return s.moteProxy[m], nil
}

// Bootstrap runs PRESTO's two-phase startup on every domain
// concurrently: motes stream everything for trainFor (populating proxy
// caches with ground truth), then each proxy trains a seasonal-anchored
// model per mote, ships it with delta, and switches the mote to
// model-driven push. Returns the trained models by mote id.
func (n *Network) Bootstrap(trainFor time.Duration, bins int, delta float64) (map[radio.NodeID]model.Model, error) {
	n.mu.Lock()
	if !n.started {
		n.started = true
		n.eachShard(func(s *shard) {
			for _, m := range s.motes {
				m.Start()
			}
		})
	}
	n.mu.Unlock()

	models := make([]map[radio.NodeID]model.Model, len(n.shards))
	errs := make([]error, len(n.shards))
	n.eachShard(func(s *shard) {
		local := make(map[radio.NodeID]model.Model, len(s.motes))
		// Phase 1: stream-all.
		for _, m := range s.motes {
			if err := s.moteProxy[m.ID()].Configure(m.ID(), wire.Config{StreamAll: 1}); err != nil {
				errs[s.slot] = err
				return
			}
		}
		s.advanceTo(s.sim.Now() + simtime.Time(trainFor))
		// Phase 2: train, ship, switch to model-driven.
		for _, m := range s.motes {
			p := s.moteProxy[m.ID()]
			mdl, err := p.TrainAndShip(m.ID(), 0, s.sim.Now(), bins, delta)
			if err != nil {
				errs[s.slot] = fmt.Errorf("core: bootstrap mote %d: %w", m.ID(), err)
				return
			}
			if err := p.Configure(m.ID(), wire.Config{StreamAll: 2}); err != nil {
				errs[s.slot] = err
				return
			}
			local[m.ID()] = mdl
		}
		// Let the model updates and config changes propagate.
		s.advanceTo(s.sim.Now() + simtime.Time(time.Minute))
		models[s.slot] = local
	})
	merged := make(map[radio.NodeID]model.Model, len(n.moteShard))
	for si, local := range models {
		if errs[si] != nil {
			return nil, errs[si]
		}
		for id, m := range local {
			merged[id] = m
		}
	}
	return merged, nil
}

// Retrain refreshes every mote's model from recent confirmed data per the
// policy and ships the updates.
func (n *Network) Retrain(policy predict.RetrainPolicy, delta float64) error {
	if err := policy.Validate(); err != nil {
		return err
	}
	errs := make([]error, len(n.shards))
	n.eachShard(func(s *shard) {
		now := s.sim.Now()
		t0 := now - simtime.Time(policy.Window)
		if t0 < 0 {
			t0 = 0
		}
		for _, m := range s.motes {
			if _, err := s.moteProxy[m.ID()].TrainAndShip(m.ID(), t0, now, policy.Bins, delta); err != nil {
				errs[s.slot] = fmt.Errorf("core: retrain mote %d: %w", m.ID(), err)
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RetrainTicker aggregates the per-domain retrain tickers installed by
// AutoRetrain.
type RetrainTicker struct {
	shards  []*shard          // the shards the tickers were installed on
	tickers []*simtime.Ticker // parallel to shards
}

// Firings reports the total retrain rounds fired across all domains.
func (t *RetrainTicker) Firings() uint64 {
	var total uint64
	for _, tk := range t.tickers {
		if tk != nil {
			total += tk.Firings()
		}
	}
	return total
}

// Stop cancels future retrains in every domain.
func (t *RetrainTicker) Stop() {
	for i, tk := range t.tickers {
		if tk == nil {
			continue
		}
		tk := tk
		t.shards[i].call(func(*shard) { tk.Stop() })
	}
}

// AutoRetrain schedules periodic model refresh per the policy: every
// policy.Every of virtual time, each domain retrains its motes' models
// on the last policy.Window of confirmed data and re-ships them. Returns
// a ticker handle so callers can stop it. Retraining failures on
// individual motes (e.g. no confirmed data yet) are counted, not fatal —
// a deployment must survive a quiet mote.
func (n *Network) AutoRetrain(policy predict.RetrainPolicy, delta float64) (*RetrainTicker, error) {
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	rt := &RetrainTicker{
		shards:  append([]*shard(nil), n.shards...),
		tickers: make([]*simtime.Ticker, len(n.shards)),
	}
	n.eachShard(func(s *shard) {
		rt.tickers[s.slot] = s.sim.Every(policy.Every, func() {
			now := s.sim.Now()
			t0 := now - simtime.Time(policy.Window)
			if t0 < 0 {
				t0 = 0
			}
			for _, m := range s.motes {
				p := s.moteProxy[m.ID()]
				if p == nil {
					continue
				}
				if _, err := p.TrainAndShip(m.ID(), t0, now, policy.Bins, delta); err != nil {
					s.retrainFailures.Add(1)
				}
			}
		})
	})
	return rt, nil
}

// RetrainFailures reports how many per-mote retrain attempts failed.
func (n *Network) RetrainFailures() uint64 {
	var total uint64
	for _, s := range n.shards {
		total += s.retrainFailures.Load()
	}
	return total
}

// MatchWorkload applies query–sensor matching for a mote: the workload is
// translated to a plan and shipped over the air.
func (n *Network) MatchWorkload(m radio.NodeID, w predict.Workload) (predict.Plan, error) {
	s, err := n.shardFor(m)
	if err != nil {
		return predict.Plan{}, fmt.Errorf("core: mote %d has no proxy", m)
	}
	plan, err := predict.Match(w, n.cfg.SampleInterval)
	if err != nil {
		return predict.Plan{}, err
	}
	var cfgErr error
	if !s.call(func(s *shard) { cfgErr = s.moteProxy[m].Configure(m, plan.WireConfig()) }) {
		return predict.Plan{}, ErrClosed
	}
	if cfgErr != nil {
		return predict.Plan{}, cfgErr
	}
	return plan, nil
}

// MoteEnergy returns a mote's up-to-date energy meter.
func (n *Network) MoteEnergy(id radio.NodeID) (*energy.Meter, error) {
	s, err := n.shardFor(id)
	if err != nil {
		return nil, err
	}
	var meter *energy.Meter
	if !s.call(func(*shard) { meter = n.moteHome[id].Meter() }) {
		return nil, ErrClosed
	}
	return meter, nil
}

// TotalMoteEnergy aggregates all motes' meters.
func (n *Network) TotalMoteEnergy() energy.Meter {
	totals := make([]energy.Meter, len(n.shards))
	n.eachShard(func(s *shard) {
		for _, m := range s.motes {
			totals[s.slot].AddFrom(m.Meter())
		}
	})
	var total energy.Meter
	for i := range totals {
		total.AddFrom(&totals[i])
	}
	return total
}

// MoteStats returns a mote's activity counters.
func (n *Network) MoteStats(id radio.NodeID) (mote.Stats, error) {
	s, err := n.shardFor(id)
	if err != nil {
		return mote.Stats{}, err
	}
	var st mote.Stats
	if !s.call(func(*shard) { st = n.moteHome[id].Stats() }) {
		return mote.Stats{}, ErrClosed
	}
	return st, nil
}

// ProxyStatsFor returns the activity counters of the proxy managing a
// mote.
func (n *Network) ProxyStatsFor(id radio.NodeID) (proxy.Stats, error) {
	s, err := n.shardFor(id)
	if err != nil {
		return proxy.Stats{}, err
	}
	var st proxy.Stats
	if !s.call(func(s *shard) { st = s.moteProxy[id].Stats() }) {
		return proxy.Stats{}, ErrClosed
	}
	return st, nil
}

// Truth returns the ground-truth trace value for a mote at time t
// (experiments compare answers against this).
func (n *Network) Truth(id radio.NodeID, t simtime.Time) (float64, error) {
	mi := int(id) - 1
	if mi < 0 || mi >= len(n.cfg.Traces) {
		return 0, fmt.Errorf("core: unknown mote %d", id)
	}
	return n.cfg.Traces[mi].Value(t), nil
}

// Trace exposes a mote's ground-truth trace.
func (n *Network) Trace(id radio.NodeID) (*gen.Trace, error) {
	mi := int(id) - 1
	if mi < 0 || mi >= len(n.cfg.Traces) {
		return nil, fmt.Errorf("core: unknown mote %d", id)
	}
	return n.cfg.Traces[mi], nil
}

// MoteIDs lists all mote node ids in order.
func (n *Network) MoteIDs() []radio.NodeID { return slices.Clone(n.moteIDs) }

// Detections returns the globally time-ordered detection stream in
// [t0, t1] merged across every domain's index.
func (n *Network) Detections(t0, t1 simtime.Time) []index.Detection {
	per := make([][]index.Detection, len(n.shards))
	n.eachShard(func(s *shard) { per[s.slot] = s.st.Detections(t0, t1) })
	var out []index.Detection
	for _, ds := range per {
		out = append(out, ds...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].T < out[j].T })
	return out
}

// StoreStats aggregates every domain's store routing counters: managing-
// proxy routes, replica offers, freshness-bound replica rejections, and
// range queries served whole from the archive backend.
func (n *Network) StoreStats() store.RoutingStats {
	per := make([]store.RoutingStats, len(n.shards))
	n.eachShard(func(s *shard) { per[s.slot] = s.st.RoutingStats() })
	var total store.RoutingStats
	for _, r := range per {
		total.Routed += r.Routed
		total.ReplicaRouted += r.ReplicaRouted
		total.ReplicaStale += r.ReplicaStale
		total.ArchiveServed += r.ArchiveServed
		total.ArchiveStale += r.ArchiveStale
	}
	return total
}

// StoreBackendStats aggregates every domain's archive backend counters,
// so callers can report archive hit ratios and flash read amplification.
func (n *Network) StoreBackendStats() store.BackendStats {
	per := make([]store.BackendStats, len(n.shards))
	n.eachShard(func(s *shard) { per[s.slot] = s.st.BackendStats() })
	var total store.BackendStats
	for _, b := range per {
		total.Appends += b.Appends
		total.Records += b.Records
		total.QueryRanges += b.QueryRanges
		total.LatestReads += b.LatestReads
		total.PagesWritten += b.PagesWritten
		total.PagesRead += b.PagesRead
		total.RecordsScanned += b.RecordsScanned
		total.RecordsMatched += b.RecordsMatched
		total.RecordsSkipped += b.RecordsSkipped
		total.Compactions += b.Compactions
		total.Coarsened += b.Coarsened
		total.WaveletChunks += b.WaveletChunks
		total.Dropped += b.Dropped
	}
	return total
}

// Publish adds a detection to the index of the domain owning the
// publishing proxy.
func (n *Network) Publish(d index.Detection) error {
	pi := int(d.Proxy)
	li, ok := n.proxyShard[pi]
	if !ok {
		return fmt.Errorf("core: proxy %d not hosted by this process", d.Proxy)
	}
	s := n.shards[li]
	var err error
	if !s.call(func(s *shard) { err = s.st.Publish(d) }) {
		return ErrClosed
	}
	return err
}
