package cluster

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"presto/internal/core"
	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// DefaultQuantum is the advance-lease size: how much virtual time a site
// may run ahead between coordinator barriers. It matches the in-process
// engine's bridge-drain quantum — the same bound the single-process
// replica freshness story is built on.
const DefaultQuantum = 10 * time.Second

// Options tunes a cluster coordinator.
type Options struct {
	// Sites is the total site count, the coordinator included: it is
	// site 0 of N, hosting the first window of domains (and with it the
	// wired replica) and driving them through the same calls as every
	// joined site. Must be >= 1 and <= the deployment's domain count.
	Sites int
	// Quantum is the advance-lease size in virtual time (default
	// DefaultQuantum). Continuous rounds fire at the first lease
	// boundary at or after their nominal instant, with the query window
	// still bound at the instant itself — cadences that divide the
	// quantum (the usual case) fire exactly on time. A cadence faster
	// than the quantum gets each step's due rounds batched into one
	// scatter/partials frame pair per site.
	Quantum time.Duration
}

// siteTargets is one site's share of a spec's resolved motes.
type siteTargets struct {
	site  int
	motes []radio.NodeID
}

// Coordinator runs a deployment across cluster sites. It is site 0 of
// N: it hosts the first window of domains itself and reaches them
// through the same member calls as every joined site. It owns the global
// virtual clock (advance leases), gathers each spec once per site (one
// scatter frame per joined site), and merges the sites' partials with
// the engine's honest-bounds merge stage. It implements
// core.SpecSubmitter, so core.Client front-ends a cluster exactly as it
// does an in-process Network.
type Coordinator struct {
	cfg core.Config
	lay core.Layout
	opt Options
	// domainSite maps each global domain to its hosting site, indexed
	// by domain — the scatter router's O(1) lookup.
	domainSite []int
	// allGroups is the all-motes selector's site grouping, computed
	// once at Listen and reused read-only by every resolveTargets call
	// with a zero selector.
	allGroups []siteTargets
	local     *core.Network // site 0's domains, for introspection and the replica bridge
	lis       Listener
	// accepting is the listener Accept in flight, if any: a join whose
	// ctx ends leaves it for the next join to collect, so a joiner
	// arriving in between is never dropped. Guarded by runMu.
	accepting chan accepted

	seq    atomic.Uint64 // request seqs, shared by every site link
	leases atomic.Uint64 // advance leases issued (one per quantum step, all sites)

	runMu sync.Mutex // serializes Run (one lease-issuer at a time)

	mu     sync.Mutex // guards vnow, closed, sites, elasticity state
	vnow   simtime.Time
	closed bool
	// sites holds one member per site, indexed by site number; a site
	// that has not joined is a member that fails every call. AcceptSites
	// and Rejoin replace links in place, so reads go through member.
	sites []member

	// standing holds the continuous specs the lease loop fires; each
	// stream's Route is its site grouping.
	standing core.Streams[[]siteTargets]

	// Elasticity state (guarded by mu; structural changes additionally
	// hold runMu, so they happen only at lease boundaries).
	migrations    uint64
	rejoins       uint64
	lastMigration simtime.Time
	lastCkpt      *Checkpoint

	closeOnce sync.Once
}

// member returns site i's handle.
func (co *Coordinator) member(i int) member {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.sites[i]
}

// Listen creates a cluster coordinator: it validates the global config,
// builds the coordinator's own domain window, and binds the transport
// listener — but does not accept joiners yet. Read Addr for the bound
// address (":0" TCP listens pick a port), then call AcceptSites to
// block until every site has joined and been assigned its window. Until
// a site joins, every call to it fails with a "has not joined" error,
// the way a dead site's calls do.
func Listen(t Transport, addr string, cfg core.Config, opt Options) (*Coordinator, error) {
	if cfg.SiteShards != 0 || cfg.FirstShard != 0 {
		return nil, errors.New("cluster: the coordinator assigns shard windows; leave them zero")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lay := core.NewLayout(cfg)
	if opt.Sites < 1 {
		return nil, fmt.Errorf("cluster: need at least 1 site, got %d", opt.Sites)
	}
	if opt.Sites > lay.Shards {
		return nil, fmt.Errorf("cluster: %d sites for %d domains (each site hosts at least one)",
			opt.Sites, lay.Shards)
	}
	if opt.Quantum <= 0 {
		opt.Quantum = DefaultQuantum
	}

	first, count := siteWindow(lay.Shards, opt.Sites, 0)
	cfg0 := cfg
	cfg0.FirstShard, cfg0.SiteShards = first, count
	local, err := core.Build(cfg0)
	if err != nil {
		return nil, err
	}
	lis, err := t.Listen(addr)
	if err != nil {
		local.Close()
		return nil, err
	}
	domainSite := make([]int, lay.Shards)
	for s := 0; s < opt.Sites; s++ {
		lo, n := siteWindow(lay.Shards, opt.Sites, s)
		for d := lo; d < lo+n; d++ {
			domainSite[d] = s
		}
	}
	co := &Coordinator{cfg: cfg, lay: lay, opt: opt, domainSite: domainSite, local: local, lis: lis,
		sites: []member{localSite{local}}}
	for s := 1; s < opt.Sites; s++ {
		l := newSiteLink(s, nil, &co.seq)
		l.fail(fmt.Errorf("cluster: site %d %w", s, errNotJoined))
		co.sites = append(co.sites, l)
	}
	co.allGroups, err = co.groupBySite(lay.AllMotes())
	if err != nil {
		local.Close()
		lis.Close()
		return nil, err
	}
	return co, nil
}

// siteWindow splits nShards contiguously across nSites, remainder to the
// first sites; returns site's [first, first+count) window.
func siteWindow(nShards, nSites, site int) (first, count int) {
	base, rem := nShards/nSites, nShards%nSites
	for i := 0; i < site; i++ {
		first += base
		if i < rem {
			first++
		}
	}
	count = base
	if site < rem {
		count++
	}
	return first, count
}

// Addr returns the listener's bound address for joiners to Dial.
func (co *Coordinator) Addr() string { return co.lis.Addr() }

// AcceptSites blocks until every other site has joined: each joiner's
// hello is checked against the coordinator's protocol version and config
// fingerprint, answered with its window assignment (in join order), and
// its connection handed to a demultiplexer. Cancel ctx to abort.
func (co *Coordinator) AcceptSites(ctx context.Context) error {
	co.runMu.Lock()
	defer co.runMu.Unlock()
	for site := 1; site < co.opt.Sites; site++ {
		first, count := siteWindow(co.lay.Shards, co.opt.Sites, site)
		if _, err := co.join(ctx, site, first, count); err != nil {
			return err
		}
	}
	return nil
}

// Network returns the coordinator's locally-hosted domain window (for
// introspection: energy meters, store stats, truth lookups of local
// motes).
func (co *Coordinator) Network() *core.Network { return co.local }

// Client wraps the coordinator in the standard query facade.
func (co *Coordinator) Client() *core.Client { return core.NewClient(co) }

// SiteStats returns per-joined-site frame counters, indexed by site-1
// (site 0 has no connection). The one-frame-per-site property reads
// straight off SentKind.
func (co *Coordinator) SiteStats() []ConnStats {
	out := make([]ConnStats, co.opt.Sites-1)
	for i := range out {
		out[i] = co.linkStats(i + 1)
	}
	return out
}

// linkStats reads joined site i's connection counters.
func (co *Coordinator) linkStats(i int) ConnStats { return co.member(i).(*siteLink).stats() }

// Leases reports how many advance leases the coordinator has issued.
func (co *Coordinator) Leases() uint64 { return co.leases.Load() }

// RegisterMetrics registers the coordinator's elasticity and transport
// counters into an obs registry: the lease clock, migration/rejoin
// history, and each joined site's per-frame-kind wire traffic.
func (co *Coordinator) RegisterMetrics(reg *obs.Registry) {
	// The coordinator hosts the first window of domains itself; their
	// engine/proxy/store series belong in the same registry.
	co.local.RegisterMetrics(reg)
	reg.CounterFunc("presto_cluster_leases_total", "Advance leases issued by the coordinator.", nil, co.Leases)
	reg.CounterFunc("presto_cluster_migrations_total", "Domain migrations performed.", nil, func() uint64 {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.migrations
	})
	reg.CounterFunc("presto_cluster_rejoins_total", "Site re-joins accepted.", nil, func() uint64 {
		co.mu.Lock()
		defer co.mu.Unlock()
		return co.rejoins
	})
	for site := 1; site < co.opt.Sites; site++ {
		siteLabel := fmt.Sprintf("%d", site)
		stats := func() ConnStats { return co.linkStats(site) }
		reg.CounterFunc("presto_cluster_wire_frames_sent_total", "Frames sent to a site.",
			obs.L("site", siteLabel), func() uint64 { return stats().Sent })
		reg.CounterFunc("presto_cluster_wire_frames_recv_total", "Frames received from a site.",
			obs.L("site", siteLabel), func() uint64 { return stats().Recv })
		for k := wire.FrameKind(1); k <= wire.FrameKindMax; k++ {
			kindLabels := obs.Labels{{K: "site", V: siteLabel}, {K: "kind", V: k.String()}}
			reg.CounterFunc("presto_cluster_wire_sent_bytes_total", "Wire bytes sent to a site by frame kind.",
				kindLabels, func() uint64 { return stats().SentKindBytes[k] })
			reg.CounterFunc("presto_cluster_wire_recv_bytes_total", "Wire bytes received from a site by frame kind.",
				kindLabels, func() uint64 { return stats().RecvKindBytes[k] })
		}
	}
}

// Now returns the coordinator's virtual clock: the latest advance-lease
// floor every site has converged on.
func (co *Coordinator) Now() simtime.Time {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.vnow
}

// Close tears the cluster down: joined sites see their connection close
// and exit Serve cleanly; the coordinator's own window shuts its workers
// down. Standing streams abort.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		co.mu.Lock()
		co.closed = true
		co.mu.Unlock()
		co.standing.Close()
		co.lis.Close()
		// Last site first: site 0's window outlives the links whose
		// demultiplexers feed its replica bridge.
		for i := range co.opt.Sites {
			co.member(co.opt.Sites - 1 - i).close()
		}
	})
}

// ---------------------------------------------------------------------------
// Cluster-wide operations

// fanOut runs fn on every site concurrently and waits for all of them.
// The calling goroutine takes the first site's share itself.
func (co *Coordinator) fanOut(fn func(i int, m member)) {
	var wg sync.WaitGroup
	for i := 1; i < co.opt.Sites; i++ {
		m := co.member(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, m)
		}()
	}
	fn(0, co.member(0))
	wg.Wait()
}

// firstErr returns the first failure in site order, naming its site.
func firstErr(op string, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: site %d %s: %w", i, op, err)
		}
	}
	return nil
}

// Bootstrap runs the two-phase startup on every site concurrently and
// waits for all of them; the coordinator's clock then starts at the
// common post-bootstrap instant.
func (co *Coordinator) Bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) error {
	ats, errs := make([]simtime.Time, co.opt.Sites), make([]error, co.opt.Sites)
	co.fanOut(func(i int, m member) { ats[i], errs[i] = m.bootstrap(ctx, trainFor, bins, delta) })
	co.mu.Lock()
	co.vnow = slices.Max(ats)
	co.mu.Unlock()
	return firstErr("bootstrap", errs)
}

// Start begins sampling on every site's motes without the two-phase
// bootstrap (raw-push workloads; Bootstrap implies it).
func (co *Coordinator) Start(ctx context.Context) error {
	errs := make([]error, co.opt.Sites)
	co.fanOut(func(i int, m member) { errs[i] = m.start(ctx) })
	return firstErr("start", errs)
}

// Run advances the whole cluster by d of virtual time, in lease-sized
// steps: every site, the coordinator's own window included, converges on
// each absolute lease target before the next is issued, so no domain
// runs more than one quantum ahead of another — the distributed analogue
// of the in-process bridge-drain chunking. Dead and unjoined sites are
// skipped: their absence is reported per round via SiteErrs, not by
// wedging the clock.
//
// Continuous rounds are pipelined: the gathers for rounds sealed by a
// lease step are issued right after it converges, and the next lease
// goes out while those rounds are still being computed and collected.
// Per-site FIFO keeps this correct without quiescing — a site enqueues a
// round's gathers before it acts on any later lease (site 0 enqueues
// them before fireDue returns; a joined site before it reads the next
// frame on its connection), which pins the round to the clock it was
// sealed at.
func (co *Coordinator) Run(ctx context.Context, d time.Duration) error {
	co.runMu.Lock()
	defer co.runMu.Unlock()
	target := co.Now() + simtime.Time(d)
	for now := co.Now(); now < target; now = co.Now() {
		next := min(now+simtime.Time(co.opt.Quantum), target)
		co.leases.Add(1)
		co.fanOut(func(_ int, m member) { _ = m.advance(ctx, next) }) // dead sites fail fast
		co.mu.Lock()
		co.vnow = next
		co.mu.Unlock()
		co.fireDue()
		if ctx.Err() != nil {
			return ctx.Err()
		}
	}
	return nil
}

// fireDue seals every continuous round whose instant has been reached
// and launches its gathers without waiting for the answers: every site's
// share is enqueued or on the wire before fireDue returns (so it lands
// ahead of the next lease), while collection and merge run on a
// per-batch collector goroutine.
func (co *Coordinator) fireDue() {
	for _, b := range co.standing.Due(co.Now()) {
		bounds := make([]query.Spec, len(b.Rounds))
		for k, r := range b.Rounds {
			bounds[k] = b.Spec.BindWindow(r.At)
		}
		gs := co.scatterRounds(b.Route, bounds, nil)
		go func() {
			for k, res := range co.collectBatch(b.Context(), bounds, b.Rounds, gs) {
				b.Rounds[k].Deliver(res)
			}
		}()
	}
}

// ---------------------------------------------------------------------------
// Scatter-gather

// groupBySite groups resolved target motes by hosting site, in site
// order.
func (co *Coordinator) groupBySite(targets []radio.NodeID) ([]siteTargets, error) {
	bySite := make(map[int][]radio.NodeID)
	for _, m := range targets {
		d, ok := co.lay.DomainOfMote(m)
		if !ok {
			return nil, fmt.Errorf("cluster: unknown mote %d", m)
		}
		bySite[co.domainSite[d]] = append(bySite[co.domainSite[d]], m)
	}
	groups := make([]siteTargets, 0, len(bySite))
	for s, motes := range bySite {
		groups = append(groups, siteTargets{site: s, motes: motes})
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].site < groups[j].site })
	return groups, nil
}

// resolveTargets applies a spec's selector to the global mote list and
// groups the targets by hosting site. Predicates are evaluated here,
// once — only explicit mote lists cross the wire. The all-motes
// selector reuses the grouping computed at Listen (and recomputed by
// every migration); mu orders those reads against regroup's writes.
func (co *Coordinator) resolveTargets(spec query.Spec) ([]siteTargets, error) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if spec.Select.Motes == nil && spec.Select.Where == nil {
		return co.allGroups, nil
	}
	targets := spec.Select.Resolve(co.lay.AllMotes())
	if len(targets) == 0 {
		return nil, fmt.Errorf("cluster: %w", query.ErrNoMotes)
	}
	return co.groupBySite(targets)
}

// gathering is one site's in-flight share of a round batch.
type gathering struct {
	site, motes int
	collect     collectFunc
}

// scatterRounds starts a batch on every site it targets — one round per
// spec in bounds, each bound at its round's instant: site 0's gathers are
// enqueued and each joined site's scatter frame is sent, all that must
// order before the next advance lease; collectBatch assembles the
// answers. A non-nil tr (one-shot rounds) collects each target mote's
// routing decision: site 0's annotate tr directly, a joined site's ride
// back in its partials and graft under its site number.
func (co *Coordinator) scatterRounds(groups []siteTargets, bounds []query.Spec, tr *obs.Trace) []gathering {
	gs := make([]gathering, len(groups))
	for i, g := range groups {
		gs[i] = gathering{site: g.site, motes: len(g.motes), collect: co.member(g.site).gather(bounds, g.motes, tr)}
	}
	if tr != nil { // gate the Sprintf, not just the span: untraced rounds must not allocate
		tr.Span("cluster-scatter", fmt.Sprintf("%d sites", len(groups)))
	}
	return gs
}

// collectBatch waits for every site's share of a batch, merges each
// round's partials in global domain order, and returns the rounds in
// fire order. Sites that fail mid-batch contribute an explicit
// SiteError and their motes count as Failed on every round — a partial
// answer, never a hang.
func (co *Coordinator) collectBatch(ctx context.Context, bounds []query.Spec, rounds []core.Round, gs []gathering) []query.SetResult {
	parts := make([][]query.RoundPartial, len(rounds))
	var siteErrs []query.SiteError // in site order, as groups are
	failed := 0
	for _, g := range gs {
		if err := g.collect(ctx, parts); err != nil {
			siteErrs = append(siteErrs, query.SiteError{Site: g.site, Err: err})
			failed += g.motes
		}
	}
	results := make([]query.SetResult, len(rounds))
	for k, r := range rounds {
		res := query.MergeRounds(bounds[k], r.Seq, r.At, parts[k])
		res.Failed += failed
		res.SiteErrs = siteErrs
		results[k] = res
	}
	return results
}

// windows lists a batch's per-round windows, as batch frames carry them.
func windows(bounds []query.Spec) []query.RoundWindow {
	wins := make([]query.RoundWindow, len(bounds))
	for k, b := range bounds {
		wins[k] = query.RoundWindow{T0: b.T0, T1: b.T1}
	}
	return wins
}

// SubmitSpec implements core.SpecSubmitter over the cluster: one-shot
// specs scatter immediately (sites settle their own kernels, so no Run
// needs to be in flight); continuous specs register with the lease loop
// and fire during Run, one gather per site per lease step. The
// trailing-window form re-binds [now-d, now] at each round's instant,
// coordinator-side, so every site evaluates the same window.
func (co *Coordinator) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	groups, err := co.resolveTargets(spec)
	if err != nil {
		return nil, err
	}
	co.mu.Lock()
	if co.closed {
		co.mu.Unlock()
		return nil, core.ErrClosed
	}
	now := co.vnow
	co.mu.Unlock()

	if spec.Continuous == nil {
		out := make(chan query.SetResult, 1)
		go func() {
			defer close(out)
			// An explain/slow-query trace rides the context.
			tr := obs.TraceFrom(ctx)
			bounds := []query.Spec{spec.BindWindow(now)}
			res := co.collectBatch(ctx, bounds, []core.Round{{At: now}}, co.scatterRounds(groups, bounds, tr))[0]
			if tr != nil {
				tr.Span("cluster-merge", fmt.Sprintf("%d results, %d failed", len(res.Results), res.Failed))
			}
			select {
			case out <- res:
			case <-ctx.Done():
			}
		}()
		return out, nil
	}

	return co.standing.Open(ctx, spec, groups, now)
}

// ---------------------------------------------------------------------------
// Sites

// member is the coordinator's handle on one site: localSite for site 0
// (the coordinator's own window), a siteLink for every joined site. It
// holds exactly what a cluster operation asks of one site, so each
// operation is written once, over all sites.
type member interface {
	// gather enqueues one round per bound over motes now — ahead of the
	// site's next lease — and returns the collect half.
	gather(bounds []query.Spec, motes []radio.NodeID, tr *obs.Trace) collectFunc
	// advance runs the site to the absolute lease target.
	advance(ctx context.Context, target simtime.Time) error
	// bootstrap runs the two-phase startup; it returns the site's clock
	// after it, or zero when the site's ack carries none.
	bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) (simtime.Time, error)
	start(ctx context.Context) error
	// snapshot captures hosted domain d's blob; drop also stops hosting it.
	snapshot(ctx context.Context, d int, drop bool) ([]byte, error)
	// install hosts domain d (adopting it if need be) restored from blob.
	install(ctx context.Context, d int, blob []byte) error
	// lastErr is nil while the site is alive.
	lastErr() error
	close()
}

// collectFunc waits for one site's share of a gathered batch and appends
// round k's partials to parts[k]; on error it has appended nothing.
type collectFunc func(ctx context.Context, parts [][]query.RoundPartial) error

// errNotJoined fails every call to a site that has not joined yet.
var errNotJoined = errors.New("has not joined")

// accepted is one listener Accept's outcome.
type accepted struct {
	conn Conn
	err  error
}

// acceptOne accepts the next joiner off the cluster listener, aborting on
// ctx. An aborted call leaves its Accept in flight for the next call to
// collect. Caller holds runMu.
func (co *Coordinator) acceptOne(ctx context.Context) (Conn, error) {
	if co.accepting == nil {
		ch := make(chan accepted, 1)
		go func() {
			c, err := co.lis.Accept()
			ch <- accepted{c, err}
		}()
		co.accepting = ch
	}
	select {
	case a := <-co.accepting:
		co.accepting = nil
		return a.conn, a.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// join admits the next joiner as site idx, serving domain window
// [first, first+count): it validates the hello, answers with the
// assignment, and installs the link in place of the site's old one.
// Caller holds runMu.
func (co *Coordinator) join(ctx context.Context, idx, first, count int) (*siteLink, error) {
	conn, err := co.acceptOne(ctx)
	if err != nil {
		return nil, err
	}
	if err := co.handshake(conn, idx, first, count); err != nil {
		conn.Close()
		return nil, err
	}
	l := newSiteLink(idx, conn, &co.seq)
	co.mu.Lock()
	co.sites[idx] = l
	co.mu.Unlock()
	go l.demux(co)
	return l, nil
}

// handshake validates a joiner's hello and answers with its assignment.
func (co *Coordinator) handshake(conn Conn, idx, first, count int) error {
	hash := configHash(co.cfg)
	f, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: site %d hello: %w", idx, err)
	}
	hello, err := wire.DecodeHello(f.Payload)
	if f.Kind != wire.FrameHello || err != nil {
		return fmt.Errorf("cluster: site %d: bad hello", idx)
	}
	if hello.Version != wire.ProtoVersion {
		return fmt.Errorf("cluster: site %d speaks protocol %d, want %d", idx, hello.Version, wire.ProtoVersion)
	}
	if hello.ConfigHash != hash {
		return fmt.Errorf("cluster: site %d runs a different deployment (config hash mismatch)", idx)
	}
	return conn.Send(wire.Frame{Kind: wire.FrameAssign, Payload: wire.EncodeAssign(wire.Assign{
		Site: idx, Sites: co.opt.Sites, FirstShard: first, Shards: count, ConfigHash: hash,
	})})
}

// siteLink is the coordinator's member for one joined site: a
// connection, a demultiplexer routing responses to waiting RPCs by seq,
// and a dead latch that fails everything outstanding when the site
// drops. A site that has not joined is a link with no connection,
// latched dead from the start.
type siteLink struct {
	idx  int
	conn Conn
	seq  *atomic.Uint64

	mu      sync.Mutex
	waiters map[uint64]chan wire.Frame
	// streams routes multi-frame exchanges (snapshot chunk sequences):
	// unlike waiters, a stream entry survives every routed frame until
	// its consumer closes it explicitly.
	streams map[uint64]chan wire.Frame
	err     error
	dead    chan struct{}
}

// newSiteLink builds the link for site idx over conn, drawing request
// seqs from seq.
func newSiteLink(idx int, conn Conn, seq *atomic.Uint64) *siteLink {
	return &siteLink{idx: idx, conn: conn, seq: seq,
		waiters: make(map[uint64]chan wire.Frame),
		streams: make(map[uint64]chan wire.Frame),
		dead:    make(chan struct{})}
}

// gather sends the batch's scatter frame: the spec's head (the spec sans
// window, plus the site's motes) and the window(s). A single round keeps
// the plain one-round scatter frame; two or more pack into a batch
// frame. A non-nil tr (one-shot rounds only) appends the protocol-v4
// trace section, asking the site to return its routing decisions, which
// collect grafts under the site's number.
func (l *siteLink) gather(bounds []query.Spec, motes []radio.NodeID, tr *obs.Trace) collectFunc {
	buf := make([]byte, 0, 48+2*len(motes)+4+16*len(bounds))
	buf = query.AppendScatterHead(buf, bounds[0], motes)
	kind := wire.FrameScatter
	if len(bounds) == 1 {
		buf = query.AppendScatterWindow(buf, bounds[0].T0, bounds[0].T1)
		if tr != nil {
			buf = query.AppendScatterTrace(buf, tr.ID())
		}
	} else {
		kind = wire.FrameScatterBatch
		buf = query.AppendScatterRounds(buf, windows(bounds))
	}
	seq := l.seq.Add(1)
	ch, err := l.rpcSend(seq, kind, buf)
	return func(ctx context.Context, parts [][]query.RoundPartial) error {
		if err != nil {
			return err
		}
		f, err := l.rpcAwait(ctx, seq, ch)
		if err != nil {
			return err
		}
		body, err := decodeReply(f)
		if err != nil {
			return err
		}
		var got []query.RoundPartial
		switch {
		case kind == wire.FrameScatterBatch:
			batch, err := query.DecodeRoundPartialsBatch(bounds[0], windows(bounds), body)
			if err != nil {
				return err
			}
			for k := range batch {
				parts[k] = append(parts[k], batch[k]...)
			}
			return nil
		case tr != nil:
			var routes []obs.Route
			if got, routes, err = query.DecodeRoundPartialsTraced(bounds[0], body); err == nil {
				tr.AddRoutes(l.idx, routes)
			}
		default:
			got, err = query.DecodeRoundPartials(bounds[0], body)
		}
		if err != nil {
			return err
		}
		parts[0] = append(parts[0], got...)
		return nil
	}
}

// advance issues one absolute lease and checks the ack.
func (l *siteLink) advance(ctx context.Context, target simtime.Time) error {
	f, err := l.rpc(ctx, l.seq.Add(1), wire.FrameAdvance, wire.EncodeAdvance(target))
	if err != nil {
		return err
	}
	// Acked time >= target always holds (RunUntilTime converges or
	// overshoots settling queries); a lagging ack would mean a diverged
	// site — treat as dead.
	if at, err := wire.DecodeAdvance(f.Payload); err != nil || at < target {
		err = fmt.Errorf("cluster: site %d acked %v for lease %v", l.idx, at, target)
		l.fail(err)
		return err
	}
	return nil
}

func (l *siteLink) bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) (simtime.Time, error) {
	_, err := l.call(ctx, wire.FrameBootstrap,
		wire.EncodeBootstrap(wire.Bootstrap{TrainFor: simtime.Time(trainFor), Bins: bins, Delta: delta}))
	return 0, err
}

func (l *siteLink) start(ctx context.Context) error {
	_, err := l.call(ctx, wire.FrameStart, nil)
	return err
}

// call is one ok-prefixed request/response exchange.
func (l *siteLink) call(ctx context.Context, kind wire.FrameKind, payload []byte) ([]byte, error) {
	f, err := l.rpc(ctx, l.seq.Add(1), kind, payload)
	if err != nil {
		return nil, err
	}
	return decodeReply(f)
}

func (l *siteLink) close() {
	if l.conn != nil {
		l.conn.Close()
	}
}

// stats reads the connection's counters (zero before the site joins).
func (l *siteLink) stats() ConnStats {
	if l.conn == nil {
		return ConnStats{}
	}
	return l.conn.Stats()
}

// lastErr reports the link's latched failure, if any.
func (l *siteLink) lastErr() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// openStream registers a non-consuming route for seq: every frame
// answering seq is delivered to the returned channel until closeStream.
func (l *siteLink) openStream(seq uint64) (chan wire.Frame, error) {
	ch := make(chan wire.Frame, 32)
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return nil, l.err
	}
	l.streams[seq] = ch
	return ch, nil
}

func (l *siteLink) closeStream(seq uint64) {
	l.mu.Lock()
	delete(l.streams, seq)
	l.mu.Unlock()
}

// demux reads the site's frames: responses route to their RPC by seq;
// bridge frames inject into the coordinator's local bridge (replica
// traffic converges on the wired proxy's domain, hosted here). A read
// error fails the link and every outstanding RPC — this is what turns a
// site crash mid-scatter into an explicit per-site error instead of a
// hang.
func (l *siteLink) demux(co *Coordinator) {
	for {
		f, err := l.conn.Recv()
		if err != nil {
			l.fail(fmt.Errorf("cluster: site %d connection: %w", l.idx, err))
			return
		}
		if f.Kind == wire.FrameBridge {
			if m, err := wire.DecodeBridgeMsg(f.Payload); err == nil {
				if b := co.local.Bridge(); b != nil {
					b.Send(m)
				}
			}
			continue
		}
		l.mu.Lock()
		ch, ok := l.streams[f.Seq]
		if !ok {
			ch, ok = l.waiters[f.Seq]
			delete(l.waiters, f.Seq)
		}
		l.mu.Unlock()
		if ok {
			ch <- f
		}
	}
}

// fail latches the link dead.
func (l *siteLink) fail(err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err == nil {
		l.err = err
		close(l.dead)
	}
}

// send puts one frame on the wire; a send failure latches the link dead.
func (l *siteLink) send(f wire.Frame) error {
	if err := l.lastErr(); err != nil {
		return err
	}
	if err := l.conn.Send(f); err != nil {
		l.fail(err)
		return err
	}
	return nil
}

// rpcSend registers a response waiter for seq and sends the request
// frame; pair with rpcAwait. Splitting send from await is what lets the
// coordinator put many requests on the wire before blocking on any —
// the pipelined-scatter primitive.
func (l *siteLink) rpcSend(seq uint64, kind wire.FrameKind, payload []byte) (chan wire.Frame, error) {
	ch := make(chan wire.Frame, 1)
	l.mu.Lock()
	l.waiters[seq] = ch
	l.mu.Unlock()
	if err := l.send(wire.Frame{Kind: kind, Seq: seq, Payload: payload}); err != nil {
		l.unregister(seq)
		return nil, err
	}
	return ch, nil
}

// rpcAwait blocks for the response registered by rpcSend, the link
// dying, or ctx ending.
func (l *siteLink) rpcAwait(ctx context.Context, seq uint64, ch chan wire.Frame) (wire.Frame, error) {
	select {
	case f := <-ch:
		return f, nil
	case <-l.dead:
		l.unregister(seq)
		return wire.Frame{}, l.lastErr()
	case <-ctx.Done():
		l.unregister(seq)
		return wire.Frame{}, ctx.Err()
	}
}

func (l *siteLink) unregister(seq uint64) {
	l.mu.Lock()
	delete(l.waiters, seq)
	l.mu.Unlock()
}

// rpc sends one request frame and blocks for the response with the same
// seq, the link dying, or ctx ending.
func (l *siteLink) rpc(ctx context.Context, seq uint64, kind wire.FrameKind, payload []byte) (wire.Frame, error) {
	ch, err := l.rpcSend(seq, kind, payload)
	if err != nil {
		return wire.Frame{}, err
	}
	return l.rpcAwait(ctx, seq, ch)
}
