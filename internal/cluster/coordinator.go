package cluster

import (
	"cmp"
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
	// Sites is the total process count, including the coordinator
	// (which always hosts the first window of domains — and with it the
	// wired replica). Must be >= 1 and <= the deployment's domain count.
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
	site  int // 0 = the coordinator's local window
	motes []radio.NodeID
}

// Coordinator runs a deployment across cluster sites: it hosts the
// first window of domains itself, owns the global virtual clock
// (advance leases), scatters specs one frame per remote site, and
// merges the sites' partials with the engine's honest-bounds merge
// stage. It implements core.SpecSubmitter, so core.Client front-ends a
// cluster exactly as it does an in-process Network.
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
	local     *core.Network
	lis       Listener
	sites     []*siteLink // remote sites; index i serves site i+1

	seq    atomic.Uint64
	leases atomic.Uint64 // advance leases issued (one per quantum step, all sites)

	runMu sync.Mutex // serializes Run (one lease-issuer at a time)

	mu     sync.Mutex // guards vnow, closed, elasticity state
	vnow   simtime.Time
	closed bool

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

// siteFor returns the live link for remote site i (1-based). Rejoin
// replaces links in place, so every post-startup read goes through mu.
func (co *Coordinator) siteFor(i int) *siteLink {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.sites[i-1]
}

// remotes snapshots the remote-site link slice under mu.
func (co *Coordinator) remotes() []*siteLink {
	co.mu.Lock()
	defer co.mu.Unlock()
	return append([]*siteLink(nil), co.sites...)
}

// Listen creates a cluster coordinator: it validates the global config,
// builds the coordinator's own domain window, and binds the transport
// listener — but does not accept joiners yet. Read Addr for the bound
// address (":0" TCP listens pick a port), then call AcceptSites to
// block until every site has joined and been assigned its window.
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
	co := &Coordinator{cfg: cfg, lay: lay, opt: opt, domainSite: domainSite, local: local, lis: lis}
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

// AcceptSites blocks until every remote site has joined: each joiner's
// hello is checked against the coordinator's protocol version and config
// fingerprint, answered with its window assignment (in join order), and
// its connection handed to a demultiplexer. Cancel ctx to abort.
func (co *Coordinator) AcceptSites(ctx context.Context) error {
	type accepted struct {
		conn Conn
		err  error
	}
	hash := configHash(co.cfg)
	for site := 1; site < co.opt.Sites; site++ {
		ch := make(chan accepted, 1)
		go func() {
			c, err := co.lis.Accept()
			ch <- accepted{c, err}
		}()
		var conn Conn
		select {
		case a := <-ch:
			if a.err != nil {
				return a.err
			}
			conn = a.conn
		case <-ctx.Done():
			co.lis.Close()
			return ctx.Err()
		}
		f, err := conn.Recv()
		if err != nil {
			conn.Close()
			return fmt.Errorf("cluster: site %d hello: %w", site, err)
		}
		hello, err := wire.DecodeHello(f.Payload)
		if f.Kind != wire.FrameHello || err != nil {
			conn.Close()
			return fmt.Errorf("cluster: site %d: bad hello", site)
		}
		if hello.Version != wire.ProtoVersion {
			conn.Close()
			return fmt.Errorf("cluster: site %d speaks protocol %d, want %d", site, hello.Version, wire.ProtoVersion)
		}
		if hello.ConfigHash != hash {
			conn.Close()
			return fmt.Errorf("cluster: site %d runs a different deployment (config hash mismatch)", site)
		}
		first, count := siteWindow(co.lay.Shards, co.opt.Sites, site)
		if err := conn.Send(wire.Frame{Kind: wire.FrameAssign, Payload: wire.EncodeAssign(wire.Assign{
			Site: site, Sites: co.opt.Sites, FirstShard: first, Shards: count, ConfigHash: hash,
		})}); err != nil {
			conn.Close()
			return err
		}
		l := newSiteLink(site, first, count, conn)
		for d := first; d < first+count; d++ {
			l.motes = append(l.motes, co.lay.DomainMotes(d)...)
		}
		co.sites = append(co.sites, l)
		go l.demux(co)
	}
	return nil
}

// Network returns the coordinator's locally-hosted domain window (for
// introspection: energy meters, store stats, truth lookups of local
// motes).
func (co *Coordinator) Network() *core.Network { return co.local }

// Client wraps the coordinator in the standard query facade.
func (co *Coordinator) Client() *core.Client { return core.NewClient(co) }

// SiteStats returns per-remote-site frame counters, indexed by site-1.
// The one-frame-per-site property reads straight off SentKind.
func (co *Coordinator) SiteStats() []ConnStats {
	links := co.remotes()
	out := make([]ConnStats, len(links))
	for i, l := range links {
		out[i] = l.conn.Stats()
	}
	return out
}

// Leases reports how many advance leases the coordinator has issued.
func (co *Coordinator) Leases() uint64 { return co.leases.Load() }

// RegisterMetrics registers the coordinator's elasticity and transport
// counters into an obs registry: the lease clock, migration/rejoin
// history, and each remote site's per-frame-kind wire traffic.
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
	for site := 1; site <= len(co.remotes()); site++ {
		site := site
		siteLabel := fmt.Sprintf("%d", site)
		stats := func() ConnStats { return co.siteFor(site).conn.Stats() }
		reg.CounterFunc("presto_cluster_wire_frames_sent_total", "Frames sent to a site.",
			obs.L("site", siteLabel), func() uint64 { return stats().Sent })
		reg.CounterFunc("presto_cluster_wire_frames_recv_total", "Frames received from a site.",
			obs.L("site", siteLabel), func() uint64 { return stats().Recv })
		for k := wire.FrameKind(1); k <= wire.FrameKindMax; k++ {
			k := k
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

// Close tears the cluster down: sites see their connection close and
// exit Serve cleanly; the local window shuts its workers down. Standing
// streams abort.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		co.mu.Lock()
		co.closed = true
		co.mu.Unlock()
		co.standing.Close()
		for _, l := range co.remotes() {
			l.conn.Close()
		}
		co.lis.Close()
		co.local.Close()
	})
}

// ---------------------------------------------------------------------------
// Cluster-wide operations

// Bootstrap runs the two-phase startup on every site concurrently and
// waits for all of them; the coordinator's clock then starts at the
// common post-bootstrap instant.
func (co *Coordinator) Bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) error {
	payload := wire.EncodeBootstrap(wire.Bootstrap{TrainFor: simtime.Time(trainFor), Bins: bins, Delta: delta})
	links := co.remotes()
	errs := make(chan error, len(links))
	for _, l := range links {
		l := l
		go func() {
			f, err := l.rpc(ctx, co.nextSeq(), wire.FrameBootstrap, payload)
			if err == nil {
				_, err = decodeReply(f)
			}
			if err != nil {
				err = fmt.Errorf("cluster: site %d bootstrap: %w", l.idx, err)
			}
			errs <- err
		}()
	}
	_, lerr := co.local.Bootstrap(trainFor, bins, delta)
	for range links {
		if err := <-errs; err != nil && lerr == nil {
			lerr = err
		}
	}
	co.mu.Lock()
	co.vnow = co.local.Now()
	co.mu.Unlock()
	return lerr
}

// Start begins sampling on every site's motes without the two-phase
// bootstrap (raw-push workloads; Bootstrap implies it).
func (co *Coordinator) Start(ctx context.Context) error {
	links := co.remotes()
	errs := make(chan error, len(links))
	for _, l := range links {
		l := l
		go func() {
			f, err := l.rpc(ctx, co.nextSeq(), wire.FrameStart, nil)
			if err == nil {
				_, err = decodeReply(f)
			}
			if err != nil {
				err = fmt.Errorf("cluster: site %d start: %w", l.idx, err)
			}
			errs <- err
		}()
	}
	co.local.Start()
	var first error
	for range links {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Run advances the whole cluster by d of virtual time, in lease-sized
// steps: every site (and the local window) converges on each absolute
// lease target before the next is issued, so no domain runs more than
// one quantum ahead of another — the distributed analogue of the
// in-process bridge-drain chunking.
//
// Continuous rounds are pipelined: the scatters for rounds sealed by a
// lease step are issued right after it converges, and the next lease
// goes out while those rounds are still being computed and collected.
// The per-connection frame FIFO keeps this correct without quiescing —
// a site enqueues a scatter's gathers before it acts on any later
// advance frame, which pins the round to the clock it was sealed at.
func (co *Coordinator) Run(ctx context.Context, d time.Duration) error {
	co.runMu.Lock()
	defer co.runMu.Unlock()
	target := co.Now() + simtime.Time(d)
	for now := co.Now(); now < target; now = co.Now() {
		next := min(now+simtime.Time(co.opt.Quantum), target)
		co.advanceAll(ctx, next)
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

// advanceAll issues one absolute lease to every site and the local
// window and waits for convergence. Dead sites are skipped — their
// absence is reported per-round via SiteErrs, not by wedging the clock.
func (co *Coordinator) advanceAll(ctx context.Context, target simtime.Time) {
	co.leases.Add(1)
	payload := wire.EncodeAdvance(target)
	var wg sync.WaitGroup
	for _, l := range co.remotes() {
		l := l
		wg.Add(1)
		go func() {
			defer wg.Done()
			if f, err := l.rpc(ctx, co.nextSeq(), wire.FrameAdvance, payload); err == nil {
				// Acked time >= target always holds (RunUntilTime
				// converges or overshoots settling queries); a lagging ack
				// would mean a diverged site — treat as dead.
				if at, err := advanceAckTime(f); err != nil || at < target {
					l.fail(fmt.Errorf("cluster: site %d acked %v for lease %v", l.idx, at, target))
				}
			}
		}()
	}
	co.local.RunUntilTime(target)
	wg.Wait()
}

// fireDue seals every continuous round whose instant has been reached
// and launches its scatter without waiting for the answers: the local
// gathers are enqueued and the remote frames sent before fireDue
// returns (so they land ahead of the next lease on each connection),
// while collection and merge run on a per-batch collector goroutine.
func (co *Coordinator) fireDue() {
	for _, b := range co.standing.Due(co.Now()) {
		bounds := make([]query.Spec, len(b.Rounds))
		for k, r := range b.Rounds {
			bounds[k] = b.Spec.BindWindow(r.At)
		}
		sc := co.scatterRounds(b.Route, bounds, nil)
		go func() {
			for k, res := range co.collectBatch(b.Context(), bounds, b.Rounds, sc) {
				b.Rounds[k].Deliver(res)
			}
		}()
	}
}

func (co *Coordinator) nextSeq() uint64 { return co.seq.Add(1) }

// ---------------------------------------------------------------------------
// Scatter-gather

// groupBySite groups resolved target motes by hosting site.
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

// pendingSite is one remote site's in-flight share of a round batch.
type pendingSite struct {
	l     *siteLink
	site  int
	motes int
	seq   uint64
	batch bool
	// tr is non-nil when the scatter carried trace context: the reply
	// must append a route section, grafted here at decode.
	tr  *obs.Trace
	ch  chan wire.Frame
	err error
}

// sendScatter issues one site's scatter frame for a batch: the spec's
// head (the spec sans window, plus the site's motes) and this step's
// window(s). A single due round keeps the plain one-round scatter frame;
// two or more pack into a batch frame. A non-nil tr (one-shot rounds
// only) appends the protocol-v4 trace section, asking the site to return
// its routing decisions.
func (co *Coordinator) sendScatter(g siteTargets, bounds []query.Spec, tr *obs.Trace) pendingSite {
	buf := make([]byte, 0, 48+2*len(g.motes)+4+16*len(bounds))
	buf = query.AppendScatterHead(buf, bounds[0], g.motes)
	kind := wire.FrameScatter
	batch := false
	if len(bounds) == 1 {
		buf = query.AppendScatterWindow(buf, bounds[0].T0, bounds[0].T1)
		if tr != nil {
			buf = query.AppendScatterTrace(buf, tr.ID())
		}
	} else {
		kind = wire.FrameScatterBatch
		batch = true
		tr = nil // batched rounds never carry trace context
		buf = query.AppendScatterRounds(buf, windows(bounds))
	}
	l := co.siteFor(g.site)
	p := pendingSite{l: l, site: g.site, motes: len(g.motes), seq: co.nextSeq(), batch: batch, tr: tr}
	p.ch, p.err = l.rpcSend(p.seq, kind, buf)
	return p
}

// roundScatter is a batch of rounds in flight: the local window's
// gathers (one partials channel per round) and each remote site's
// pending reply.
type roundScatter struct {
	localMotes  int
	localParts  []<-chan query.RoundPartial
	localExpect []int
	localErr    error
	pend        []pendingSite
}

// scatterRounds enqueues the local window's gathers for a batch — one
// round per spec in bounds, each bound at its round's instant — and sends
// one scatter frame per remote site: all that must order before the next
// advance lease; collectBatch assembles the answers. A non-nil tr
// (one-shot rounds) collects each target mote's routing decision, locally
// and across the wire.
func (co *Coordinator) scatterRounds(groups []siteTargets, bounds []query.Spec, tr *obs.Trace) roundScatter {
	sc := roundScatter{pend: make([]pendingSite, 0, len(groups))}
	for _, g := range groups {
		if g.site != 0 {
			sc.pend = append(sc.pend, co.sendScatter(g, bounds, tr))
			continue
		}
		// Gathers already enqueued when a later round fails keep running
		// into their own buffered channels and are dropped.
		sc.localMotes = len(g.motes)
		sc.localParts, sc.localExpect = make([]<-chan query.RoundPartial, len(bounds)), make([]int, len(bounds))
		for k, bound := range bounds {
			sc.localParts[k], sc.localExpect[k], sc.localErr = co.local.GatherStart(bound, g.motes, tr)
			if sc.localErr != nil {
				break
			}
		}
	}
	if tr != nil { // gate the Sprintf, not just the span: untraced rounds must not allocate
		tr.Span("cluster-scatter", fmt.Sprintf("%d sites, %d remote", len(groups), len(sc.pend)))
	}
	return sc
}

// collectBatch waits for every site's share of a batch, merges each
// round's partials in global domain order, and returns the rounds in
// fire order. Sites that fail mid-batch contribute an explicit
// SiteError and their motes count as Failed on every round — a partial
// answer, never a hang.
func (co *Coordinator) collectBatch(ctx context.Context, bounds []query.Spec, rounds []core.Round, sc roundScatter) []query.SetResult {
	parts := make([][]query.RoundPartial, len(rounds))
	var siteErrs []query.SiteError
	failed := 0
	if sc.localErr != nil {
		siteErrs = append(siteErrs, query.SiteError{Site: 0, Err: sc.localErr})
		failed += sc.localMotes
	} else {
		for k, ch := range sc.localParts { // none without a local group
			for i := 0; i < sc.localExpect[k]; i++ {
				parts[k] = append(parts[k], <-ch)
			}
		}
	}
	for _, p := range sc.pend {
		got, err := co.awaitScatter(ctx, bounds, p)
		if err != nil {
			siteErrs = append(siteErrs, query.SiteError{Site: p.site, Err: err})
			failed += p.motes
			continue
		}
		for k := range got {
			parts[k] = append(parts[k], got[k]...)
		}
	}
	slices.SortFunc(siteErrs, func(a, b query.SiteError) int { return cmp.Compare(a.Site, b.Site) })
	results := make([]query.SetResult, len(rounds))
	for k, r := range rounds {
		res := query.MergeRounds(bounds[k], r.Seq, r.At, parts[k])
		res.Failed += failed
		res.SiteErrs = siteErrs
		results[k] = res
	}
	return results
}

// awaitScatter blocks for one site's reply to a batch and decodes it
// back into per-round partials.
func (co *Coordinator) awaitScatter(ctx context.Context, bounds []query.Spec, p pendingSite) ([][]query.RoundPartial, error) {
	if p.err != nil {
		return nil, p.err
	}
	f, err := p.l.rpcAwait(ctx, p.seq, p.ch)
	if err != nil {
		return nil, err
	}
	body, err := decodeReply(f)
	if err != nil {
		return nil, err
	}
	if !p.batch {
		if p.tr != nil {
			parts, routes, err := query.DecodeRoundPartialsTraced(bounds[0], body)
			if err != nil {
				return nil, err
			}
			p.tr.AddRoutes(p.site, routes)
			return [][]query.RoundPartial{parts}, nil
		}
		parts, err := query.DecodeRoundPartials(bounds[0], body)
		if err != nil {
			return nil, err
		}
		return [][]query.RoundPartial{parts}, nil
	}
	return query.DecodeRoundPartialsBatch(bounds[0], windows(bounds), body)
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
// and fire during Run, one scatter frame per site per lease step. The
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
			// An explain/slow-query trace rides the context. Local-window
			// routing decisions annotate straight onto it (site 0); each
			// traced remote scatter carries the trace id across the wire
			// and grafts the site's route section back at collect.
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
// Site links

// siteLink is the coordinator's handle on one remote site: a connection,
// a demultiplexer routing responses to waiting RPCs by seq, and a dead
// latch that fails everything outstanding when the site drops.
type siteLink struct {
	idx          int
	first, count int
	motes        []radio.NodeID
	conn         Conn

	mu      sync.Mutex
	waiters map[uint64]chan wire.Frame
	// streams routes multi-frame exchanges (snapshot chunk sequences):
	// unlike waiters, a stream entry survives every routed frame until
	// its consumer closes it explicitly.
	streams map[uint64]chan wire.Frame
	err     error
	dead    chan struct{}
}

// newSiteLink builds a link for remote site idx serving domain window
// [first, first+count).
func newSiteLink(idx, first, count int, conn Conn) *siteLink {
	return &siteLink{idx: idx, first: first, count: count, conn: conn,
		waiters: make(map[uint64]chan wire.Frame),
		streams: make(map[uint64]chan wire.Frame),
		dead:    make(chan struct{})}
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

// rpcSend registers a response waiter for seq and sends the request
// frame; pair with rpcAwait. Splitting send from await is what lets the
// coordinator put many requests on the wire before blocking on any —
// the pipelined-scatter primitive.
func (l *siteLink) rpcSend(seq uint64, kind wire.FrameKind, payload []byte) (chan wire.Frame, error) {
	ch := make(chan wire.Frame, 1)
	l.mu.Lock()
	if l.err != nil {
		err := l.err
		l.mu.Unlock()
		return nil, err
	}
	l.waiters[seq] = ch
	l.mu.Unlock()
	if err := l.conn.Send(wire.Frame{Kind: kind, Seq: seq, Payload: payload}); err != nil {
		l.unregister(seq)
		l.fail(err)
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
		l.mu.Lock()
		err := l.err
		l.mu.Unlock()
		return wire.Frame{}, err
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
