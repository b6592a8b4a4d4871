package cluster

import (
	"context"
	"errors"
	"fmt"
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

// DefaultQuantum is the largest advance lease in a deployment with a
// wired-replica bridge: how much virtual time a site may run ahead
// between coordinator barriers while replica traffic crosses sites (a
// lease due at a round's instant stops short of it). It matches the
// domain workers' bridge-drain quantum — the same bound the
// single-process replica freshness story is built on. Without the bridge
// nothing crosses sites between leases and no quantum applies. Only a
// coordinator has a quantum.
const DefaultQuantum = 10 * time.Second

// Options tunes a cluster coordinator.
type Options struct {
	// Sites is the total site count, the coordinator included: it is
	// site 0 of N, hosting the first window of domains (and with it the
	// wired replica) and driving them through the same calls as every
	// joined site. Must be >= 1 and <= the deployment's domain count.
	Sites int
	// Quantum is the most virtual time one advance lease may step
	// (default DefaultQuantum) when the deployment has a wired-replica
	// bridge (WiredFirstProxy with more than one proxy); otherwise it is
	// unused and a lease runs to the next round instant or the Run
	// target. A lease also never steps past the instant a continuous
	// round is due, so every round gathers at its own instant whatever
	// the cadence — a cadence that does not divide the quantum just adds
	// a lease per round.
	Quantum time.Duration
}

// Coordinator runs a deployment across cluster sites. It is site 0 of
// N: it hosts the first window of domains itself and reaches them
// through the same Site calls as every joined site. It is the engine an
// in-process Network runs (core.Engine) over its local site plus one
// siteLink per joined process — the global virtual clock (advance
// leases), one scatter frame per joined site per round, the honest-bounds
// merge — plus the join handshake and the elastic operations. It
// implements core.SpecSubmitter, so core.Client front-ends a cluster
// exactly as it does an in-process Network.
type Coordinator struct {
	cfg   core.Config
	lay   core.Layout
	opt   Options
	local *core.Network // site 0's domains, for introspection and the replica bridge
	eng   *core.Engine
	lis   Listener
	// accepting is the listener Accept in flight, if any: a join whose
	// ctx ends leaves it for the next join to collect, so a joiner
	// arriving in between is never dropped. Guarded by runMu.
	accepting chan accepted

	seq atomic.Uint64 // request seqs, shared by every site link

	// runMu serializes Run with the elastic operations, so structural
	// changes happen only at lease boundaries.
	runMu sync.Mutex

	mu            sync.Mutex // guards the elasticity history
	migrations    uint64
	rejoins       uint64
	lastMigration simtime.Time
	lastCkpt      *Checkpoint

	closeOnce sync.Once
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
	co := &Coordinator{cfg: cfg, lay: lay, opt: opt, local: local, lis: lis}
	links := make([]core.Site, 0, opt.Sites-1)
	for s := 1; s < opt.Sites; s++ {
		l := newSiteLink(s, nil, &co.seq)
		l.fail(fmt.Errorf("cluster: site %d %w", s, errNotJoined))
		links = append(links, l)
	}
	co.eng = core.NewEngine(local, opt.Quantum, domainSite, links...)
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
func (co *Coordinator) linkStats(i int) ConnStats { return co.eng.Site(i).(*siteLink).stats() }

// Leases reports how many advance leases the coordinator has issued.
func (co *Coordinator) Leases() uint64 { return co.eng.Leases() }

// RegisterMetrics registers the coordinator's elasticity and transport
// counters into an obs registry: the lease clock, migration/rejoin
// history, and each joined site's per-frame-kind wire traffic.
func (co *Coordinator) RegisterMetrics(reg *obs.Registry) {
	// The engine's series include its local site's: the first window of
	// domains, which the coordinator hosts itself.
	co.eng.RegisterMetrics(reg)
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
func (co *Coordinator) Now() simtime.Time { return co.eng.Now() }

// Close tears the cluster down: joined sites see their connection close
// and exit Serve cleanly; the coordinator's own window shuts its workers
// down. Standing streams abort.
func (co *Coordinator) Close() {
	co.closeOnce.Do(func() {
		co.eng.Close()
		co.lis.Close()
		// Last site first: site 0's window outlives the links whose
		// demultiplexers feed its replica bridge.
		for i := range co.opt.Sites {
			co.eng.Site(co.opt.Sites - 1 - i).Close()
		}
	})
}

// Bootstrap runs the two-phase startup on every site concurrently and
// waits for all of them; the coordinator's clock then starts at the
// common post-bootstrap instant.
func (co *Coordinator) Bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) error {
	return co.eng.Bootstrap(ctx, trainFor, bins, delta)
}

// Start begins sampling on every site's motes without the two-phase
// bootstrap (raw-push workloads; Bootstrap implies it).
func (co *Coordinator) Start(ctx context.Context) error { return co.eng.Start(ctx) }

// Run advances the whole cluster by d of virtual time through the
// engine's lease loop (core.Engine.Run): every site — the coordinator's
// own window included — converges on each lease before the next is
// issued. A lease never steps past a continuous round's instant and, in
// a deployment with a wired-replica bridge, never more than one quantum.
// Dead and unjoined sites are skipped: their absence is reported per
// round via SiteErrs, not by wedging the clock.
func (co *Coordinator) Run(ctx context.Context, d time.Duration) error {
	co.runMu.Lock()
	defer co.runMu.Unlock()
	return co.eng.Run(ctx, d)
}

// SubmitSpec implements core.SpecSubmitter over the cluster
// (core.Engine.SubmitSpec): one-shot specs scatter immediately (sites
// settle their own kernels, so no Run needs to be in flight); continuous
// specs register with the lease loop and fire during Run.
func (co *Coordinator) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	return co.eng.SubmitSpec(ctx, spec)
}

// ---------------------------------------------------------------------------
// Sites

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
	co.eng.SetSite(idx, l)
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

// siteLink is the coordinator's core.Site for one joined site: a
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

// Gather sends the round's scatter frame: the spec's head (the spec sans
// window, plus the site's motes) and its window. A non-nil tr (one-shot
// rounds only) appends the protocol-v4 trace section, asking the site to
// return its routing decisions, which Collect grafts under the site's
// number.
func (l *siteLink) Gather(bound query.Spec, motes []radio.NodeID, tr *obs.Trace) core.Pending {
	buf := make([]byte, 0, 48+2*len(motes)+20)
	buf = query.AppendScatterHead(buf, bound, motes)
	buf = query.AppendScatterWindow(buf, bound.T0, bound.T1)
	if tr != nil {
		buf = query.AppendScatterTrace(buf, tr.ID())
	}
	seq := l.seq.Add(1)
	ch, err := l.rpcSend(seq, wire.FrameScatter, buf)
	return collectFunc(func(ctx context.Context) ([]query.RoundPartial, error) {
		if err != nil {
			return nil, err
		}
		f, err := l.rpcAwait(ctx, seq, ch)
		if err != nil {
			return nil, err
		}
		body, err := decodeReply(f)
		if err != nil {
			return nil, err
		}
		if tr == nil {
			return query.DecodeRoundPartials(bound, body)
		}
		got, routes, err := query.DecodeRoundPartialsTraced(bound, body)
		if err == nil {
			tr.AddRoutes(l.idx, routes)
		}
		return got, err
	})
}

// collectFunc is a joined site's core.Pending: the await-and-decode half
// of its scatter RPC.
type collectFunc func(ctx context.Context) ([]query.RoundPartial, error)

func (f collectFunc) Collect(ctx context.Context) ([]query.RoundPartial, error) { return f(ctx) }

// Advance issues one absolute lease and checks the ack.
func (l *siteLink) Advance(ctx context.Context, target simtime.Time) error {
	f, err := l.rpc(ctx, l.seq.Add(1), wire.FrameAdvance, wire.EncodeAdvance(target))
	if err != nil {
		return err
	}
	// Acked time >= target always holds (a lease converges or overshoots
	// settling queries); a lagging ack would mean a diverged
	// site — treat as dead.
	if at, err := wire.DecodeAdvance(f.Payload); err != nil || at < target {
		err = fmt.Errorf("cluster: site %d acked %v for lease %v", l.idx, at, target)
		l.fail(err)
		return err
	}
	return nil
}

func (l *siteLink) Bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) (simtime.Time, error) {
	_, err := l.call(ctx, wire.FrameBootstrap,
		wire.EncodeBootstrap(wire.Bootstrap{TrainFor: simtime.Time(trainFor), Bins: bins, Delta: delta}))
	return 0, err
}

func (l *siteLink) Start(ctx context.Context) error {
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

func (l *siteLink) Close() {
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

// Err reports the link's latched failure, if any.
func (l *siteLink) Err() error {
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
	if err := l.Err(); err != nil {
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
		return wire.Frame{}, l.Err()
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
