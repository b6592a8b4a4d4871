package core

// The one query engine and the declarative client facade.
//
// A query.Spec targets a *set* of motes. The engine resolves its
// selector, groups the targets by hosting site, scatters one gather per
// site, collects the sites' per-domain partials and merges them, in
// domain order, into one answer with honest combined error bounds. An
// N-mote aggregate spanning any number of domains therefore costs one
// gather per site. A Network is this engine over its own domains as one
// local site (partials by reference); a cluster coordinator is the same
// engine over its local site plus one Site per joined process.
//
// Continuous specs live in the engine's Streams (standing.go). Run steps
// the clock in leases, and a lease never steps past the instant a
// standing round is due: every round seals when a lease reaches its
// instant and gathers there, after every event at the instant has fired,
// on every site alike. Only a coordinator has a lease quantum as well,
// and it bounds a lease only when the deployment replicates over the
// wired bridge, the one traffic that crosses sites between leases;
// otherwise the coordinator, like an in-process engine, leases to each
// round instant and to the target.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// Engine is the one query engine: resolve → group by site → scatter →
// collect → merge, the standing specs' round clock, and the lease loop
// that steps the sites' clocks. Site 0 is always the local site.
type Engine struct {
	local *Network // site 0's domains
	// quantum bounds a lease (a coordinator's Options.Quantum) in a
	// deployment that replicates over the bridge. Zero is an in-process
	// engine: no quantum, and its clock is its domains'.
	quantum  simtime.Time
	standing *Streams // a pointer, so its goroutines never root the engine
	leases   atomic.Uint64

	mu     sync.Mutex // guards everything below
	vnow   simtime.Time
	closed bool
	sites  []Site
	// domainSite maps each global domain to its hosting site, -1 for a
	// domain hosted nowhere.
	domainSite []int
	all        route // the all-motes selector's route
}

// siteTargets is one site's share of a round's motes.
type siteTargets struct {
	site  int
	motes []radio.NodeID
}

// route is where a spec's motes live: resolved once, when the spec is
// posed, and regrouped when a domain changes hosts.
type route struct {
	motes  []radio.NodeID // the resolved targets
	groups []siteTargets  // by hosting site, in site order
	// orphans counts targets whose domain is hosted nowhere (a standing
	// spec's motes in a dropped domain); every round fails them.
	orphans int
}

// NewEngine builds the engine over local (site 0) and remotes (sites 1
// and up). domainSite maps each global domain to its hosting site (-1:
// hosted nowhere); the engine owns it from here. A zero quantum makes an
// in-process engine, whose clock is the local domains'.
func NewEngine(local *Network, quantum time.Duration, domainSite []int, remotes ...Site) *Engine {
	e := &Engine{local: local, quantum: simtime.Time(quantum), standing: &Streams{},
		sites: append([]Site{LocalSite(local)}, remotes...), domainSite: domainSite}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.reroute()
	return e
}

// Now returns the engine's clock: the lease floor every site has
// converged on, or, in-process, the least-advanced local domain's clock.
func (e *Engine) Now() simtime.Time {
	if e.quantum == 0 {
		return e.local.Now()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.vnow
}

// Site returns site i's handle.
func (e *Engine) Site(i int) Site {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sites[i]
}

// SetSite replaces site i's handle (a joined or re-joined process).
func (e *Engine) SetSite(i int, s Site) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sites[i] = s
}

// eachSite runs fn on every site concurrently and waits for all of them.
// The calling goroutine takes the local site's share itself.
func (e *Engine) eachSite(fn func(i int, s Site)) {
	var wg sync.WaitGroup
	for i := 1; i < len(e.sites); i++ {
		s := e.Site(i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i, s)
		}()
	}
	fn(0, e.Site(0))
	wg.Wait()
}

// DomainSites returns a copy of the domain → hosting site map.
func (e *Engine) DomainSites() []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return slices.Clone(e.domainSite)
}

// Rehost records that domain d is now hosted by site (-1: nowhere) and
// re-routes the all-motes selector and every standing spec. A standing
// spec keeps the motes it resolved when posed: those of a domain hosted
// nowhere fail in each of its rounds.
func (e *Engine) Rehost(d, site int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.domainSite[d] = site
	e.reroute()
}

// reroute recomputes the all-motes route and every stream's route from
// domainSite. Caller holds mu.
func (e *Engine) reroute() {
	var all []radio.NodeID
	for d, s := range e.domainSite {
		if s >= 0 {
			all = append(all, e.local.lay.DomainMotes(d)...)
		}
	}
	e.all, _ = e.routeOf(all) // layout motes: cannot fail
	e.standing.Each(func(st *Stream) { st.route, _ = e.routeOf(st.route.motes) })
}

// siteOf maps a mote to its hosting site (-1: hosted nowhere). Caller
// holds mu.
func (e *Engine) siteOf(m radio.NodeID) (int, error) {
	d, ok := e.local.lay.DomainOfMote(m)
	if !ok {
		return 0, fmt.Errorf("core: unknown mote %d", m)
	}
	return e.domainSite[d], nil
}

// routeOf groups targets by hosting site, keeping target order within a
// site. When one site hosts them all — every in-process spec — the group
// aliases targets. Caller holds mu.
func (e *Engine) routeOf(targets []radio.NodeID) (route, error) {
	r := route{motes: targets}
	first, mixed := -1, false
	for _, m := range targets {
		s, err := e.siteOf(m)
		switch {
		case err != nil:
			return route{}, err
		case s < 0:
			r.orphans++
		case first < 0:
			first = s
		case s != first:
			mixed = true
		}
	}
	if first >= 0 && !mixed && r.orphans == 0 {
		r.groups = []siteTargets{{site: first, motes: targets}}
		return r, nil
	}
	for site := range e.sites {
		var ms []radio.NodeID
		for _, m := range targets {
			if s, _ := e.siteOf(m); s == site {
				ms = append(ms, m)
			}
		}
		if len(ms) > 0 {
			r.groups = append(r.groups, siteTargets{site: site, motes: ms})
		}
	}
	return r, nil
}

// resolve applies a spec's selector to the hosted motes and routes the
// targets. Predicates are evaluated here, once — only explicit mote
// lists reach the sites. Caller holds mu.
func (e *Engine) resolve(spec query.Spec) (route, error) {
	if len(spec.Select.Motes) == 0 && spec.Select.Where == nil {
		return e.all, nil
	}
	targets := spec.Select.Resolve(e.all.motes)
	if len(targets) == 0 {
		return route{}, fmt.Errorf("core: %w", query.ErrNoMotes)
	}
	r, err := e.routeOf(targets)
	if err == nil && r.orphans > 0 {
		err = fmt.Errorf("core: %d selected motes are hosted nowhere", r.orphans)
	}
	return r, err
}

// SubmitSpec posts a declarative set query to the engine. The returned
// channel yields one SetResult for a one-shot spec, then closes; a
// Continuous spec yields a result every spec period of virtual time —
// as Run reaches each period instant — until ctx is cancelled (or the
// Until horizon passes), then closes. The trailing-window form binds
// [now-d, now] at each round's instant, engine-side, so every site
// evaluates the same window.
//
// Cancellation is prompt and leak-free: the driver goroutine exits on
// ctx.Done even when no receiver drains the channel.
func (e *Engine) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	e.mu.Lock()
	r, err := e.resolve(spec)
	closed := e.closed
	e.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if closed {
		return nil, ErrClosed
	}
	now := e.Now()
	if spec.Continuous != nil {
		return e.standing.Open(ctx, spec, r, now)
	}
	// An explain/slow-query trace rides the context; nil otherwise.
	tr := obs.TraceFrom(ctx)
	// A one-shot NOW spec naming a single local mote keeps the wired-
	// replica fast path (submitNow). A set snapshot scatters instead: it
	// wants the authoritative data, and its per-domain partials cannot
	// depend on another domain's replica decision. A traced query skips
	// the bypass: the scatter path is the one that annotates each routing
	// decision, and one query through it costs little.
	if g := r.groups; tr == nil && spec.Type == query.Now && len(g) == 1 && g[0].site == 0 && len(g[0].motes) == 1 {
		return e.local.submitNow(spec, g[0].motes)
	}
	out := make(chan query.SetResult, 1)
	go func() {
		defer close(out)
		bound := spec.BindWindow(now)
		res := e.collect(ctx, r, bound, Round{At: now}, e.scatter(r, bound, tr))
		if tr != nil {
			tr.Span("merge", fmt.Sprintf("%d results, %d failed", len(res.Results), res.Failed))
		}
		select {
		case out <- res:
		case <-ctx.Done():
		}
	}()
	return out, nil
}

// gathering is one site's share of a round in flight.
type gathering struct {
	site, motes int
	Pending
}

// scatter starts a round, bound at its instant, on every site of r: all
// that must order before the next lease is enqueued or on the wire when
// it returns, and collect assembles the answers.
func (e *Engine) scatter(r route, bound query.Spec, tr *obs.Trace) []gathering {
	gs := make([]gathering, len(r.groups))
	for i, g := range r.groups {
		gs[i] = gathering{g.site, len(g.motes), e.Site(g.site).Gather(bound, g.motes, tr)}
	}
	if tr != nil { // gate the Sprintf, not just the span: untraced rounds must not allocate
		tr.Span("scatter", fmt.Sprintf("%d sites", len(r.groups)))
	}
	return gs
}

// collect waits for every site's share of a round and merges the
// partials in global domain order. A site that fails contributes an
// explicit SiteError and its motes count as Failed — a partial answer,
// never a hang — as do the route's orphans.
func (e *Engine) collect(ctx context.Context, r route, bound query.Spec, rd Round, gs []gathering) query.SetResult {
	var parts []query.RoundPartial
	var siteErrs []query.SiteError // in site order, as groups are
	failed := r.orphans
	for _, g := range gs {
		got, err := g.Collect(ctx)
		if err != nil {
			siteErrs = append(siteErrs, query.SiteError{Site: g.site, Err: err})
			failed += g.motes
			continue
		}
		if parts == nil {
			parts = got // by reference: the site is done with it
		} else {
			parts = append(parts, got...)
		}
	}
	res := query.MergeRounds(bound, rd.Seq, rd.At, parts)
	res.Failed += failed
	res.SiteErrs = siteErrs
	return res
}

// Run advances every site by d of virtual time in absolute leases, each
// site converging on a lease before the next is issued. A lease never
// steps past the instant a standing round is due, so every round seals
// and gathers at its instant. In a deployment that replicates over the
// bridge a coordinator's lease also steps at most one quantum, so
// replica traffic crossing sites lands within a quantum of when it was
// sent; without the bridge nothing crosses sites between leases, and a
// step with no round due is one lease. A site that fails a lease is
// skipped: its absence shows per round in SiteErrs, not by wedging the
// clock.
//
// Rounds are pipelined: a sealed round's gathers are enqueued (or sent)
// right after its lease converges, and the next lease goes out while
// they are still being computed and collected. Per-site FIFO keeps this
// correct without quiescing — a site takes a round's gathers before any
// later lease, which pins the round to the instant it was sealed at.
// The caller serializes Run with everything else that moves the clock.
func (e *Engine) Run(ctx context.Context, d time.Duration) error {
	quantum := e.quantum
	if !e.local.cfg.replicates() {
		quantum = 0
	}
	now := e.Now()
	target := now + simtime.Time(d)
	for now < target {
		next := target
		if quantum > 0 {
			next = min(next, now+quantum)
		}
		if at, ok := e.standing.Next(); ok {
			next = min(next, max(at, now))
		}
		if next > now {
			e.leases.Add(1)
			e.eachSite(func(_ int, s Site) { _ = s.Advance(ctx, next) }) // dead sites fail fast
			e.mu.Lock()
			e.vnow = next
			e.mu.Unlock()
		}
		e.fire(next)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		now = max(next, e.Now())
	}
	return nil
}

// fire seals every standing round due by at and launches its gathers
// without waiting for the answers; a collector goroutine per round
// merges and delivers it.
func (e *Engine) fire(at simtime.Time) {
	for _, b := range e.standing.Due(at) {
		for _, rd := range b.Rounds {
			bound := b.Spec.BindWindow(rd.At)
			gs := e.scatter(b.route, bound, nil)
			go func() { rd.Deliver(e.collect(b.ctx, b.route, bound, rd, gs)) }()
		}
	}
}

// Leases reports how many leases the engine has issued.
func (e *Engine) Leases() uint64 { return e.leases.Load() }

// EachStream calls fn on every live standing spec under the schedule
// lock (checkpoints read the schedule).
func (e *Engine) EachStream(fn func(*Stream)) { e.standing.Each(fn) }

// Bootstrap runs the two-phase startup on every site concurrently and
// waits for all of them; the lease clock then starts at the latest
// post-bootstrap instant.
func (e *Engine) Bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) error {
	ats, errs := make([]simtime.Time, len(e.sites)), make([]error, len(e.sites))
	e.eachSite(func(i int, s Site) { ats[i], errs[i] = s.Bootstrap(ctx, trainFor, bins, delta) })
	e.mu.Lock()
	e.vnow = slices.Max(ats)
	e.mu.Unlock()
	return firstErr("bootstrap", errs)
}

// Start begins sampling on every site's motes without the two-phase
// bootstrap (raw-push workloads; Bootstrap implies it).
func (e *Engine) Start(ctx context.Context) error {
	errs := make([]error, len(e.sites))
	e.eachSite(func(i int, s Site) { errs[i] = s.Start(ctx) })
	return firstErr("start", errs)
}

// firstErr returns the first failure in site order, naming its site.
func firstErr(op string, errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: site %d %s: %w", i, op, err)
		}
	}
	return nil
}

// Closed reports whether Close has been called.
func (e *Engine) Closed() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.closed
}

// Close refuses further specs and aborts every standing stream. The
// sites are their owner's to close.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	e.standing.Close()
}

// RegisterMetrics registers the local site's series and the engine's
// own into reg. Call once per registry (duplicate registration panics).
func (e *Engine) RegisterMetrics(reg *obs.Registry) {
	e.local.registerMetrics(reg)
	reg.CounterFunc("presto_stream_rounds_skipped_total",
		"Standing-spec rounds skipped because their reader was 256 rounds behind.", nil, e.standing.Skipped)
}

// ---------------------------------------------------------------------------
// Client facade

// SpecSubmitter is the seam the Client facade sits on: anything that can
// scatter a declarative spec and stream back merged rounds. The
// in-process Network and cluster.Coordinator both implement it with the
// same Engine; wrappers and test fakes implement it too.
type SpecSubmitter interface {
	SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error)
}

// Client is the user-facing query interface over a deployment: pose a
// declarative query.Spec, receive a ResultStream. It is the only way to
// pose a query; a question about one mote is a spec selecting one mote.
type Client struct {
	e SpecSubmitter
}

// NewClient wraps any spec engine — an in-process Network or a cluster
// Coordinator — in the query facade.
func NewClient(e SpecSubmitter) *Client { return &Client{e: e} }

// SubmitSpec posts a declarative set query to the deployment's engine
// (Engine.SubmitSpec).
func (n *Network) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	return n.eng.SubmitSpec(ctx, spec)
}

// Client returns the deployment's query facade.
func (n *Network) Client() *Client { return NewClient(n) }

// ResultStream delivers the results of one Spec. One-shot specs deliver
// a single SetResult and close; Continuous specs deliver one per period
// until cancelled. Close (or cancelling the context passed to Query)
// tears the standing query down without leaking goroutines or waiters.
type ResultStream struct {
	ch     <-chan query.SetResult
	cancel context.CancelFunc
}

// Results is the delivery channel. It closes when the spec is done:
// after the single result of a one-shot spec, after the Until horizon of
// a bounded continuous spec, or after cancellation.
func (s *ResultStream) Results() <-chan query.SetResult { return s.ch }

// Next blocks for the next delivery. ok is false when the stream is
// exhausted or ctx is cancelled first.
func (s *ResultStream) Next(ctx context.Context) (res query.SetResult, ok bool) {
	select {
	case res, ok = <-s.ch:
		return res, ok
	case <-ctx.Done():
		return query.SetResult{}, false
	}
}

// Close cancels the spec. Safe to call multiple times; pending rounds
// are abandoned and the channel closes shortly after.
func (s *ResultStream) Close() { s.cancel() }

// Query poses a declarative spec against the deployment. The spec's
// selector resolves at submission time; every round costs one engine
// submission regardless of mote or domain count. Cancel ctx (or Close
// the stream) to tear down a standing query.
func (c *Client) Query(ctx context.Context, spec query.Spec) (*ResultStream, error) {
	ctx, cancel := context.WithCancel(ctx)
	ch, err := c.e.SubmitSpec(ctx, spec)
	if err != nil {
		cancel()
		return nil, err
	}
	return &ResultStream{ch: ch, cancel: cancel}, nil
}

// QueryOne poses a one-shot spec and blocks for its single result.
func (c *Client) QueryOne(ctx context.Context, spec query.Spec) (query.SetResult, error) {
	if spec.Continuous != nil {
		return query.SetResult{}, errors.New("core: QueryOne on a continuous spec (use Query)")
	}
	st, err := c.Query(ctx, spec)
	if err != nil {
		return query.SetResult{}, err
	}
	defer st.Close()
	res, ok := st.Next(ctx)
	if !ok {
		if ctx.Err() != nil {
			return query.SetResult{}, ctx.Err()
		}
		return query.SetResult{}, errors.New("core: spec never completed")
	}
	return res, nil
}
