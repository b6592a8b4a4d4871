package core

// The declarative client facade and the engine's scatter-gather stage.
//
// A query.Spec targets a *set* of motes; the engine fans it out as one
// command per owning simulation domain (not one per mote), each domain
// worker routes each of its motes once through the domain's store and
// folds the answers into a query.Partial, and a merge stage combines the per-domain partials into one answer
// with honest combined error bounds. An N-mote aggregate spanning any
// number of domains therefore costs exactly one engine submission.
//
// Continuous specs re-arm on the simulation clock: a self-re-arming
// wakeup event on the anchor domain's kernel scatters a round at each
// exact period instant, and a merge goroutine assembles the rounds in
// order and pushes them down the stream. Multi-domain workers drain
// their command queues at bounded virtual-time intervals while advancing
// (see shard.advance), so the other domains' contributions to a round
// execute in the middle of one long Run instead of piling up behind it.

import (
	"context"
	"errors"
	"fmt"

	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// resolveRuns resolves a spec's selector against the hosted motes and
// groups the targets by owning shard (see groupRuns). The all-motes
// selector is the cached id list itself — no copy per submission.
func (n *Network) resolveRuns(spec query.Spec) ([]shardRun, error) {
	targets := n.moteIDs
	if len(spec.Select.Motes) > 0 || spec.Select.Where != nil {
		targets = spec.Select.Resolve(targets)
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("core: %w", query.ErrNoMotes)
	}
	return n.groupRuns(targets)
}

// gatherSpec runs on a shard worker: it hands the round's motes to the
// domain's unified store in one call and collects the answers into one
// RoundPartial, handed to deliver (on this worker) when the last answer
// lands. An AGG round gives the store its partial as the fold target
// (aggregate push-down: archive and proxy alike fold each mote's entries
// straight into it, in the order store.Execute documents); NOW and PAST
// results come back through the round's one callback. Answers that need
// a mote rendezvous resolve while the worker settles (or during the
// remaining chunks of an in-progress advance); the per-domain pull
// coalescing applies across the motes of the round as usual. When tr is
// non-nil the store annotates every routing decision onto it as it is
// made; nil tr — the common case — adds one predictable branch per mote.
func gatherSpec(sh *shard, spec query.Spec, motes []radio.NodeID, tr *obs.Trace, deliver func(query.RoundPartial)) {
	pq := &pendingQuery{
		sp:  query.RoundPartial{Domain: sh.domain, Partial: query.NewPartialFor(spec)},
		agg: spec.Type == query.Agg,
		// One hold beyond the motes', released below: answers given while
		// the store is still routing must not deliver a half-routed round.
		remaining: len(motes) + 1,
		deliver:   deliver,
	}
	var fold *query.Partial
	if pq.agg {
		fold = &pq.sp.Partial
	}
	failed := sh.st.Execute(spec, motes, fold, tr, func(r query.Result) { pq.answer(sh, r) })
	pq.sp.Failed += failed
	pq.remaining -= failed + 1
	if pq.remaining == 0 {
		deliver(pq.sp)
		return
	}
	// Rendezvous answers arrive as kernel events, none of which can run
	// before this function returns: registering now loses nothing.
	sh.pending[pq] = struct{}{}
}

// GatherLocal executes one bound round against the local domains owning
// the given motes and blocks for their folded partials, tagged by global
// domain index. It is how a cluster site serves a scatter frame: the
// per-mote answers are folded here, in the process that owns the data
// (push-down), and only what this returns crosses the transport. The
// spec must already be concrete (BindWindow applied — a trailing window
// must resolve against the coordinator's clock, not each site's); motes
// not hosted by this process are an error, since the coordinator's
// layout and the site's must agree.
func (n *Network) GatherLocal(spec query.Spec, motes []radio.NodeID) ([]query.RoundPartial, error) {
	parts, expect, err := n.GatherStart(spec, motes, 0, nil)
	if err != nil {
		return nil, err
	}
	out := make([]query.RoundPartial, 0, expect)
	for i := 0; i < expect; i++ {
		out = append(out, <-parts)
	}
	query.SortRoundPartials(out)
	return out, nil
}

// GatherStart enqueues one concrete round against the local domains
// owning motes and returns the channel their folded partials arrive on,
// plus how many to expect (one per owning domain, in arrival order —
// sort by Domain before merging). It is GatherLocal's non-blocking half:
// the cluster coordinator uses it to enqueue a round's local gathers
// before issuing the next advance lease, so the round executes while the
// window advances instead of quiescing the engine.
//
// When at is ahead of a domain's clock, that domain's fold runs as a
// kernel event at exactly that instant — a round scheduled mid-advance
// executes at its nominal time, not wherever the worker happens to be.
// at <= the domain clock (or zero) folds at the current clock, which is
// the converged floor after an advance.
//
// A non-nil tr collects each target mote's routing decision as the
// round executes — the cluster site threads the scatter frame's trace
// context through here so the decisions ride back in the partials.
func (n *Network) GatherStart(spec query.Spec, motes []radio.NodeID, at simtime.Time, tr *obs.Trace) (<-chan query.RoundPartial, int, error) {
	if err := spec.Validate(); err != nil {
		return nil, 0, err
	}
	if spec.Trailing > 0 {
		return nil, 0, errors.New("core: GatherLocal needs a concrete window (apply Spec.BindWindow at the coordinator)")
	}
	if len(motes) == 0 {
		return nil, 0, fmt.Errorf("core: %w", query.ErrNoMotes)
	}
	runs, err := n.groupRuns(motes)
	if err != nil {
		return nil, 0, err
	}
	n.queriesSubmitted.Add(1)
	parts := make(chan query.RoundPartial, len(runs))
	deliver := func(p query.RoundPartial) { parts <- p }
	for _, g := range runs {
		s, ms := g.s, g.motes
		fn := func(sh *shard) { gatherSpec(sh, spec, ms, tr, deliver) }
		if at > 0 {
			gather := fn
			fn = func(sh *shard) {
				if at > sh.sim.Now() {
					sh.sim.ScheduleAt(at, func() { gather(sh) })
					return
				}
				gather(sh)
			}
		}
		if !s.enqueue(shardCmd{fn: fn}) {
			parts <- query.RoundPartial{
				Domain: s.domain, Partial: query.NewPartialFor(spec), Failed: len(ms),
			}
		}
	}
	return parts, len(runs), nil
}

// shardRun is one owning domain's slice of a round's target motes.
type shardRun struct {
	s     *shard
	motes []radio.NodeID
}

// groupRuns groups target motes by owning shard. Resolved mote lists are
// ascending and domains partition the id space contiguously, so a
// single pass over the list finds each domain's run without a map — and
// the runs alias the input, so the common case allocates only the run
// slice. An out-of-order list (an explicit selector like Motes(9, 2))
// falls back to map grouping, preserving selector order within groups.
func (n *Network) groupRuns(motes []radio.NodeID) ([]shardRun, error) {
	runs := make([]shardRun, 0, 4)
	start := 0
	cur, err := n.shardFor(motes[0])
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(motes); i++ {
		if motes[i] < motes[i-1] {
			return n.groupRunsUnsorted(motes)
		}
		s, err := n.shardFor(motes[i])
		if err != nil {
			return nil, err
		}
		if s != cur {
			for _, g := range runs {
				if g.s == s {
					// Non-contiguous partition: a shard's motes must land
					// in one group (one partial per domain), so runs can't
					// represent this list.
					return n.groupRunsUnsorted(motes)
				}
			}
			runs = append(runs, shardRun{s: cur, motes: motes[start:i]})
			cur, start = s, i
		}
	}
	return append(runs, shardRun{s: cur, motes: motes[start:]}), nil
}

func (n *Network) groupRunsUnsorted(motes []radio.NodeID) ([]shardRun, error) {
	groups := make(map[*shard][]radio.NodeID)
	order := make([]*shard, 0, 4)
	for _, m := range motes {
		s, err := n.shardFor(m)
		if err != nil {
			return nil, err
		}
		if _, ok := groups[s]; !ok {
			order = append(order, s)
		}
		groups[s] = append(groups[s], m)
	}
	runs := make([]shardRun, 0, len(order))
	for _, s := range order {
		runs = append(runs, shardRun{s: s, motes: groups[s]})
	}
	return runs, nil
}

// specRound is one in-flight round of a spec: its sequence number, the
// virtual instant it fired at, the spec as bound for this round (a
// trailing window resolves to a fresh [at-d, at] each round), and the
// channel its per-domain partials arrive on (buffered to the domain
// count, so workers never block).
type specRound struct {
	seq    int
	at     simtime.Time
	spec   query.Spec
	parts  chan query.RoundPartial
	expect int
}

// newSpecRound allocates a round and scatters it: the calling shard (if
// any) gathers inline — a continuous round fires on the anchor's kernel
// and snapshots that domain at the exact round instant — and every other
// owning domain gets one command. Domains that cannot accept work
// (engine closed) contribute a failed partial immediately.
func (n *Network) newSpecRound(spec query.Spec, runs []shardRun, seq int, at simtime.Time, self *shard, tr *obs.Trace) *specRound {
	n.queriesSubmitted.Add(1)
	spec = spec.BindWindow(at)
	rs := &specRound{seq: seq, at: at, spec: spec, parts: make(chan query.RoundPartial, len(runs)), expect: len(runs)}
	deliver := func(p query.RoundPartial) { rs.parts <- p }
	for _, g := range runs {
		s, motes := g.s, g.motes
		if s == self {
			gatherSpec(s, spec, motes, tr, deliver)
			continue
		}
		if !s.enqueue(shardCmd{fn: func(sh *shard) { gatherSpec(sh, spec, motes, tr, deliver) }}) {
			rs.parts <- query.RoundPartial{
				Domain: s.domain, Partial: query.NewPartialFor(spec), Failed: len(motes),
			}
		}
	}
	return rs
}

// mergeRound blocks for every domain's partial and hands them to the
// query package's merge stage (domain-ascending, so the fold is
// bit-identical to a cluster's two-level merge of the same domains).
// Workers always deliver — queries that can never complete fail their
// callbacks instead of wedging — so this terminates.
func mergeRound(rs *specRound) query.SetResult {
	parts := make([]query.RoundPartial, 0, rs.expect)
	for i := 0; i < rs.expect; i++ {
		parts = append(parts, <-rs.parts)
	}
	return query.MergeRounds(rs.spec, rs.seq, rs.at, parts)
}

// SubmitSpec posts a declarative set query to the engine. The returned
// channel yields one SetResult for a one-shot spec, then closes; a
// Continuous spec yields a result every spec period of virtual time
// until ctx is cancelled (or the Until horizon passes), then closes.
// Each round is a single engine submission regardless of how many motes
// or domains it spans.
//
// Cancellation is prompt and leak-free: the driver goroutine exits on
// ctx.Done even when no receiver drains the channel.
func (n *Network) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	runs, err := n.resolveRuns(spec)
	if err != nil {
		return nil, err
	}
	// Fail fast after Close (Close shuts every shard down). A Close
	// racing a submitted round is still safe: the round's motes are
	// reported in SetResult.Failed instead.
	if n.shards[0].isClosed() {
		return nil, ErrClosed
	}
	// An explain/slow-query trace rides the context; nil otherwise.
	tr := obs.TraceFrom(ctx)
	out := make(chan query.SetResult, 1)
	if spec.Continuous == nil {
		// A one-shot NOW spec naming a single mote keeps the engine's
		// wired-replica fast path (submitNow: cross-domain NOW queries
		// served from the replica mirror when it meets precision and
		// freshness). Scatter rounds
		// execute at the owning domains instead: a set snapshot wants
		// the authoritative data, and its per-domain partials cannot
		// depend on another domain's replica decision. A traced query
		// skips the bypass: the scatter path is the one that annotates
		// each routing decision, and one query through it costs little.
		if tr == nil && spec.Type == query.Now && len(runs) == 1 && len(runs[0].motes) == 1 {
			if err := n.submitNow(spec, runs[0].s, runs[0].motes, out); err != nil {
				return nil, err
			}
			return out, nil
		}
		go func() {
			defer close(out)
			if tr != nil { // gate the Sprintf, not just the span: untraced rounds must not allocate
				tr.Span("scatter", fmt.Sprintf("%d domains", len(runs)))
			}
			res := mergeRound(n.newSpecRound(spec, runs, 0, n.Now(), nil, tr))
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

	// Standing query. The anchor domain's kernel (the one owning the
	// lowest target mote) is the metronome: a self-re-arming wakeup event
	// fires every spec period of virtual time and scatters a round at
	// that exact instant — the anchor's own motes gather inline, other
	// domains by command — so the round cadence tracks the simulation
	// clock no matter how fast wall-clock Run outpaces the consumer. A
	// merge goroutine assembles the rounds in order and delivers them
	// with backpressure; kernels never block on it. Virtual time standing
	// still (no Run in flight) means no new rounds — no new data can
	// exist either.
	cont := *spec.Continuous
	anchor := anchorShard(runs)
	maxRounds := 0
	if cont.Until > 0 {
		// The rounds whose instants fall at or before the Until horizon.
		maxRounds = int(cont.Until / cont.Every)
		if maxRounds == 0 {
			close(out)
			return out, nil
		}
	}
	// In-flight rounds awaiting merge. The buffer bounds memory when the
	// simulation sprints far ahead of the consumer; a full buffer skips
	// rounds (keeping sequence numbers dense) rather than stalling any
	// kernel. fire is the channel's only sender and runs on the anchor
	// worker, so the length check makes its send non-blocking, and it can
	// close the channel when a bounded stream's horizon passes — the
	// merge side then terminates even if backpressure skipped rounds.
	rounds := make(chan *specRound, 256)
	started := 0 // rounds scattered (anchor-worker state)
	fired := 0   // nominal instants reached, skips included
	var fire func(s *shard)
	fire = func(s *shard) {
		select {
		case <-ctx.Done():
			return // cancelled: stop re-arming; the merge side is gone
		case <-s.quit:
			return // engine closed (this is its final drain): likewise
		default:
		}
		if len(rounds) < cap(rounds) {
			rounds <- n.newSpecRound(spec, runs, started, s.sim.Now(), s, nil)
			started++
		}
		fired++
		if maxRounds == 0 || fired < maxRounds {
			s.sim.Schedule(cont.Every, func() { fire(s) })
		} else {
			close(rounds) // horizon reached: no further sends, ever
		}
	}
	if !anchor.enqueue(shardCmd{fn: func(s *shard) {
		s.sim.Schedule(cont.Every, func() { fire(s) })
	}}) {
		return nil, ErrClosed
	}
	go func() {
		defer close(out)
		for {
			var rs *specRound
			var ok bool
			select {
			case <-ctx.Done():
				return
			case <-anchor.quit:
				return // engine closed: the stream dies with it
			case rs, ok = <-rounds:
				if !ok {
					return // bounded stream: horizon passed, all rounds merged
				}
			}
			res := mergeRound(rs)
			select {
			case out <- res:
			case <-ctx.Done():
				return
			case <-anchor.quit:
				return
			}
		}
	}()
	return out, nil
}

// anchorShard picks the metronome domain for a continuous spec: the one
// owning the lowest target mote id, so the choice is deterministic.
func anchorShard(runs []shardRun) *shard {
	anchor := runs[0]
	for _, g := range runs[1:] {
		if g.motes[0] < anchor.motes[0] {
			anchor = g
		}
	}
	return anchor.s
}

// ---------------------------------------------------------------------------
// Client facade

// SpecSubmitter is the engine seam the Client facade sits on: anything
// that can scatter a declarative spec and stream back merged rounds. The
// in-process Network implements it directly; cluster.Coordinator
// implements it over a transport — the same Client (and therefore the
// same application code) front-ends both.
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
