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
// Continuous specs fire on the same round clock a cluster coordinator
// uses (standing.go): each Run seals the rounds due by its target
// instant, every domain runs to each round's instant and gathers its
// share there, and the domain delivering a round's last partial merges
// it and hands it to the stream, which delivers the rounds in sequence.
// A domain therefore gathers exactly where a cluster site does — after
// every event at the instant has fired — whatever the goroutine timing.

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

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
	parts, expect, err := n.GatherStart(spec, motes, nil)
	if err != nil {
		return nil, err
	}
	out := collect(parts, expect)
	query.SortRoundPartials(out)
	return out, nil
}

// GatherStart enqueues one concrete round against the local domains
// owning motes and returns the channel their folded partials arrive on,
// plus how many to expect (one per owning domain, in arrival order —
// sort by Domain before merging). It is GatherLocal's non-blocking half:
// the cluster coordinator uses it to enqueue a round's local gathers
// before issuing the next advance lease, so the round executes while the
// window advances instead of quiescing the engine. Each domain folds at
// its clock when its worker picks the round up — after an advance lease,
// the converged floor.
//
// A non-nil tr collects each target mote's routing decision as the
// round executes — the cluster site threads the scatter frame's trace
// context through here so the decisions ride back in the partials.
func (n *Network) GatherStart(spec query.Spec, motes []radio.NodeID, tr *obs.Trace) (<-chan query.RoundPartial, int, error) {
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
	return n.scatter(spec, runs, tr), len(runs), nil
}

// scatter enqueues one bound round on every owning domain and returns
// the channel their partials arrive on, buffered to the domain count so
// workers never block. A domain that cannot accept work (engine closed)
// contributes a failed partial at once.
func (n *Network) scatter(spec query.Spec, runs []shardRun, tr *obs.Trace) <-chan query.RoundPartial {
	n.queriesSubmitted.Add(1)
	parts := make(chan query.RoundPartial, len(runs))
	deliver := func(p query.RoundPartial) { parts <- p }
	for _, g := range runs {
		motes := g.motes
		if !g.s.enqueue(shardCmd{fn: func(sh *shard) { gatherSpec(sh, spec, motes, tr, deliver) }}) {
			parts <- failedPartial(spec, g)
		}
	}
	return parts
}

// collect blocks for a round's expect partials. Workers always deliver —
// queries that can never complete fail instead of wedging — so it
// terminates.
func collect(parts <-chan query.RoundPartial, expect int) []query.RoundPartial {
	out := make([]query.RoundPartial, 0, expect)
	for i := 0; i < expect; i++ {
		out = append(out, <-parts)
	}
	return out
}

// failedPartial is the share of a domain that cannot gather: all its
// motes failed.
func failedPartial(spec query.Spec, g shardRun) query.RoundPartial {
	return query.RoundPartial{Domain: g.s.domain, Partial: query.NewPartialFor(spec), Failed: len(g.motes)}
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

// dueGather is one domain's share of a sealed standing round: run to the
// round's instant, then gather motes into fold.
type dueGather struct {
	motes []radio.NodeID
	fold  *roundFold
}

// roundFold collects one standing round's per-domain partials as the
// domains deliver them; the domain delivering the last merges the round
// (domain-ascending, so the fold is bit-identical to a cluster's
// two-level merge of the same domains) and hands it to the stream.
type roundFold struct {
	spec      query.Spec // bound at the round's instant
	round     Round
	mu        sync.Mutex
	parts     []query.RoundPartial
	remaining int
}

func (f *roundFold) deliver(p query.RoundPartial) {
	f.mu.Lock()
	f.parts = append(f.parts, p)
	f.remaining--
	last := f.remaining == 0
	f.mu.Unlock()
	if last {
		f.round.Deliver(query.MergeRounds(f.spec, f.round.Seq, f.round.At, f.parts))
	}
}

// dueGathers seals the standing rounds due by target and lays them out
// per hosted shard (indexed by slot; nil when none is due), each shard's
// list in instant order and, within an instant, in stream order. A
// round's share on a domain no longer hosted here fails at once.
func (n *Network) dueGathers(target simtime.Time) [][]dueGather {
	batches := n.standing.Due(target)
	if len(batches) == 0 {
		return nil
	}
	per := make([][]dueGather, len(n.shards))
	for _, b := range batches {
		for _, r := range b.Rounds {
			n.queriesSubmitted.Add(1)
			f := &roundFold{spec: b.Spec.BindWindow(r.At), round: r,
				parts: make([]query.RoundPartial, 0, len(b.Route)), remaining: len(b.Route)}
			for _, g := range b.Route {
				if g.s.slot < len(n.shards) && n.shards[g.s.slot] == g.s {
					per[g.s.slot] = append(per[g.s.slot], dueGather{motes: g.motes, fold: f})
				} else {
					f.deliver(failedPartial(f.spec, g))
				}
			}
		}
	}
	for _, gs := range per {
		slices.SortStableFunc(gs, func(a, b dueGather) int { return cmp.Compare(a.fold.round.At, b.fold.round.At) })
	}
	return per
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
	if spec.Continuous != nil {
		// Standing query: its rounds fire as Run (or RunUntilTime) reaches
		// each period instant. Virtual time standing still means no new
		// rounds — no new data can exist either.
		return n.standing.Open(ctx, spec, runs, n.Now())
	}
	// An explain/slow-query trace rides the context; nil otherwise.
	tr := obs.TraceFrom(ctx)
	out := make(chan query.SetResult, 1)
	// A one-shot NOW spec naming a single mote keeps the engine's
	// wired-replica fast path (submitNow: cross-domain NOW queries served
	// from the replica mirror when it meets precision and freshness).
	// Scatter rounds execute at the owning domains instead: a set snapshot
	// wants the authoritative data, and its per-domain partials cannot
	// depend on another domain's replica decision. A traced query skips
	// the bypass: the scatter path is the one that annotates each routing
	// decision, and one query through it costs little.
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
		at := n.Now()
		bound := spec.BindWindow(at)
		res := query.MergeRounds(bound, 0, at, collect(n.scatter(bound, runs, tr), len(runs)))
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
