package core

// The Site seam and the local site.
//
// The engine (client.go) reaches every site through one interface. The
// local site is the domains hosted in this process: it hands each owning
// domain its share of a round's motes as one command, the domain worker
// routes each mote once through the domain's store and folds the answers
// into a query.Partial, and the partials come back by reference. A
// cluster process serves its coordinator's frames with the same calls.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// Site is one member of an engine: the local site (this process's
// domains) or a joined cluster process behind a transport. It holds
// exactly what the engine and the cluster's elastic operations ask of
// one site, so each operation is written once, over all sites.
type Site interface {
	// Gather enqueues one concrete round over motes now — ahead of the
	// site's next lease — and returns it in flight. A non-nil tr
	// (one-shot rounds) collects each mote's routing decision.
	Gather(bound query.Spec, motes []radio.NodeID, tr *obs.Trace) Pending
	// Advance runs the site to the absolute lease target.
	Advance(ctx context.Context, target simtime.Time) error
	// Bootstrap runs the two-phase startup; it returns the site's clock
	// after it, or zero when the site reports none.
	Bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) (simtime.Time, error)
	Start(ctx context.Context) error
	// Snapshot captures hosted domain d's blob; drop also stops hosting it.
	Snapshot(ctx context.Context, d int, drop bool) ([]byte, error)
	// Install hosts domain d (adopting it if need be) restored from blob.
	Install(ctx context.Context, d int, blob []byte) error
	// Err is nil while the site is alive.
	Err() error
	Close()
}

// Pending is one site's share of a round in flight.
type Pending interface {
	// Collect waits for the site's per-domain partials.
	Collect(ctx context.Context) ([]query.RoundPartial, error)
}

// gatherErr is the Pending of a round that could not start.
type gatherErr struct{ err error }

func (g gatherErr) Collect(context.Context) ([]query.RoundPartial, error) { return nil, g.err }

// LocalSite is the Site over n's own domains: site 0 of every engine,
// and what a joined cluster process answers its coordinator with.
func LocalSite(n *Network) Site { return localSite{n} }

type localSite struct{ n *Network }

func (s localSite) Gather(bound query.Spec, motes []radio.NodeID, tr *obs.Trace) Pending {
	g, err := s.n.gather(bound, motes, tr)
	if err != nil {
		return gatherErr{err}
	}
	return g
}

// Advance runs every hosted domain, concurrently, to the absolute target
// (domains already past it stay where they are).
func (s localSite) Advance(_ context.Context, target simtime.Time) error {
	s.n.eachShard(func(sh *shard) { sh.advanceTo(target) })
	return nil
}

func (s localSite) Bootstrap(_ context.Context, trainFor time.Duration, bins int, delta float64) (simtime.Time, error) {
	_, err := s.n.Bootstrap(trainFor, bins, delta)
	return s.n.Now(), err
}

func (s localSite) Start(context.Context) error {
	s.n.Start()
	return nil
}

func (s localSite) Snapshot(_ context.Context, d int, drop bool) ([]byte, error) {
	var b bytes.Buffer
	if err := s.n.SnapshotDomain(d, &b); err != nil {
		return nil, err
	}
	if drop {
		if err := s.n.DropDomain(d); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// Install adopts d unless it is already hosted here (a re-joined site
// restoring its own window), then restores it.
func (s localSite) Install(_ context.Context, d int, blob []byte) error {
	if !s.n.HostsDomain(d) {
		if err := s.n.AdoptDomain(d); err != nil {
			return err
		}
	}
	return s.n.RestoreDomain(d, bytes.NewReader(blob))
}

func (s localSite) Err() error { return nil }
func (s localSite) Close()     { s.n.Close() }

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
// domain index and sorted by it. The spec must already be concrete
// (BindWindow applied — a trailing window must resolve against the
// engine's clock, not each site's); motes not hosted by this process are
// an error.
func (n *Network) GatherLocal(spec query.Spec, motes []radio.NodeID) ([]query.RoundPartial, error) {
	g, err := n.gather(spec, motes, nil)
	if err != nil {
		return nil, err
	}
	parts, _ := g.Collect(context.Background()) // a local round cannot fail
	query.SortRoundPartials(parts)
	return parts, nil
}

// localGather is one concrete round in flight on the local domains: each
// owning domain's worker folds its share at its clock when it picks the
// command up — after the lease its queue holds ahead of the round, the
// converged floor — and delivers the partial here.
type localGather struct {
	spec  query.Spec
	tr    *obs.Trace
	runs  []shardRun
	put   func(query.RoundPartial) // g.deliver, bound once per round
	mu    sync.Mutex
	parts []query.RoundPartial // in arrival order; sort by Domain to merge
	wg    sync.WaitGroup       // one count per run
	// Inline backing for runs and parts: a round spans a handful of
	// domains, and a gather should cost one allocation, not four.
	runBuf  [4]shardRun
	partBuf [4]query.RoundPartial
}

// gather enqueues one concrete round against the local domains owning
// motes. A non-nil tr collects each target mote's routing decision as
// the round executes.
func (n *Network) gather(spec query.Spec, motes []radio.NodeID, tr *obs.Trace) (*localGather, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if spec.Trailing > 0 {
		return nil, errors.New("core: a gather needs a concrete window (apply Spec.BindWindow first)")
	}
	if len(motes) == 0 {
		return nil, fmt.Errorf("core: %w", query.ErrNoMotes)
	}
	g := &localGather{spec: spec, tr: tr}
	var err error
	if g.runs, err = n.groupRuns(g.runBuf[:0], motes); err != nil {
		return nil, err
	}
	g.parts = g.partBuf[:0]
	if len(g.runs) > len(g.partBuf) {
		g.parts = make([]query.RoundPartial, 0, len(g.runs))
	}
	n.queriesSubmitted.Add(1)
	g.wg.Add(len(g.runs))
	g.put = g.deliver
	fold := g.fold
	for _, r := range g.runs {
		if !r.s.enqueue(shardCmd{fn: fold}) {
			// The engine is closed: all of the domain's motes failed.
			g.put(query.RoundPartial{Domain: r.s.domain, Partial: query.NewPartialFor(spec), Failed: len(r.motes)})
		}
	}
	return g, nil
}

// fold runs on a domain worker: it gathers the domain's share.
func (g *localGather) fold(sh *shard) {
	for _, r := range g.runs {
		if r.s == sh {
			gatherSpec(sh, g.spec, r.motes, g.tr, g.put)
			return
		}
	}
}

func (g *localGather) deliver(p query.RoundPartial) {
	g.mu.Lock()
	g.parts = append(g.parts, p)
	g.mu.Unlock()
	g.wg.Done()
}

// Collect waits for every domain's partial and returns them by
// reference, in arrival order.
func (g *localGather) Collect(context.Context) ([]query.RoundPartial, error) {
	g.wg.Wait()
	return g.parts, nil
}

// shardRun is one owning domain's slice of a round's target motes.
type shardRun struct {
	s     *shard
	motes []radio.NodeID
}

// groupRuns groups target motes by owning shard, appending the runs to
// dst. Resolved mote lists are ascending and domains partition the id
// space contiguously, so a single pass over the list finds each domain's
// run without a map — and the runs alias the input, so the common case
// allocates nothing beyond dst's growth. An out-of-order list (an
// explicit selector like Motes(9, 2)) falls back to map grouping,
// preserving selector order within groups.
func (n *Network) groupRuns(dst []shardRun, motes []radio.NodeID) ([]shardRun, error) {
	runs := dst
	start := 0
	cur, err := n.shardFor(motes[0])
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(motes); i++ {
		if motes[i] < motes[i-1] {
			return n.groupRunsUnsorted(dst, motes)
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
					return n.groupRunsUnsorted(dst, motes)
				}
			}
			runs = append(runs, shardRun{s: cur, motes: motes[start:i]})
			cur, start = s, i
		}
	}
	return append(runs, shardRun{s: cur, motes: motes[start:]}), nil
}

func (n *Network) groupRunsUnsorted(dst []shardRun, motes []radio.NodeID) ([]shardRun, error) {
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
	runs := dst
	for _, s := range order {
		runs = append(runs, shardRun{s: s, motes: groups[s]})
	}
	return runs, nil
}
