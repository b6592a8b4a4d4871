package core

// The domain workers: sharded, asynchronous, pull-coalescing.
//
// A deployment is partitioned into shards — independent simulation
// domains, each owning a group of proxies, their motes, an event kernel,
// a radio medium, and a slice of the distributed index. One worker
// goroutine per shard serializes all access to the domain, so shards
// advance concurrently with no shared locks; the only cross-domain
// channels are the wired-replica bridge (radio.Bridge) and the workers'
// command queues.
//
// Queries enter through the engine's SubmitSpec (client.go) and nowhere
// else: the local site (site.go) hands each owning shard its share of a
// round's motes as one command, the shard worker executes them against
// the domain's unified store, and — when a query needs a mote rendezvous
// — steps the domain's kernel until the answer resolves. Commands
// arriving while a rendezvous is outstanding are picked up between
// steps, which is what lets the proxy coalesce their pulls into the
// in-flight rendezvous. A lease is a command too: every shard advances
// to the absolute target, and a round enqueued behind it gathers there.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"presto/internal/index"
	"presto/internal/mote"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/store"
)

// ErrClosed is returned by engine operations after Close.
var ErrClosed = errors.New("core: network closed")

// bridgeDrainQuantum bounds how much virtual time a shard advances
// between bridge drains, so replica mirrors lag the wireless domains by
// at most this much of virtual time during long runs (well under one
// sample interval at the default 1-minute sampling).
const bridgeDrainQuantum = 10 * time.Second

// pendingQuery is one domain's share of a spec round: the fold of its
// motes' answers, held by the worker from the moment gatherSpec routes
// them until the last answer lands and the partial is delivered.
type pendingQuery struct {
	sp        query.RoundPartial
	agg       bool
	remaining int // motes whose answers have not landed (plus gatherSpec's hold while it routes)
	deliver   func(query.RoundPartial)
}

// answer takes one mote's result from the store. An AGG mote's entries
// are already in the partial — the store folded them where the answer was
// made — so only its landing counts.
func (pq *pendingQuery) answer(s *shard, r query.Result) {
	if !pq.agg {
		pq.sp.Results = append(pq.sp.Results, r)
	}
	pq.remaining--
	if pq.remaining == 0 {
		delete(s.pending, pq)
		pq.deliver(pq.sp)
	}
}

// shardCmd is one unit of work for a shard worker. fn runs on the
// worker; done, when non-nil, is closed as soon as fn returns (queries fn
// started settle afterwards).
type shardCmd struct {
	fn   func(*shard)
	done chan struct{}
}

// shard is one independent simulation domain and its worker state.
type shard struct {
	domain int
	// slot is this shard's current index in Network.shards. Unlike the
	// global domain index it is process-local and changes when domains
	// are adopted or dropped (elastic re-hosting renumbers slots), so
	// per-shard result arrays index by slot, never by domain arithmetic.
	slot    int
	sim     *simtime.Simulator
	medium  *radio.Medium
	ix      *index.Index
	st      *store.Store
	proxies []*proxy.Proxy // local, in global build order
	motes   []*mote.Mote   // local, in global build order

	// moteProxy maps each local mote to its managing proxy.
	moteProxy map[radio.NodeID]*proxy.Proxy

	bridge *radio.Bridge // nil in single-domain deployments
	wired  *proxy.Proxy  // the wired replica proxy (shard 0 only)

	cmds chan shardCmd
	quit chan struct{}
	// closeMu gates enqueue against Close: senders hold it shared while
	// checking closed and sending, Close holds it exclusively while
	// flipping the flag, so no command can slip in after the worker's
	// final drain.
	closeMu sync.RWMutex
	closed  bool

	// Worker-local:
	pending map[*pendingQuery]struct{}

	retrainFailures atomic.Uint64
}

// loop is the shard worker: it serializes every touch of the domain and
// settles submitted queries by stepping the domain's kernel.
func (s *shard) loop() {
	for {
		select {
		case <-s.quit:
			// Run any stragglers accepted before Close flipped the gate,
			// then fail whatever queries remain outstanding.
			s.drainCmds()
			s.failPending()
			return
		case c := <-s.cmds:
			s.deliverBridge()
			s.exec(c)
			s.settle()
		}
	}
}

// deliverBridge drains the inter-domain inbox and, when the domain has
// no queries settling (which would step the kernel anyway), runs the
// kernel past the wired latency so the deliveries apply before the next
// command executes — replica mirrors stay fresh even in query-only
// workloads that never call Run.
func (s *shard) deliverBridge() {
	if s.bridge == nil {
		return
	}
	if s.bridge.Drain(radio.DomainID(s.domain)) > 0 && len(s.pending) == 0 {
		s.sim.RunFor(s.bridge.Latency())
	}
}

func (s *shard) exec(c shardCmd) {
	c.fn(s)
	if c.done != nil {
		close(c.done)
	}
}

// drainCmds executes every queued command without blocking, so queries
// submitted while the worker is settling join the current rendezvous
// window (pull coalescing across concurrent submitters).
func (s *shard) drainCmds() {
	for {
		select {
		case c := <-s.cmds:
			s.exec(c)
		default:
			return
		}
	}
}

// settle advances the domain until every submitted query has resolved.
// Pull timeouts guarantee progress; if the kernel still runs dry with
// queries outstanding, they are failed rather than wedged.
func (s *shard) settle() {
	for {
		if s.bridge != nil {
			s.bridge.Drain(radio.DomainID(s.domain))
		}
		s.drainCmds()
		if len(s.pending) == 0 {
			return
		}
		if !s.sim.Step() {
			s.failPending()
			return
		}
	}
}

// failPending delivers every outstanding round with its unanswered motes
// counted as failed.
func (s *shard) failPending() {
	for pq := range s.pending {
		pq.sp.Failed += pq.remaining
		pq.deliver(pq.sp)
	}
	clear(s.pending)
}

// advanceTo runs the domain forward to absolute virtual time target
// (no-op for a domain already at or past it — e.g. one that ran ahead
// settling queries), so every domain in every process converges on the
// same clock regardless of where each one currently stands.
// Multi-domain deployments chunk the run at bounded virtual-time
// intervals, draining the bridge and the command queue between chunks:
// replica traffic from other domains keeps flowing during long runs, and
// queries posed meanwhile execute near the virtual time they were posed
// instead of queueing behind the whole advance. Commands drained here
// run between kernel chunks, when the kernel is not stepping, so they may
// safely submit queries — any they leave pending settle during the
// remaining chunks or in the worker's settle loop after the advance
// command returns. Single-domain deployments run the span in one
// unchunked RunUntil — there is no cross-domain traffic to interleave,
// and chunking costs ~30% on long simulations.
func (s *shard) advanceTo(target simtime.Time) {
	for {
		if s.bridge != nil {
			s.bridge.Drain(radio.DomainID(s.domain))
		}
		s.drainCmds()
		if s.sim.Now() >= target {
			return
		}
		next := s.sim.Now() + simtime.Time(bridgeDrainQuantum)
		if s.bridge == nil || next > target {
			next = target
		}
		s.sim.RunUntil(next)
		if s.sim.Now() >= target {
			return
		}
	}
}

// enqueue hands a command to the worker, reporting false after Close.
// Holding closeMu shared across the check-and-send means a true return
// guarantees the worker will run the command: Close cannot flip the gate
// mid-send, and the worker drains the queue before exiting.
func (s *shard) enqueue(c shardCmd) bool {
	s.closeMu.RLock()
	defer s.closeMu.RUnlock()
	if s.closed {
		return false
	}
	s.cmds <- c
	return true
}

// shutdown flips the gate and wakes the worker for its final drain.
func (s *shard) shutdown() {
	s.closeMu.Lock()
	if !s.closed {
		s.closed = true
		close(s.quit)
	}
	s.closeMu.Unlock()
}

// call runs fn on the shard worker and waits for it to return. It
// reports false after Close.
func (s *shard) call(fn func(*shard)) bool {
	done := make(chan struct{})
	if !s.enqueue(shardCmd{fn: fn, done: done}) {
		return false
	}
	<-done
	return true
}

// ---------------------------------------------------------------------------
// Engine API on Network

// Shards reports how many concurrent simulation domains the deployment
// runs.
func (n *Network) Shards() int { return len(n.shards) }

// shardFor routes a mote to its owning shard.
func (n *Network) shardFor(m radio.NodeID) (*shard, error) {
	si, ok := n.moteShard[m]
	if !ok {
		return nil, fmt.Errorf("core: unknown mote %d", m)
	}
	return n.shards[si], nil
}

// submitNow routes a one-shot NOW spec naming a single mote, delivering
// its SetResult straight from the worker that resolves it. A mote
// in another domain is offered to the wired replica first when one
// exists; everything the replica cannot answer within precision is
// forwarded to the owning shard.
//
// A query carrying a freshness bound (MaxStaleness > 0) bypasses the
// replica entirely when the replica's snapshot cannot meet it: the
// replica's newest confirmed observation for the mote is compared against
// the owning domain's clock (lock-free snapshot), and any undrained
// bridge traffic for the replica's domain also marks it stale. Bypassed
// queries settle in the owning domain, where the managing proxy enforces
// the bound end-to-end — paying a mote rendezvous if its own snapshot is
// too old.
func (n *Network) submitNow(spec query.Spec, motes []radio.NodeID) (<-chan query.SetResult, error) {
	target, err := n.shardFor(motes[0])
	if err != nil {
		return nil, err
	}
	n.queriesSubmitted.Add(1)
	out := make(chan query.SetResult, 1)
	deliver := func(p query.RoundPartial) {
		out <- query.SetResult{At: n.Now(), Results: p.Results, Failed: p.Failed} // buffered, and this is its only send
		close(out)
	}
	atOwner := shardCmd{fn: func(ts *shard) { gatherSpec(ts, spec, motes, nil, deliver) }}
	if !n.replicaFirst || target.domain == 0 {
		if !target.enqueue(atOwner) {
			return nil, ErrClosed
		}
		return out, nil
	}
	ok := n.shards[0].enqueue(shardCmd{fn: func(s *shard) {
		q := spec.QueryFor(motes[0])
		// The owning domain's clock, read lock-free at check time (not
		// at submission — the owner may advance while this query
		// queues): the replica's mirrored data carries owning-domain
		// timestamps, so this is the reference the staleness check needs.
		ownerNow := target.sim.NowSnapshot()
		if q.MaxStaleness > 0 &&
			(s.bridge.PendingFor(0, q.Mote) > 0 || !s.wired.FreshWithin(q.Mote, ownerNow, q.MaxStaleness)) {
			n.replicaBypassed.Add(1)
		} else if a, ok := s.wired.QueryLocal(q.Mote, s.sim.Now(), q.Precision); ok {
			n.replicaServed.Add(1)
			deliver(query.RoundPartial{Results: []query.Result{{Query: q, Answer: a}}})
			return
		}
		if !target.enqueue(atOwner) {
			deliver(query.RoundPartial{Failed: 1}) // owning shard shut down mid-forward
		}
	}})
	if !ok {
		return nil, ErrClosed
	}
	return out, nil
}

// Run advances every domain, concurrently, to Now()+d through the
// engine's lease loop, firing the standing specs' rounds on the way: one
// lease per round instant, each round gathered at its instant, and one to
// the target. The target is absolute: a domain that ran ahead settling a
// rendezvous stops there rather than drifting further ahead. With one
// domain, Now() is that domain's clock.
func (n *Network) Run(d time.Duration) {
	n.runMu.Lock()
	defer n.runMu.Unlock()
	_ = n.eng.Run(context.Background(), d) // never cancelled
}

// eachShard runs fn on every shard's worker in parallel and waits for
// all of them.
func (n *Network) eachShard(fn func(*shard)) {
	dones := make([]chan struct{}, 0, len(n.shards))
	for _, s := range n.shards {
		done := make(chan struct{})
		if s.enqueue(shardCmd{fn: fn, done: done}) {
			dones = append(dones, done)
		}
	}
	for _, done := range dones {
		<-done
	}
}

// Now returns the current virtual time: the least-advanced shard clock,
// read from atomic snapshots without taking any lock.
func (n *Network) Now() simtime.Time {
	now := n.shards[0].sim.NowSnapshot()
	for _, s := range n.shards[1:] {
		if t := s.sim.NowSnapshot(); t < now {
			now = t
		}
	}
	return now
}

// Close shuts down the shard workers. Outstanding queries fail (their
// motes count in SetResult.Failed); subsequent engine calls return ErrClosed. Safe
// to call multiple times; networks abandoned without Close are reaped by
// a finalizer.
func (n *Network) Close() {
	n.closeOnce.Do(func() {
		n.eng.Close()
		n.reap.reap()
		// Close has done the finalizer's job.
		runtime.SetFinalizer(n.reap, nil)
	})
}

// reaper shuts the workers of a Network abandoned without Close down.
// The finalizer hangs on it rather than on the Network, which its engine
// points back at (an object with a finalizer that is part of a cycle is
// never freed); only the Network points here, and nothing here points at
// the Network.
type reaper struct {
	shards   []*shard // kept equal to Network.shards
	standing *Streams
}

func (r *reaper) reap() {
	r.standing.Close()
	for _, s := range r.shards {
		s.shutdown()
	}
}

// EngineStats reports engine-level counters: queries submitted, queries
// served directly by the wired replica, and wired-replica bridge traffic
// (messages sent / delivered across domains).
func (n *Network) EngineStats() (submitted, replicaServed, bridgeSent, bridgeDelivered uint64) {
	if n.bridge != nil {
		bridgeSent, bridgeDelivered = n.bridge.Stats()
	}
	return n.queriesSubmitted.Load(), n.replicaServed.Load(), bridgeSent, bridgeDelivered
}

// ReplicaBypassed reports how many NOW queries skipped the wired replica
// because a per-query freshness bound judged its snapshot too stale.
func (n *Network) ReplicaBypassed() uint64 { return n.replicaBypassed.Load() }
