package radio

// Partitioned mode: a sharded deployment runs each proxy and its motes in
// an independent simulation domain (own event kernel, own Medium) so the
// domains can advance concurrently on separate goroutines. The wireless
// tier never crosses a domain — motes only talk to their own proxy — but
// the wired backbone between proxies does: Section 5's wired replicas
// receive a copy of every confirmed observation and model update from the
// wireless proxies they replicate. Bridge is that backbone.
//
// A Bridge is a thread-safe mailbox network between domains. Senders
// (running inside their own domain's event loop) enqueue wire-level
// messages from any goroutine; each receiving domain drains its inbox at
// safe points of its own worker loop, which schedules delivery onto that
// domain's kernel after the wired latency. Virtual clocks of different
// domains are only loosely aligned (they advance in parallel), so a
// bridged message is timestamped by the *receiving* domain — the same
// relaxation a real wired WAN imposes.

import (
	"sync"
	"sync/atomic"
	"time"

	"presto/internal/simtime"
)

// DomainID identifies one simulation domain on a bridge.
type DomainID int

// BridgeMsg is one wired inter-domain message. Kind and Payload are
// wire-level (the same encodings motes and proxies exchange over radio);
// Mote names the subject mote for replica traffic.
type BridgeMsg struct {
	Src, Dst DomainID
	Mote     NodeID
	Kind     Kind
	Payload  []byte
}

// bridgeDomain is the receive side of one domain.
type bridgeDomain struct {
	bridge  *Bridge
	handler func(BridgeMsg)
	inbox   []BridgeMsg
	// flights holds messages Drain has scheduled onto the domain's kernel
	// but not yet delivered, like Medium.flights.
	flights inAir[BridgeMsg]
}

// Bridge carries wired traffic between partitioned simulation domains.
// Send is safe from any goroutine; Drain must be called only by the
// goroutine driving the destination domain's simulator.
type Bridge struct {
	latency time.Duration

	mu      sync.Mutex
	domains map[DomainID]*bridgeDomain
	uplink  func(BridgeMsg)

	sent, delivered atomic.Uint64
}

// NewBridge creates a bridge whose deliveries take latency of the
// receiving domain's virtual time (a wired LAN/WAN hop; no LPL rendezvous,
// no loss — the wired tier is reliable in the paper's architecture).
func NewBridge(latency time.Duration) *Bridge {
	if latency < 0 {
		latency = 0
	}
	return &Bridge{latency: latency, domains: make(map[DomainID]*bridgeDomain)}
}

// Latency returns the one-way wired delivery latency.
func (b *Bridge) Latency() time.Duration { return b.latency }

// AttachDomain registers a domain's simulator and message handler. The
// handler runs on the domain's own goroutine, from events scheduled by
// Drain.
func (b *Bridge) AttachDomain(d DomainID, sim *simtime.Simulator, h func(BridgeMsg)) {
	b.mu.Lock()
	defer b.mu.Unlock()
	dom := &bridgeDomain{bridge: b, handler: h}
	dom.flights = inAir[BridgeMsg]{sim: sim, land: dom.deliver}
	b.domains[d] = dom
}

// SetUplink installs a forwarder for messages addressed to domains not
// attached to this bridge: in a multi-process cluster each process hosts
// a window of the domains, and replica traffic for a domain hosted
// elsewhere leaves through the uplink (cluster.Site wires it to the
// coordinator connection). Without an uplink such messages drop, as
// before. The uplink runs on the sender's goroutine — a domain worker —
// so it must not block on the receiving domain.
func (b *Bridge) SetUplink(fn func(BridgeMsg)) {
	b.mu.Lock()
	b.uplink = fn
	b.mu.Unlock()
}

// Send enqueues a message for the destination domain. Messages for
// domains not attached locally go to the uplink when one is installed
// (cross-process delivery); with no uplink they drop (a detached domain,
// mirroring radio's silent link-layer loss).
func (b *Bridge) Send(msg BridgeMsg) {
	b.mu.Lock()
	dom, ok := b.domains[msg.Dst]
	uplink := b.uplink
	if ok {
		dom.inbox = append(dom.inbox, msg)
	}
	b.mu.Unlock()
	if ok {
		b.sent.Add(1)
		return
	}
	if uplink != nil {
		b.sent.Add(1)
		uplink(msg)
	}
}

// Drain moves every pending message for domain d onto d's event kernel,
// each delivered after the wired latency. It returns how many messages
// were scheduled. Only the goroutine driving d's simulator may call it.
func (b *Bridge) Drain(d DomainID) int {
	b.mu.Lock()
	dom, ok := b.domains[d]
	if !ok || len(dom.inbox) == 0 {
		b.mu.Unlock()
		return 0
	}
	pending := dom.inbox
	dom.inbox = nil
	b.mu.Unlock()

	at := dom.flights.sim.Now() + simtime.Time(b.latency)
	for _, msg := range pending {
		dom.flights.launch(at, msg)
	}
	return len(pending)
}

// deliver lands the drained message in slot. Only the goroutine driving
// the domain's simulator touches dom.flights (the same discipline as
// Drain), so no lock is needed.
func (dom *bridgeDomain) deliver(slot uint64) {
	msg := dom.flights.take(slot)
	dom.bridge.delivered.Add(1)
	dom.handler(msg)
}

// Attached reports whether domain d currently has a bridge inbox here.
func (b *Bridge) Attached(d DomainID) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.domains[d]
	return ok
}

// DetachDomain removes a domain from the bridge: subsequent sends to it
// go to the uplink (or drop), like any unhosted domain. Domain migration
// uses this after streaming a domain's state off the local process.
func (b *Bridge) DetachDomain(d DomainID) {
	b.mu.Lock()
	delete(b.domains, d)
	b.mu.Unlock()
}

// PendingFor reports how many undelivered messages queued for domain d
// concern mote m. A non-zero count means d's replica mirror of that mote
// is provably behind the owning domain — per-query freshness bounds treat
// such a replica as stale rather than serve from a snapshot known to lag.
// Traffic for other motes does not count: it says nothing about this
// mote's mirror, and charging it would defeat the replica fast path under
// steady load. The inbox is drained at every worker command, so the scan
// is over a handful of messages at most. Safe from any goroutine.
func (b *Bridge) PendingFor(d DomainID, m NodeID) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	dom, ok := b.domains[d]
	if !ok {
		return 0
	}
	n := 0
	for _, msg := range dom.inbox {
		if msg.Mote == m {
			n++
		}
	}
	return n
}

// Stats reports bridge-wide counters: messages accepted by Send and
// messages delivered to handlers.
func (b *Bridge) Stats() (sent, delivered uint64) {
	return b.sent.Load(), b.delivered.Load()
}
