// Package radio simulates the lossy, duty-cycled wireless link between
// PRESTO motes and their proxy.
//
// The MAC is B-MAC-style low-power listening (LPL): each duty-cycled
// endpoint wakes every CheckInterval to probe the channel; a sender must
// front every frame with a preamble long enough to cover the receiver's
// check interval. This yields the two energy terms the paper's
// query–sensor matching manipulates: per-packet preamble cost grows with
// the receiver's LPL interval, while idle-listening cost shrinks with it.
// Tethered proxies listen continuously (CheckInterval 0) so mote→proxy
// sends pay no preamble, while proxy→mote sends pay the mote's preamble —
// matching real deployments.
//
// Delivery is unicast with per-link loss probability, bounded random
// jitter, ACKs and bounded retransmission. All randomness comes from the
// simulator's seeded RNG, so runs are reproducible.
package radio

import (
	"errors"
	"fmt"
	"time"

	"presto/internal/energy"
	"presto/internal/simtime"
)

// NodeID identifies an endpoint on a medium.
type NodeID int

// Kind is an application-level message type tag carried in the header.
type Kind uint8

// Packet is one application message (the medium fragments it into frames
// internally for energy accounting; the handler sees whole messages).
type Packet struct {
	Src, Dst NodeID
	Kind     Kind
	Payload  []byte
	SentAt   simtime.Time // when Send was called
}

// Handler consumes delivered packets.
type Handler func(Packet)

// Errors.
var (
	ErrDuplicateNode = errors.New("radio: node id already attached")
	ErrUnknownNode   = errors.New("radio: destination not attached")
	ErrDetached      = errors.New("radio: endpoint is detached")
)

// Config holds medium-wide link characteristics.
type Config struct {
	// LossProb is the per-transmission-attempt loss probability in [0,1).
	LossProb float64
	// PropDelay is the base one-way latency for a frame exchange.
	PropDelay time.Duration
	// JitterMax adds uniform random [0, JitterMax) to each delivery.
	JitterMax time.Duration
	// MaxRetries bounds retransmissions after a lost attempt.
	MaxRetries int
	// ByteTime is the serialization time per payload byte.
	ByteTime time.Duration
	// PreambleInterval is the network-wide B-MAC wakeup-preamble length:
	// every sender fronts each message with a preamble of this duration
	// regardless of the destination (classic B-MAC broadcasts the wakeup
	// tone). The effective preamble for a send is the maximum of this and
	// the destination's own check interval. Zero models an X-MAC-style
	// link where the preamble tracks only the receiver's interval.
	PreambleInterval time.Duration
}

// DefaultConfig matches a single-hop 802.15.4-class link: 2% loss, 5 ms
// propagation+processing, 250 kbps serialization.
func DefaultConfig() Config {
	return Config{
		LossProb:   0.02,
		PropDelay:  5 * time.Millisecond,
		JitterMax:  2 * time.Millisecond,
		MaxRetries: 3,
		ByteTime:   32 * time.Microsecond, // 250 kbps
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.LossProb < 0 || c.LossProb >= 1 {
		return fmt.Errorf("radio: LossProb %g outside [0,1)", c.LossProb)
	}
	if c.PropDelay < 0 || c.JitterMax < 0 || c.ByteTime < 0 || c.PreambleInterval < 0 {
		return errors.New("radio: negative delay")
	}
	if c.MaxRetries < 0 {
		return errors.New("radio: negative MaxRetries")
	}
	return nil
}

// Medium connects endpoints over simulated single-hop links.
type Medium struct {
	sim    *simtime.Simulator
	cfg    Config
	params energy.Params
	nodes  map[NodeID]*Endpoint

	flights inAir[Packet] // undelivered messages, as Snapshot records them
	slab    []byte        // append-only arena for small payload copies

	sent, delivered, lost, retried uint64
}

// inAir is the slot table of messages awaiting kernel delivery, behind
// Medium and each bridge domain. A delivery is a kernel event naming its
// slot, so landing frees the slot in O(1) and builds no closure; a launch
// sequence keeps launch order, which snapshots record, across slot reuse.
type inAir[T any] struct {
	sim   *simtime.Simulator
	land  func(uint64) // the owner's deliver method, bound once
	slots []inFlight[T]
	free  []uint64 // vacant slot indexes
	seq   uint64
}

// inFlight is one slot. seq is its launch number; 0 marks it vacant.
type inFlight[T any] struct {
	at  simtime.Time
	seq uint64
	msg T
}

// launch puts msg in a vacant slot and schedules its landing at at.
func (a *inAir[T]) launch(at simtime.Time, msg T) {
	var slot uint64
	if n := len(a.free); n > 0 {
		slot, a.free = a.free[n-1], a.free[:n-1]
	} else {
		slot = uint64(len(a.slots))
		a.slots = append(a.slots, inFlight[T]{})
	}
	a.seq++
	a.slots[slot] = inFlight[T]{at: at, seq: a.seq, msg: msg}
	a.sim.ScheduleCall(at, a.land, slot)
}

// take vacates a landing slot and returns its message.
func (a *inAir[T]) take(slot uint64) T {
	msg := a.slots[slot].msg
	a.slots[slot] = inFlight[T]{}
	a.free = append(a.free, slot)
	return msg
}

const slabSize = 16 << 10 // payloads above an eighth of it get their own

// copyPayload copies p into the slab, capped so that a holder's append
// cannot clobber a neighbour. A full slab is left to the garbage
// collector, never reused, so a holder may keep the slice.
func (m *Medium) copyPayload(p []byte) []byte {
	if len(p) == 0 || len(p) > slabSize/8 {
		return append([]byte(nil), p...)
	}
	if cap(m.slab)-len(m.slab) < len(p) {
		m.slab = make([]byte, 0, slabSize)
	}
	start := len(m.slab)
	m.slab = append(m.slab, p...)
	return m.slab[start:len(m.slab):len(m.slab)]
}

// NewMedium creates a medium on the simulator.
func NewMedium(sim *simtime.Simulator, cfg Config, params energy.Params) (*Medium, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := params.Validate(); err != nil {
		return nil, err
	}
	m := &Medium{sim: sim, cfg: cfg, params: params, nodes: make(map[NodeID]*Endpoint)}
	m.flights = inAir[Packet]{sim: sim, land: m.deliver}
	return m, nil
}

// Stats reports medium-wide counters: application sends, deliveries,
// permanently lost messages, and retransmission attempts.
func (m *Medium) Stats() (sent, delivered, lost, retried uint64) {
	return m.sent, m.delivered, m.lost, m.retried
}

// Endpoint is one node's attachment to the medium.
type Endpoint struct {
	id      NodeID
	medium  *Medium
	meter   *energy.Meter
	handler Handler

	// lplInterval is the LPL channel-check interval. Zero means the radio
	// is always listening (tethered proxy).
	lplInterval time.Duration
	// listenFrom tracks the last time idle-listening energy was accrued.
	listenFrom simtime.Time
	detached   bool

	txMsgs, rxMsgs, txBytes, rxBytes uint64
}

// Attach adds a node. meter may be nil (no energy accounting, e.g. the
// tethered proxy whose energy is not a constraint).
func (m *Medium) Attach(id NodeID, meter *energy.Meter, lpl time.Duration, h Handler) (*Endpoint, error) {
	if _, ok := m.nodes[id]; ok {
		return nil, ErrDuplicateNode
	}
	if lpl < 0 {
		lpl = 0
	}
	ep := &Endpoint{
		id:          id,
		medium:      m,
		meter:       meter,
		handler:     h,
		lplInterval: lpl,
		listenFrom:  m.sim.Now(),
	}
	m.nodes[id] = ep
	return ep, nil
}

// Detach removes the endpoint from the medium (a dead mote). Pending
// deliveries to it are dropped.
func (e *Endpoint) Detach() {
	if !e.detached {
		e.AccrueListen()
		delete(e.medium.nodes, e.id)
		e.detached = true
	}
}

// ID returns the endpoint's node id.
func (e *Endpoint) ID() NodeID { return e.id }

// LPLInterval returns the current channel-check interval.
func (e *Endpoint) LPLInterval() time.Duration { return e.lplInterval }

// SetLPLInterval retunes the duty cycle (query–sensor matching adjusts
// this at runtime). Accrued listening up to now is charged at the old
// rate first.
func (e *Endpoint) SetLPLInterval(d time.Duration) {
	e.AccrueListen()
	if d < 0 {
		d = 0
	}
	e.lplInterval = d
}

// AccrueListen charges idle-listening energy from the last accrual point
// to now. It is called lazily (on sends, retunes and reads) so month-long
// simulations need no per-wakeup events; always-on endpoints (lpl=0) are
// charged continuous listen power.
func (e *Endpoint) AccrueListen() {
	now := e.medium.sim.Now()
	elapsed := time.Duration(now - e.listenFrom)
	e.listenFrom = now
	if elapsed <= 0 || e.meter == nil {
		return
	}
	e.meter.Add(energy.RadioListen, e.medium.params.ListenCost(elapsed, e.lplInterval))
}

// charge adds energy to the endpoint's meter if it has one.
func (e *Endpoint) charge(c energy.Category, j float64) {
	if e.meter != nil {
		e.meter.Add(c, j)
	}
}

// Stats reports per-endpoint counters.
func (e *Endpoint) Stats() (txMsgs, rxMsgs, txBytes, rxBytes uint64) {
	return e.txMsgs, e.rxMsgs, e.txBytes, e.rxBytes
}

// Send transmits an application message to dst. Energy is charged
// immediately to both ends (sender: preamble sized by the receiver's LPL
// interval + payload + ACK rx; receiver: payload rx + ACK tx). Loss is
// resolved per attempt; after MaxRetries failures the message is dropped
// and the sender has still paid for every attempt. Delivery, if any,
// happens after propagation + serialization + LPL rendezvous delay.
// The payload is copied (small ones into a per-medium append-only slab),
// so the caller may reuse its buffer and a handler may keep the copy.
func (e *Endpoint) Send(dst NodeID, kind Kind, payload []byte) error {
	if e.detached {
		return ErrDetached
	}
	m := e.medium
	target, ok := m.nodes[dst]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNode, dst)
	}
	m.sent++
	e.txMsgs++
	e.txBytes += uint64(len(payload))

	// LPL rendezvous: the sender must keep the preamble up until the
	// receiver's next channel check — on average half the interval; we
	// draw uniformly for realism and charge the *sender* preamble TX
	// for the receiver's full check interval (B-MAC worst-case preamble,
	// the standard conservative model).
	var rendezvous time.Duration
	if target.lplInterval > 0 {
		rendezvous = time.Duration(m.sim.Rand().Int63n(int64(target.lplInterval) + 1))
	}

	// Effective preamble: the network-wide B-MAC tone or the receiver's
	// own check interval, whichever is longer.
	preamble := m.cfg.PreambleInterval
	if target.lplInterval > preamble {
		preamble = target.lplInterval
	}

	attempts := 0
	for {
		attempts++
		// Sender pays full cost per attempt.
		e.charge(energy.RadioTx, m.params.TxCost(len(payload), preamble))
		if m.cfg.LossProb == 0 || m.sim.Rand().Float64() >= m.cfg.LossProb {
			break // this attempt gets through
		}
		if attempts > m.cfg.MaxRetries {
			m.lost++
			return nil // dropped after retries; link-layer loss is silent
		}
		m.retried++
	}

	serialization := time.Duration(len(payload)+m.params.HeaderBytes) * m.cfg.ByteTime
	jitter := time.Duration(0)
	if m.cfg.JitterMax > 0 {
		jitter = time.Duration(m.sim.Rand().Int63n(int64(m.cfg.JitterMax)))
	}
	delay := m.cfg.PropDelay + rendezvous + serialization + jitter
	pkt := Packet{Src: e.id, Dst: dst, Kind: kind, Payload: m.copyPayload(payload), SentAt: m.sim.Now()}
	m.flights.launch(m.sim.Now()+simtime.Time(delay), pkt)
	return nil
}

// deliver lands the flight in slot: it leaves the table and is handed to
// the receiver, which may have detached or retuned while in flight.
func (m *Medium) deliver(slot uint64) {
	pkt := m.flights.take(slot)
	cur, ok := m.nodes[pkt.Dst]
	if !ok {
		m.lost++
		return
	}
	cur.charge(energy.RadioRx, m.params.RxCost(len(pkt.Payload)))
	cur.rxMsgs++
	cur.rxBytes += uint64(len(pkt.Payload))
	m.delivered++
	if cur.handler != nil {
		cur.handler(pkt)
	}
}
