// Package simtime provides a deterministic discrete-event simulation kernel.
//
// All PRESTO experiments run on virtual time: a single-threaded event loop
// pops events from a binary heap ordered by (time, sequence number). The
// sequence number tie-break makes runs bit-for-bit reproducible for a given
// seed, which every experiment in this repository relies on.
//
// Steady-state scheduling allocates nothing: spent events are recycled
// through a per-Simulator free list, and a Ticker re-arms its own event.
package simtime

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	"presto/internal/snap"
)

// Time is virtual time measured in nanoseconds since the start of the
// simulation. It is deliberately not time.Time: simulations start at zero
// and have no wall-clock meaning.
type Time int64

// Common duration helpers for readability in experiment code.
const (
	Nanosecond  Time = 1
	Microsecond      = 1000 * Nanosecond
	Millisecond      = 1000 * Microsecond
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
	Day              = 24 * Hour
)

// Duration converts t to a time.Duration offset from the simulation start.
func (t Time) Duration() time.Duration { return time.Duration(t) }

// Seconds reports t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Minutes reports t as floating-point minutes.
func (t Time) Minutes() float64 { return float64(t) / float64(Minute) }

// Hours reports t as floating-point hours.
func (t Time) Hours() float64 { return float64(t) / float64(Hour) }

// String formats the time as a duration, e.g. "26h3m0s".
func (t Time) String() string { return time.Duration(t).String() }

// FromDuration converts a wall-style duration into virtual Time.
func FromDuration(d time.Duration) Time { return Time(d) }

// Handle identifies a scheduled event and allows cancellation.
// The zero Handle is invalid. A Handle is generation-checked: once its
// event has fired or been reaped it is stale for good, neither Pending nor
// cancellable, even after the recycled event is scheduled again.
type Handle struct {
	ev  *event
	gen uint64
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op. It reports whether the event was
// still pending.
func (h Handle) Cancel() bool {
	if !h.Pending() {
		return false
	}
	h.ev.cancelled = true
	return true
}

// Pending reports whether the event is still scheduled to fire.
func (h Handle) Pending() bool {
	return h.ev != nil && h.ev.gen == h.gen && !h.ev.cancelled
}

type event struct {
	at  Time
	seq uint64
	// Exactly one of fn and call is set; call receives arg.
	fn        func()
	call      func(uint64)
	arg       uint64
	gen       uint64 // advanced each time the event leaves the queue
	cancelled bool
	ticker    bool // a Ticker's own event, never put on the free list
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

// Simulator is a deterministic discrete-event scheduler.
// It is not safe for concurrent use; wrap it (as core.Network does) if
// events must be injected from multiple goroutines.
type Simulator struct {
	now       Time
	events    eventHeap
	free      []*event // events out of the queue, ready for reuse
	seq       uint64
	rng       *rand.Rand
	src       *snap.RNG // the serializable source behind rng
	processed uint64
	running   bool

	// nowSnapshot mirrors now for lock-free readers on other goroutines
	// (sharded deployments publish each domain's clock through it).
	nowSnapshot atomic.Int64
}

// maxTime is the latest instant; relative delays saturate there.
const maxTime Time = math.MaxInt64

// New returns a simulator whose random source is seeded with seed. The
// source is a serializable xoshiro256** generator so Snapshot/Restore
// can externalize and reinstall its exact state.
func New(seed int64) *Simulator {
	src := snap.NewRNG(seed)
	return &Simulator{rng: rand.New(src), src: src}
}

// Now returns the current virtual time. It must only be called from the
// goroutine driving the simulator; concurrent readers use NowSnapshot.
func (s *Simulator) Now() Time { return s.now }

// NowSnapshot returns the clock as last published by the driving
// goroutine. Unlike Now it is safe to call from any goroutine: sharded
// deployments serve their Now() from this without taking any lock.
func (s *Simulator) NowSnapshot() Time { return Time(s.nowSnapshot.Load()) }

// setNow advances the clock and publishes the snapshot.
func (s *Simulator) setNow(t Time) {
	s.now = t
	s.nowSnapshot.Store(int64(t))
}

// after returns now+d, saturated at maxTime.
func (s *Simulator) after(d Time) Time {
	if d > maxTime-s.now {
		return maxTime
	}
	return s.now + d
}

// Rand returns the simulator's deterministic random source.
func (s *Simulator) Rand() *rand.Rand { return s.rng }

// Processed reports how many events have fired so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending reports how many events are queued (including cancelled ones not
// yet reaped).
func (s *Simulator) Pending() int { return len(s.events) }

// Schedule arranges for fn to run after delay d. A negative delay is
// treated as zero (fires at the current time, after already-queued events
// for that time); one that would overflow the clock saturates at the
// latest representable instant.
func (s *Simulator) Schedule(d time.Duration, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return s.ScheduleAt(s.after(Time(d)), fn)
}

// ScheduleAt arranges for fn to run at absolute virtual time t.
// Scheduling in the past is clamped to the present.
func (s *Simulator) ScheduleAt(t Time, fn func()) Handle {
	if fn == nil {
		panic("simtime: ScheduleAt with nil function")
	}
	return s.enqueue(t, fn, nil, 0)
}

// ScheduleCall arranges for call(arg) to run at absolute virtual time t,
// clamped to the present like ScheduleAt. It allocates nothing in steady
// state when call is a func value built once and kept (not a method value
// evaluated per call) and arg names the caller's pending work.
func (s *Simulator) ScheduleCall(t Time, call func(uint64), arg uint64) Handle {
	if call == nil {
		panic("simtime: ScheduleCall with nil function")
	}
	return s.enqueue(t, nil, call, arg)
}

// enqueue queues an event from the free list (or a new one).
func (s *Simulator) enqueue(t Time, fn func(), call func(uint64), arg uint64) Handle {
	var ev *event
	if n := len(s.free); n > 0 {
		ev, s.free = s.free[n-1], s.free[:n-1]
	} else {
		ev = new(event)
	}
	ev.fn, ev.call, ev.arg = fn, call, arg
	return s.push(ev, t)
}

// push queues ev at t (clamped to the present) under the next sequence
// number and returns a Handle for this occupancy.
func (s *Simulator) push(ev *event, t Time) Handle {
	if t < s.now {
		t = s.now
	}
	s.seq++
	ev.at, ev.seq, ev.cancelled = t, s.seq, false
	heap.Push(&s.events, ev)
	return Handle{ev: ev, gen: ev.gen}
}

// step fires the next live event due at or before t, reaping cancelled
// ones, and reports false when there is none. A popped event is recycled
// before its callback runs, which may schedule into the same struct.
func (s *Simulator) step(t Time) bool {
	for len(s.events) > 0 {
		ev := s.events[0]
		if !ev.cancelled && ev.at > t {
			return false
		}
		heap.Pop(&s.events)
		ev.gen++
		fn, call, arg := ev.fn, ev.call, ev.arg
		if !ev.ticker {
			ev.fn, ev.call = nil, nil
			s.free = append(s.free, ev)
		}
		if ev.cancelled {
			continue
		}
		s.setNow(ev.at)
		s.processed++
		if fn != nil {
			fn()
		} else {
			call(arg)
		}
		return true
	}
	return false
}

// Step fires the next event, advancing virtual time. It reports false when
// no events remain.
func (s *Simulator) Step() bool { return s.step(maxTime) }

// Run fires events until none remain.
func (s *Simulator) Run() {
	if s.running {
		panic("simtime: Run re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.Step() {
	}
}

// RunUntil fires events with timestamps <= t, then sets the clock to t.
// Events scheduled beyond t remain queued.
func (s *Simulator) RunUntil(t Time) {
	if s.running {
		panic("simtime: RunUntil re-entered")
	}
	s.running = true
	defer func() { s.running = false }()
	for s.step(t) {
	}
	if s.now < t {
		s.setNow(t)
	}
}

// RunFor advances the simulation by duration d, saturating at maxTime.
func (s *Simulator) RunFor(d time.Duration) { s.RunUntil(s.after(Time(d))) }

// Ticker fires a callback at a fixed period until stopped. It owns its
// event and re-arms it in place, so a firing allocates nothing.
type Ticker struct {
	sim     *Simulator
	period  Time
	fn      func()
	ev      event
	handle  Handle
	stopped bool
	// fireings is atomic so aggregate handles (core.RetrainTicker) can
	// read it while other shards' tickers are still firing.
	fireings atomic.Uint64
}

// Every schedules fn to run every period, with the first firing one full
// period from now. It panics on a non-positive period since that would
// wedge the event loop at a single instant.
func (s *Simulator) Every(period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: Every with non-positive period %v", period))
	}
	return s.every(s.after(Time(period)), Time(period), fn)
}

// EveryFrom behaves like Every but fires the first tick after initial delay.
func (s *Simulator) EveryFrom(initial, period time.Duration, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: EveryFrom with non-positive period %v", period))
	}
	if initial < 0 {
		initial = 0
	}
	return s.every(s.after(Time(initial)), Time(period), fn)
}

// EveryAt behaves like Every but arms the first firing at absolute
// virtual time next (clamped to the present). Restore paths use it to
// resume a snapshotted ticker exactly where it left off.
func (s *Simulator) EveryAt(next Time, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("simtime: EveryAt with non-positive period %v", period))
	}
	return s.every(next, period, fn)
}

// every builds a ticker, its tick method value made once, firing at next.
func (s *Simulator) every(next, period Time, fn func()) *Ticker {
	t := &Ticker{sim: s, period: period, fn: fn}
	t.ev.ticker = true
	t.ev.fn = t.tick
	t.handle = s.push(&t.ev, next)
	return t
}

func (t *Ticker) tick() {
	if t.stopped {
		return
	}
	t.fireings.Add(1)
	t.fn()
	if !t.stopped {
		t.handle = t.sim.push(&t.ev, t.sim.after(t.period))
	}
}

// Stop cancels future firings. Safe to call multiple times and from within
// the ticker's own callback.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	t.handle.Cancel()
}

// Firings reports how many times the ticker has fired. Safe for
// concurrent use.
func (t *Ticker) Firings() uint64 { return t.fireings.Load() }

// Period returns the ticker's firing period.
func (t *Ticker) Period() Time { return t.period }

// NextFire returns the absolute virtual time of the next scheduled
// firing, or -1 if the ticker is stopped (or its event is gone).
// Snapshot paths record this so a restored ticker resumes on the exact
// original schedule via EveryAt.
func (t *Ticker) NextFire() Time {
	if t.stopped || !t.handle.Pending() {
		return -1
	}
	return t.ev.at
}

// RestoreFirings reinstalls a snapshotted firing count.
func (t *Ticker) RestoreFirings(n uint64) { t.fireings.Store(n) }
