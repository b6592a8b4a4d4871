package core

// Standing specs: the round clock of the one engine (client.go). A
// continuous spec fires a round every Every of virtual time from the
// instant it was posed. The engine's lease loop never steps past Next,
// the earliest instant a live stream is due; once a lease reaches it, Due
// seals the rounds there, the engine gathers each at its instant and
// hands the merged result to the round's Deliver. The stream owns the
// rest: sequence numbers, the Until horizon, in-order delivery,
// cancellation and the buffer bound.

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"

	"presto/internal/query"
	"presto/internal/simtime"
)

// streamBuffer bounds how many sealed rounds a standing stream holds
// between sealing and delivery to its reader. A reader that falls this
// far behind loses rounds: Due skips them — sealing none, so sequence
// numbers stay dense — rather than stall a domain or a lease, and counts
// them in Skipped.
const streamBuffer = 256

// Stream is one standing spec: its round schedule and the goroutine that
// delivers its merged rounds in sequence. route is the engine's routing
// for the spec's motes, resolved when the spec was posed; it and the
// schedule are guarded by the owning Streams' mutex.
type Stream struct {
	Spec  query.Spec
	route route

	ctx   context.Context
	every simtime.Time
	until simtime.Time // absolute horizon; 0 = unbounded
	next  simtime.Time // next round's instant
	seq   int

	// inflight hands each sealed round's result channel to the delivery
	// goroutine in seal order, so rounds reach out in sequence however
	// their gathers finish. Its capacity is the buffer bound.
	inflight chan chan query.SetResult
	out      chan query.SetResult
	stop     chan struct{} // closed by abort: cancellation or Close
	done     chan struct{} // closed when the delivery goroutine exits
	aborted  bool          // stop closed
}

// Schedule reports the stream's period, absolute horizon (0 = unbounded),
// next round instant and next sequence number. Call it inside Each.
func (st *Stream) Schedule() (every, until, next simtime.Time, seq int) {
	return st.every, st.until, st.next, st.seq
}

// abort tears the stream down without draining.
func (st *Stream) abort() {
	if !st.aborted {
		st.aborted = true
		close(st.stop)
	}
}

// deliver is the stream's delivery goroutine: it takes each sealed
// round's result channel in seal order and forwards the round to out.
func (st *Stream) deliver() {
	defer close(st.done)
	defer close(st.out)
	for {
		var pending chan query.SetResult
		select {
		case p, ok := <-st.inflight:
			if !ok {
				return
			}
			pending = p
		case <-st.stop:
			return
		}
		var res query.SetResult
		select {
		case res = <-pending:
		case <-st.stop:
			return
		}
		select {
		case st.out <- res:
		case <-st.stop:
			return
		}
	}
}

// Round is one sealed round of a standing stream.
type Round struct {
	Seq int
	At  simtime.Time
	res chan<- query.SetResult
}

// Deliver hands the round's merged result to its stream. Call it exactly
// once per round; it never blocks.
func (r Round) Deliver(res query.SetResult) { r.res <- res }

// Batch is one stream's rounds sealed by a single Due call, in instant
// order, with the stream's route as it stood then. More than one round
// seals at once only when the clock is already past several of a
// stream's instants: a stream posed while a lease was under way.
type Batch struct {
	*Stream
	route  route
	Rounds []Round
}

// Streams is the set of standing specs one round clock drives. The zero
// value is ready to use.
type Streams struct {
	mu      sync.Mutex
	list    []*Stream
	closed  bool
	skipped atomic.Uint64 // rounds skipped for readers streamBuffer behind
}

// Open registers a continuous spec posed at virtual time now: its first
// round falls one period later, its last at or before now+Until. The
// returned channel yields the merged rounds in sequence and closes after
// the horizon, when ctx ends, or on Close.
func (ss *Streams) Open(ctx context.Context, spec query.Spec, r route, now simtime.Time) (<-chan query.SetResult, error) {
	c := spec.Continuous
	st := &Stream{
		Spec: spec, route: r, ctx: ctx,
		every:    simtime.Time(c.Every),
		next:     now + simtime.Time(c.Every),
		inflight: make(chan chan query.SetResult, streamBuffer),
		out:      make(chan query.SetResult),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	if c.Until > 0 {
		st.until = now + simtime.Time(c.Until)
		if st.next > st.until {
			close(st.out)
			return st.out, nil
		}
	}
	ss.mu.Lock()
	if ss.closed {
		ss.mu.Unlock()
		return nil, ErrClosed
	}
	ss.list = append(ss.list, st)
	ss.mu.Unlock()
	go st.deliver()
	// Prompt, leak-free cancellation even if the clock never moves again.
	go func() {
		select {
		case <-ctx.Done():
			ss.remove(st)
		case <-st.done:
		}
	}()
	return st.out, nil
}

// Due seals every round whose instant is at or before now — the instant
// the caller's clock is about to reach — and returns them per stream, in
// registration order. Streams whose context has ended are dropped;
// streams whose horizon has passed finish: the rounds they sealed still
// deliver, then their channel closes.
func (ss *Streams) Due(now simtime.Time) []Batch {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var batches []Batch
	live := ss.list[:0]
	for _, st := range ss.list {
		if st.ctx.Err() != nil {
			st.abort()
			continue
		}
		var rounds []Round
		for st.next <= now && (st.until == 0 || st.next <= st.until) {
			// Due is inflight's only sender and holds mu, so a send the
			// length check admits never blocks.
			if len(st.inflight) < cap(st.inflight) {
				res := make(chan query.SetResult, 1)
				st.inflight <- res
				rounds = append(rounds, Round{Seq: st.seq, At: st.next, res: res})
				st.seq++
			} else {
				ss.skipped.Add(1)
			}
			st.next += st.every
		}
		if len(rounds) > 0 {
			batches = append(batches, Batch{st, st.route, rounds})
		}
		if st.until > 0 && st.next > st.until {
			// Horizon passed: the sealed rounds still deliver, then out
			// closes. The stream leaves the list, so this runs once.
			close(st.inflight)
			continue
		}
		live = append(live, st)
	}
	clear(ss.list[len(live):])
	ss.list = live
	return batches
}

// Next reports the earliest instant a live stream is due, if any: the
// furthest the engine's next lease may step.
func (ss *Streams) Next() (simtime.Time, bool) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	var next simtime.Time
	ok := false
	for _, st := range ss.list {
		if st.ctx.Err() == nil && (!ok || st.next < next) {
			next, ok = st.next, true
		}
	}
	return next, ok
}

// Skipped reports how many rounds Due has skipped because their reader
// was streamBuffer rounds behind.
func (ss *Streams) Skipped() uint64 { return ss.skipped.Load() }

// Each calls fn on every live stream under the schedule lock: the engine
// re-routes streams after a topology change, owners checkpoint the
// schedule.
func (ss *Streams) Each(fn func(*Stream)) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, st := range ss.list {
		fn(st)
	}
}

// Close aborts every stream and refuses new ones.
func (ss *Streams) Close() {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	ss.closed = true
	for _, st := range ss.list {
		st.abort()
	}
	ss.list = nil
}

func (ss *Streams) remove(st *Stream) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	if i := slices.Index(ss.list, st); i >= 0 {
		ss.list = slices.Delete(ss.list, i, i+1)
	}
	st.abort()
}
