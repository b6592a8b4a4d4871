package simtime

import (
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestScheduleOverflowSaturates(t *testing.T) {
	s := New(1)
	s.RunUntil(Second)
	fired := false
	h := s.Schedule(math.MaxInt64, func() { fired = true })
	s.RunFor(time.Hour)
	if fired || !h.Pending() {
		t.Fatalf("overflowing delay fired=%v pending=%v after 1h, want it parked at the end of time", fired, h.Pending())
	}
	if h.ev.at != maxTime {
		t.Fatalf("overflowing delay scheduled at %v, want maxTime", h.ev.at)
	}
}

func TestRunForOverflowSaturates(t *testing.T) {
	s := New(1)
	s.RunUntil(Second)
	fired := false
	s.Schedule(time.Hour, func() { fired = true })
	s.RunFor(math.MaxInt64)
	if !fired || s.Now() != maxTime {
		t.Fatalf("RunFor(MaxInt64): fired=%v now=%v, want the event fired and the clock at maxTime", fired, s.Now())
	}
}

func TestTickerRearmSaturates(t *testing.T) {
	s := New(1)
	tk := s.EveryAt(maxTime-Second, 2*Second, func() {})
	s.RunUntil(maxTime - Second)
	if tk.Firings() != 1 {
		t.Fatalf("ticker fired %d times at maxTime-1s, want 1", tk.Firings())
	}
	if next := tk.NextFire(); next != maxTime {
		t.Fatalf("re-arm past the end of time at %v, want maxTime", next)
	}
}

func TestStaleHandleAfterReuse(t *testing.T) {
	s := New(1)
	old := s.ScheduleAt(Second, func() {})
	s.Run()
	fired := false
	cur := s.ScheduleAt(2*Second, func() { fired = true })
	if cur.ev != old.ev {
		t.Fatal("the fired event struct was not reissued")
	}
	if old.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if old.Cancel() {
		t.Fatal("stale handle cancelled its event's next occupant")
	}
	if !cur.Pending() {
		t.Fatal("new handle not pending")
	}
	s.Run()
	if !fired {
		t.Fatal("new event did not fire")
	}
}

func TestTickerStoppedInCallbackStaysStopped(t *testing.T) {
	s := New(1)
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		if tk.Firings() == 2 {
			tk.Stop()
		}
	})
	s.RunUntil(2 * Second)
	if tk.NextFire() != -1 {
		t.Fatalf("stopped ticker reports next fire %v", tk.NextFire())
	}
	// Churn the free list and a second ticker through the same instants.
	other := s.Every(time.Second, func() {})
	for i := 0; i < 50; i++ {
		s.Schedule(time.Duration(i)*100*time.Millisecond, func() {})
		s.RunFor(time.Second)
	}
	if tk.Firings() != 2 {
		t.Fatalf("ticker stopped in its own callback fired %d times, want 2", tk.Firings())
	}
	if other.Firings() != 50 {
		t.Fatalf("second ticker fired %d times, want 50", other.Firings())
	}
}

// refSim is a naive reference scheduler: pending work in a flat slice,
// the next event found by a linear scan for the least (time, seq).
type refSim struct {
	now       Time
	seq       uint64
	processed uint64
	evs       []*refEvent
}

type refEvent struct {
	at              Time
	seq             uint64
	done, cancelled bool
	fn              func()
}

func (r *refSim) scheduleAt(t Time, fn func()) *refEvent {
	if t < r.now {
		t = r.now
	}
	r.seq++
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	r.evs = append(r.evs, ev)
	return ev
}

func (r *refSim) runUntil(t Time) {
	for {
		var next *refEvent
		for _, ev := range r.evs {
			if ev.done || ev.cancelled || ev.at > t {
				continue
			}
			if next == nil || ev.at < next.at || (ev.at == next.at && ev.seq < next.seq) {
				next = ev
			}
		}
		if next == nil {
			break
		}
		next.done = true
		r.now = next.at
		r.processed++
		next.fn()
	}
	if r.now < t {
		r.now = t
	}
}

type refTicker struct {
	r       *refSim
	period  Time
	ev      *refEvent
	stopped bool
	onFire  func()
}

func (tk *refTicker) arm(at Time) {
	tk.ev = tk.r.scheduleAt(at, func() {
		tk.onFire()
		if !tk.stopped {
			tk.arm(tk.r.now + tk.period)
		}
	})
}

func (tk *refTicker) stop() {
	tk.stopped = true
	tk.ev.cancelled = true
}

// TestPropertyMatchesReference drives the kernel and refSim through the
// same seeded random mix of ScheduleAt, ScheduleCall, Cancel (of live and
// stale handles), Every, Stop and RunUntil — with callbacks that schedule
// and stop in turn — and requires the same firing log and Processed.
func TestPropertyMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, r := New(seed), &refSim{}
		type fire struct {
			id int
			at Time
		}
		var got, want []fire
		var handles []Handle
		var refs []*refEvent
		var tickers []*Ticker
		var refTickers []*refTicker
		nextID := 0

		// Both sides run the same callback body: log, and for some ids
		// schedule a child one way or the other.
		schedule := func(at Time, viaCall bool) {
			id := nextID
			nextID++
			spawn := id%4 == 0
			childAt := Time(id%7) * Millisecond
			refFn := func() {
				want = append(want, fire{id, r.now})
				if spawn {
					cid := -id - 1
					r.scheduleAt(r.now+childAt, func() { want = append(want, fire{cid, r.now}) })
				}
			}
			realFn := func() {
				got = append(got, fire{id, s.Now()})
				if spawn {
					cid := -id - 1
					s.ScheduleCall(s.Now()+childAt, func(uint64) { got = append(got, fire{cid, s.Now()}) }, 0)
				}
			}
			if viaCall {
				handles = append(handles, s.ScheduleCall(at, func(uint64) { realFn() }, uint64(id)))
			} else {
				handles = append(handles, s.ScheduleAt(at, realFn))
			}
			refs = append(refs, r.scheduleAt(at, refFn))
		}
		every := func(period Time) {
			id := nextID
			nextID++
			var tk *Ticker
			stopAt := uint64(2 + id%5)
			tk = s.Every(time.Duration(period), func() {
				got = append(got, fire{id, s.Now()})
				if id%3 == 0 && tk.Firings() == stopAt {
					tk.Stop()
				}
			})
			var n uint64
			rt := &refTicker{r: r, period: period}
			rt.onFire = func() {
				n++
				want = append(want, fire{id, r.now})
				if id%3 == 0 && n == stopAt {
					rt.stopped = true
				}
			}
			rt.arm(r.now + period)
			tickers = append(tickers, tk)
			refTickers = append(refTickers, rt)
		}

		for op := 0; op < 400; op++ {
			switch k := rng.Intn(10); {
			case k < 3:
				schedule(s.Now()+Time(rng.Intn(30)-5)*Millisecond, false)
			case k < 5:
				schedule(s.Now()+Time(rng.Intn(30)-5)*Millisecond, true)
			case k < 7 && len(handles) > 0:
				i := rng.Intn(len(handles))
				wantOK := !refs[i].done && !refs[i].cancelled
				refs[i].cancelled = true
				if ok := handles[i].Cancel(); ok != wantOK {
					t.Fatalf("seed %d op %d: Cancel(#%d)=%v, reference says %v", seed, op, i, ok, wantOK)
				}
			case k == 7 && len(tickers) < 8:
				every(Time(1+rng.Intn(10)) * Millisecond)
			case k == 8 && len(tickers) > 0:
				i := rng.Intn(len(tickers))
				tickers[i].Stop()
				if !refTickers[i].stopped {
					refTickers[i].stop()
				}
			default:
				until := s.Now() + Time(rng.Intn(20))*Millisecond
				s.RunUntil(until)
				r.runUntil(until)
			}
		}
		s.RunUntil(s.Now() + Second)
		r.runUntil(r.now + Second)

		if len(got) != len(want) {
			t.Fatalf("seed %d: kernel fired %d events, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
		if s.Processed() != r.processed || s.Now() != r.now {
			t.Fatalf("seed %d: processed=%d now=%v, reference %d %v", seed, s.Processed(), s.Now(), r.processed, r.now)
		}
	}
}

func TestTickerFiringAllocFree(t *testing.T) {
	s := New(1)
	n := 0
	s.Every(time.Second, func() { n++ })
	s.RunFor(time.Second)
	if a := testing.AllocsPerRun(100, func() { s.RunFor(time.Second) }); a != 0 {
		t.Fatalf("a ticker firing allocates %v objects, want 0", a)
	}
	if n != 102 {
		t.Fatalf("ticker fired %d times, want 102", n)
	}
}

func TestScheduleCallAllocFree(t *testing.T) {
	s := New(1)
	var sum uint64
	call := func(arg uint64) { sum += arg }
	s.ScheduleCall(s.Now()+1, call, 1)
	s.Step()
	if a := testing.AllocsPerRun(100, func() {
		s.ScheduleCall(s.Now()+1, call, 2)
		s.Step()
	}); a != 0 {
		t.Fatalf("ScheduleCall+Step allocates %v objects, want 0", a)
	}
	if sum != 1+2*101 {
		t.Fatalf("calls summed %d, want %d", sum, 1+2*101)
	}
}
