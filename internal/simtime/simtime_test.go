package simtime

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroStart(t *testing.T) {
	s := New(1)
	if s.Now() != 0 {
		t.Fatalf("fresh simulator at %v, want 0", s.Now())
	}
	if s.Pending() != 0 || s.Processed() != 0 {
		t.Fatalf("fresh simulator has pending=%d processed=%d", s.Pending(), s.Processed())
	}
}

func TestScheduleOrdering(t *testing.T) {
	s := New(1)
	var order []int
	s.Schedule(3*time.Second, func() { order = append(order, 3) })
	s.Schedule(1*time.Second, func() { order = append(order, 1) })
	s.Schedule(2*time.Second, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("fired in order %v, want [1 2 3]", order)
	}
	if s.Now() != 3*Second {
		t.Fatalf("clock at %v, want 3s", s.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events fired out of order: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1)
	s.RunUntil(5 * Second)
	fired := false
	s.Schedule(-time.Hour, func() {
		fired = true
		if s.Now() != 5*Second {
			t.Errorf("negative-delay event at %v, want now (5s)", s.Now())
		}
	})
	s.Run()
	if !fired {
		t.Fatal("negative-delay event never fired")
	}
}

func TestScheduleAtPastClamped(t *testing.T) {
	s := New(1)
	s.RunUntil(10 * Second)
	var at Time
	s.ScheduleAt(3*Second, func() { at = s.Now() })
	s.Run()
	if at != 10*Second {
		t.Fatalf("past event fired at %v, want clamped to 10s", at)
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	fired := false
	h := s.Schedule(time.Second, func() { fired = true })
	if !h.Pending() {
		t.Fatal("handle should be pending before firing")
	}
	if !h.Cancel() {
		t.Fatal("first Cancel should report true")
	}
	if h.Cancel() {
		t.Fatal("second Cancel should report false")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if h.Pending() {
		t.Fatal("cancelled handle still pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	s := New(1)
	h := s.Schedule(time.Second, func() {})
	s.Run()
	if h.Cancel() {
		t.Fatal("Cancel after fire should report false")
	}
}

func TestRunUntilLeavesLaterEvents(t *testing.T) {
	s := New(1)
	early, late := false, false
	s.Schedule(1*time.Second, func() { early = true })
	s.Schedule(10*time.Second, func() { late = true })
	s.RunUntil(5 * Second)
	if !early || late {
		t.Fatalf("early=%v late=%v after RunUntil(5s)", early, late)
	}
	if s.Now() != 5*Second {
		t.Fatalf("clock at %v, want exactly 5s", s.Now())
	}
	s.Run()
	if !late {
		t.Fatal("late event lost")
	}
}

func TestRunForAdvancesRelative(t *testing.T) {
	s := New(1)
	s.RunFor(2 * time.Second)
	s.RunFor(3 * time.Second)
	if s.Now() != 5*Second {
		t.Fatalf("clock at %v, want 5s", s.Now())
	}
}

func TestEventSchedulesEvent(t *testing.T) {
	s := New(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 5 {
			s.Schedule(time.Second, recurse)
		}
	}
	s.Schedule(time.Second, recurse)
	s.Run()
	if depth != 5 {
		t.Fatalf("recursion depth %d, want 5", depth)
	}
	if s.Now() != 5*Second {
		t.Fatalf("clock at %v, want 5s", s.Now())
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	n := 0
	tk := s.Every(time.Minute, func() { n++ })
	s.RunUntil(10 * Minute)
	if n != 10 {
		t.Fatalf("ticker fired %d times in 10 min, want 10", n)
	}
	tk.Stop()
	s.RunUntil(20 * Minute)
	if n != 10 {
		t.Fatalf("stopped ticker kept firing: %d", n)
	}
	if tk.Firings() != 10 {
		t.Fatalf("Firings()=%d, want 10", tk.Firings())
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	s := New(1)
	n := 0
	var tk *Ticker
	tk = s.Every(time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	s.RunUntil(Minute)
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3 (self-stop)", n)
	}
}

func TestEveryFrom(t *testing.T) {
	s := New(1)
	var first Time = -1
	s.EveryFrom(5*time.Second, time.Minute, func() {
		if first < 0 {
			first = s.Now()
		}
	})
	s.RunUntil(2 * Minute)
	if first != 5*Second {
		t.Fatalf("first firing at %v, want 5s", first)
	}
}

func TestEveryPanicsOnNonPositive(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("Every(0) did not panic")
		}
	}()
	s.Every(0, func() {})
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		s := New(seed)
		var fires []Time
		for i := 0; i < 100; i++ {
			d := time.Duration(s.Rand().Intn(1000)) * time.Millisecond
			s.Schedule(d, func() { fires = append(fires, s.Now()) })
		}
		s.Run()
		return fires
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTimeConversions(t *testing.T) {
	tt := 90 * Minute
	if tt.Hours() != 1.5 {
		t.Errorf("Hours()=%v, want 1.5", tt.Hours())
	}
	if tt.Minutes() != 90 {
		t.Errorf("Minutes()=%v, want 90", tt.Minutes())
	}
	if tt.Seconds() != 5400 {
		t.Errorf("Seconds()=%v, want 5400", tt.Seconds())
	}
	if tt.Duration() != 90*time.Minute {
		t.Errorf("Duration()=%v, want 90m", tt.Duration())
	}
	if FromDuration(time.Hour) != Hour {
		t.Errorf("FromDuration(1h) != Hour")
	}
	if tt.String() != "1h30m0s" {
		t.Errorf("String()=%q", tt.String())
	}
}

// Property: for any batch of delays, events fire in nondecreasing time order
// and the final clock equals the max delay.
func TestPropertyMonotonicFiring(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		s := New(7)
		var fires []Time
		var max Time
		for _, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			if Time(d) > max {
				max = Time(d)
			}
			s.Schedule(d, func() { fires = append(fires, s.Now()) })
		}
		s.Run()
		for i := 1; i < len(fires); i++ {
			if fires[i] < fires[i-1] {
				return false
			}
		}
		return len(delaysMs) == 0 || s.Now() == max
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset fires exactly the complement.
func TestPropertyCancelSubset(t *testing.T) {
	f := func(cancelMask []bool) bool {
		s := New(3)
		fired := make([]bool, len(cancelMask))
		handles := make([]Handle, len(cancelMask))
		for i := range cancelMask {
			i := i
			handles[i] = s.Schedule(time.Duration(i)*time.Millisecond, func() { fired[i] = true })
		}
		for i, c := range cancelMask {
			if c {
				handles[i].Cancel()
			}
		}
		s.Run()
		for i := range cancelMask {
			if fired[i] == cancelMask[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.Schedule(time.Duration(j)*time.Millisecond, func() {})
		}
		s.Run()
	}
}

func TestNowSnapshotTracksClock(t *testing.T) {
	s := New(1)
	if s.NowSnapshot() != 0 {
		t.Fatalf("fresh snapshot %v", s.NowSnapshot())
	}
	s.Schedule(time.Second, func() {})
	s.Run()
	if s.NowSnapshot() != Second {
		t.Fatalf("snapshot %v after event, want 1s", s.NowSnapshot())
	}
	s.RunFor(2 * time.Second) // clamp with no events must also publish
	if s.NowSnapshot() != 3*Second || s.NowSnapshot() != s.Now() {
		t.Fatalf("snapshot %v, now %v, want both 3s", s.NowSnapshot(), s.Now())
	}
}
