package cache

import (
	"math/rand"
	"testing"
	"time"

	"presto/internal/model"
	"presto/internal/simtime"
)

// confirmedBefore is the allocating shared-history lookup the cursor
// replaced, kept as the reference the property test compares against: up
// to limit confirmed entries with T <= t, oldest first.
func (s *Series) confirmedBefore(t simtime.Time, limit int) []model.Record {
	if limit <= 0 {
		return nil
	}
	var out []model.Record
	hi := s.find(t + 1)
	for i := hi - 1; i >= 0 && len(out) < limit; i-- {
		if s.entries[i].Source != Predicted {
			out = append(out, model.Record{T: s.entries[i].T, V: s.entries[i].V})
		}
	}
	for i, j := 0, len(out)-1; i < j; i, j = i+1, j-1 {
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// checkCursor walks [t0, t1] at step with a cursor and, per slot, with
// the reference pair (Series.At + confirmedBefore — the loop range
// assembly ran before the cursor existed), and demands the same entry,
// the same ok and the same shared history at every slot. Shared is asked
// only on the slots `ask` picks, as range assembly asks only where it
// must predict, so the window has to catch up across skipped slots.
func checkCursor(t *testing.T, s *Series, t0, t1, step simtime.Time, maxGap time.Duration, limit int, ask func() bool) {
	t.Helper()
	buf := make([]model.Record, 0, limit)
	c := s.Cursor(t0, limit, buf)
	for slot := t0; slot <= t1; slot += step {
		we, wok := s.At(slot, maxGap)
		ge, gok := c.At(slot, maxGap)
		if we != ge || wok != gok {
			t.Fatalf("slot %v: cursor At=(%+v,%v), reference (%+v,%v)", slot, ge, gok, we, wok)
		}
		if !ask() {
			continue
		}
		want := s.confirmedBefore(slot, limit)
		got := c.Shared(slot)
		if len(got) != len(want) {
			t.Fatalf("slot %v limit %d: shared %+v, reference %+v", slot, limit, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("slot %v limit %d: shared %+v, reference %+v", slot, limit, got, want)
			}
		}
		if limit > 0 && len(got) > 0 && &got[0] != &buf[:1][0] {
			t.Fatalf("slot %v: shared window left the caller's buffer", slot)
		}
	}
}

// TestCursorMatchesReference is the property the range path rests on:
// over seeded random series the forward cursor is indistinguishable from
// a binary search plus a fresh history slice per slot.
func TestCursorMatchesReference(t *testing.T) {
	const step = simtime.Minute
	for seed := int64(0); seed < 1200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSeries()
		// Entries land on a half-step lattice so slots see exact hits,
		// equidistant neighbours (the tie goes to the earlier entry) and
		// gaps of exactly maxGap; a quarter of the series carry off-lattice
		// jitter as well. Re-inserted timestamps exercise Insert's dedup:
		// the series never holds two entries at one T.
		n := rng.Intn(60)
		if seed%17 == 0 {
			n = 0 // empty series
		}
		for i := 0; i < n; i++ {
			at := simtime.Time(rng.Intn(120)) * step / 2
			if seed%4 == 0 {
				at += simtime.Time(rng.Intn(3)) * simtime.Second
			}
			s.Insert(Entry{T: at, V: rng.NormFloat64(), Source: Source(rng.Intn(3)), ErrBound: rng.Float64()})
		}
		for i := 1; i < len(s.entries); i++ {
			if s.entries[i].T <= s.entries[i-1].T {
				t.Fatalf("seed %d: duplicate or unsorted timestamps survived Insert", seed)
			}
		}
		// Windows start before, inside and after the data, on and off the
		// grid; limit runs 0..8.
		t0 := simtime.Time(rng.Intn(90)-15) * step
		if rng.Intn(2) == 0 {
			t0 += simtime.Time(rng.Intn(int(step)))
		}
		if t0 < 0 {
			t0 = 0
		}
		if seed%13 == 0 {
			t0 += 2 * simtime.Hour // wholly after the data
		}
		t1 := t0 + simtime.Time(rng.Intn(80))*step
		maxGap := []time.Duration{0, time.Duration(step) / 2, time.Duration(step), 7 * time.Second}[rng.Intn(4)]
		askRate := rng.Float64()
		checkCursor(t, s, t0, t1, step, maxGap, int(seed%9), func() bool { return rng.Float64() < askRate })
	}
}

// TestCursorAllocFree pins the cost claim: a walk over a caller-owned
// buffer allocates nothing, however many slots ask for shared history.
func TestCursorAllocFree(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 240; i += 20 {
		s.Insert(Entry{T: simtime.Time(i) * simtime.Minute, V: float64(i), Source: Pushed})
	}
	buf := make([]model.Record, 0, 4)
	var sink float64
	allocs := testing.AllocsPerRun(50, func() {
		c := s.Cursor(0, 4, buf)
		for slot := simtime.Time(0); slot < 240*simtime.Minute; slot += simtime.Minute {
			if e, ok := c.At(slot, 30*time.Second); ok {
				sink += e.V
				continue
			}
			sink += float64(len(c.Shared(slot)))
		}
	})
	if allocs != 0 {
		t.Fatalf("cursor walk allocated %v times per run, want 0", allocs)
	}
}
