package cache

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"presto/internal/model"
	"presto/internal/simtime"
)

func TestInsertSorted(t *testing.T) {
	s := NewSeries()
	for _, m := range []int{5, 1, 3, 2, 4} {
		s.Insert(Entry{T: simtime.Time(m) * simtime.Minute, V: float64(m), Source: Pushed})
	}
	if s.Len() != 5 {
		t.Fatalf("len=%d", s.Len())
	}
	got := s.Range(0, simtime.Hour)
	for i := 1; i < len(got); i++ {
		if got[i].T <= got[i-1].T {
			t.Fatalf("not sorted at %d", i)
		}
	}
}

func TestRefinementPriority(t *testing.T) {
	s := NewSeries()
	tt := simtime.Minute
	s.Insert(Entry{T: tt, V: 1, Source: Predicted, ErrBound: 2})
	// Pulled refines predicted.
	s.Insert(Entry{T: tt, V: 2, Source: Pulled, ErrBound: 0.1})
	e, ok := s.At(tt, 0)
	if !ok || e.V != 2 || e.Source != Pulled {
		t.Fatalf("pulled did not refine predicted: %+v", e)
	}
	// Predicted must NOT clobber pulled.
	s.Insert(Entry{T: tt, V: 3, Source: Predicted, ErrBound: 2})
	e, _ = s.At(tt, 0)
	if e.V != 2 {
		t.Fatalf("predicted clobbered pulled: %+v", e)
	}
	// Pushed beats pulled.
	s.Insert(Entry{T: tt, V: 4, Source: Pushed})
	e, _ = s.At(tt, 0)
	if e.V != 4 || e.Source != Pushed {
		t.Fatalf("pushed did not refine pulled: %+v", e)
	}
	// Equal source overwrites (fresher value).
	s.Insert(Entry{T: tt, V: 5, Source: Pushed})
	e, _ = s.At(tt, 0)
	if e.V != 5 {
		t.Fatalf("same-source overwrite failed: %+v", e)
	}
	if s.Len() != 1 {
		t.Fatalf("duplicate timestamps created entries: %d", s.Len())
	}
	if s.Stats().Refinements != 2 {
		t.Fatalf("refinements=%d, want 2", s.Stats().Refinements)
	}
}

// TestTightestConfirmedCopyWins: between two confirmed copies of one
// sample the tighter bound stays, whatever arrives later; at equal bounds
// provenance decides, and a prediction never displaces either.
func TestTightestConfirmedCopyWins(t *testing.T) {
	s := NewSeries()
	tt := simtime.Minute
	check := func(what string, v float64, src Source, bound float64) {
		t.Helper()
		e, ok := s.At(tt, 0)
		if !ok || e.V != v || e.Source != src || e.ErrBound != bound {
			t.Fatalf("%s: entry %+v, want V=%v %v bound %v", what, e, v, src, bound)
		}
	}
	s.Insert(Entry{T: tt, V: 1, Source: Pulled})
	s.Insert(Entry{T: tt, V: 2, Source: Pulled, ErrBound: 0.25})
	check("lossy pull after an exact one", 1, Pulled, 0)
	s.Insert(Entry{T: tt, V: 3, Source: Pushed, ErrBound: 0.025})
	check("lossy batch after an exact pull", 1, Pulled, 0)
	s.Insert(Entry{T: tt, V: 4, Source: Pushed})
	check("exact push after an exact pull", 4, Pushed, 0)
	s.Insert(Entry{T: tt, V: 5, Source: Pulled})
	check("exact pull after an exact push", 4, Pushed, 0)
	s.Insert(Entry{T: tt, V: 6, Source: Predicted})
	check("prediction at bound 0", 4, Pushed, 0)

	s.Insert(Entry{T: 2 * tt, V: 1, Source: Pushed, ErrBound: 0.025})
	s.Insert(Entry{T: 2 * tt, V: 2, Source: Pulled, ErrBound: 0.0125})
	if e, _ := s.At(2*tt, 0); e.V != 2 || e.Source != Pulled {
		t.Fatalf("a tighter pull did not refine a lossy batch value: %+v", e)
	}
}

func TestAtNearest(t *testing.T) {
	s := NewSeries()
	s.Insert(Entry{T: 10 * simtime.Minute, V: 10, Source: Pushed})
	s.Insert(Entry{T: 20 * simtime.Minute, V: 20, Source: Pushed})
	// 14 min is nearer to 10.
	e, ok := s.At(14*simtime.Minute, 10*time.Minute)
	if !ok || e.V != 10 {
		t.Fatalf("nearest wrong: %+v %v", e, ok)
	}
	// 16 min is nearer to 20.
	e, _ = s.At(16*simtime.Minute, 10*time.Minute)
	if e.V != 20 {
		t.Fatalf("nearest wrong: %+v", e)
	}
	// Exact midpoint ties toward earlier.
	e, _ = s.At(15*simtime.Minute, 10*time.Minute)
	if e.V != 10 {
		t.Fatalf("tie-break wrong: %+v", e)
	}
	// Outside maxGap.
	if _, ok := s.At(0, 5*time.Minute); ok {
		t.Fatal("entry outside maxGap returned")
	}
	// Empty series.
	if _, ok := NewSeries().At(0, time.Hour); ok {
		t.Fatal("empty series returned an entry")
	}
}

func TestRange(t *testing.T) {
	s := NewSeries()
	for i := 0; i < 10; i++ {
		s.Insert(Entry{T: simtime.Time(i) * simtime.Minute, V: float64(i), Source: Pushed})
	}
	got := s.Range(3*simtime.Minute, 6*simtime.Minute)
	if len(got) != 4 || got[0].V != 3 || got[3].V != 6 {
		t.Fatalf("range wrong: %+v", got)
	}
	if got := s.Range(simtime.Hour, 2*simtime.Hour); len(got) != 0 {
		t.Fatalf("out-of-range returned %d", len(got))
	}
	if got := s.Range(5*simtime.Minute, simtime.Minute); got != nil {
		t.Fatal("inverted range should be nil")
	}
}

func TestRangeReturnsCopy(t *testing.T) {
	s := NewSeries()
	s.Insert(Entry{T: simtime.Minute, V: 1, Source: Pushed})
	got := s.Range(0, simtime.Hour)
	got[0].V = 99
	e, _ := s.At(simtime.Minute, 0)
	if e.V != 1 {
		t.Fatal("Range exposed internal storage")
	}
}

func TestLastConfirmed(t *testing.T) {
	s := NewSeries()
	if _, ok := s.LastConfirmed(); ok {
		t.Fatal("empty series has confirmed entry")
	}
	s.Insert(Entry{T: simtime.Minute, V: 1, Source: Pushed})
	s.Insert(Entry{T: 2 * simtime.Minute, V: 2, Source: Predicted})
	s.Insert(Entry{T: 3 * simtime.Minute, V: 3, Source: Predicted})
	e, ok := s.LastConfirmed()
	if !ok || e.V != 1 {
		t.Fatalf("LastConfirmed=%+v, want the pushed entry", e)
	}
	s.Insert(Entry{T: 4 * simtime.Minute, V: 4, Source: Pulled})
	e, _ = s.LastConfirmed()
	if e.V != 4 {
		t.Fatalf("LastConfirmed=%+v, want pulled entry", e)
	}
}

func TestConfirmedBefore(t *testing.T) {
	s := NewSeries()
	for i := 1; i <= 6; i++ {
		src := Pushed
		if i%2 == 0 {
			src = Predicted
		}
		s.Insert(Entry{T: simtime.Time(i) * simtime.Minute, V: float64(i), Source: src})
	}
	// The point-query use of the cursor: opened at t, asked once.
	shared := func(t simtime.Time, limit int) []model.Record {
		c := s.Cursor(t, limit, nil)
		return c.Shared(t)
	}
	got := shared(5*simtime.Minute, 10)
	// Confirmed at 1,3,5 -> oldest first.
	if len(got) != 3 || got[0].V != 1 || got[2].V != 5 {
		t.Fatalf("Shared=%+v", got)
	}
	got = shared(5*simtime.Minute, 2)
	if len(got) != 2 || got[0].V != 3 || got[1].V != 5 {
		t.Fatalf("limit wrong: %+v", got)
	}
	if got := shared(simtime.Hour, 0); len(got) != 0 {
		t.Fatalf("limit 0 should be empty, got %+v", got)
	}
}

func TestConfirmedRange(t *testing.T) {
	s := NewSeries()
	s.Insert(Entry{T: simtime.Minute, V: 1, Source: Pushed})
	s.Insert(Entry{T: 2 * simtime.Minute, V: 2, Source: Predicted})
	got := s.ConfirmedRange(0, simtime.Hour)
	if len(got) != 1 || got[0].V != 1 {
		t.Fatalf("ConfirmedRange=%+v", got)
	}
}

func TestStats(t *testing.T) {
	s := NewSeries()
	s.Insert(Entry{T: 1, Source: Pushed})
	s.Insert(Entry{T: 2, Source: Predicted})
	s.Insert(Entry{T: 3, Source: Pulled})
	st := s.Stats()
	if st.Entries != 3 || st.Confirmed != 2 || st.Predicted != 1 || st.Inserts != 3 {
		t.Fatalf("stats=%+v", st)
	}
}

func TestNegativeErrBoundClamped(t *testing.T) {
	s := NewSeries()
	s.Insert(Entry{T: 1, ErrBound: -5, Source: Pushed})
	e, _ := s.At(1, 0)
	if e.ErrBound != 0 {
		t.Fatal("negative ErrBound not clamped")
	}
}

func TestSourceString(t *testing.T) {
	if Pushed.String() != "pushed" || Pulled.String() != "pulled" || Predicted.String() != "predicted" {
		t.Error("source names wrong")
	}
	if Source(9).String() == "" {
		t.Error("unknown source empty")
	}
}

// Property: after any insert sequence, entries are sorted, unique in time,
// and the strongest source at each timestamp survived.
func TestPropertyInsertInvariants(t *testing.T) {
	f := func(ops []struct {
		T   uint8
		Src uint8
	}) bool {
		s := NewSeries()
		strongest := map[simtime.Time]Source{}
		for _, op := range ops {
			tt := simtime.Time(op.T) * simtime.Second
			src := Source(op.Src % 3)
			s.Insert(Entry{T: tt, V: float64(op.T), Source: src})
			if cur, ok := strongest[tt]; !ok || src >= cur {
				strongest[tt] = src
			}
		}
		got := s.Range(0, simtime.Hour)
		if len(got) != len(strongest) {
			return false
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].T < got[j].T }) {
			return false
		}
		for _, e := range got {
			if e.Source != strongest[e.T] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(31))}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// searchInsert is Insert without its tail fast path: every entry finds
// its place by binary search.
func searchInsert(s *Series, e Entry) {
	if e.ErrBound < 0 {
		e.ErrBound = 0
	}
	i := s.find(e.T)
	if i < len(s.entries) && s.entries[i].T == e.T {
		if old := s.entries[i]; replaces(e, old) {
			if e.Source > old.Source {
				s.refinements++
			}
			s.entries[i] = e
		}
		return
	}
	s.entries = append(s.entries, Entry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = e
	s.inserts++
}

// TestInsertMatchesSearchPath feeds Insert, InsertBatch and the
// search-only reference the same mostly-ascending sequences — equal-T
// copies of mixed source and bound at the tail, out-of-order entries
// behind it — and wants identical entries and counters.
func TestInsertMatchesSearchPath(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	bounds := []float64{-1, 0, 0, 0.25, 0.5}
	for trial := 0; trial < 300; trial++ {
		var es []Entry
		tt := simtime.Time(rng.Intn(5))
		for i := 0; i < 1+rng.Intn(200); i++ {
			switch r := rng.Intn(10); {
			case r < 6: // the stream's next sample
				tt += simtime.Time(1 + rng.Intn(3))
			case r < 8: // another copy at the tail's timestamp
			default: // a late or backfilled entry
				tt -= simtime.Time(rng.Intn(int(tt) + 1))
			}
			es = append(es, Entry{T: tt, V: rng.Float64(), Source: Source(rng.Intn(3)), ErrBound: bounds[rng.Intn(len(bounds))]})
			if rng.Intn(4) == 0 { // resume ahead of everything so far
				tt += simtime.Time(rng.Intn(50))
			}
		}
		fast, batch, ref := NewSeries(), NewSeries(), NewSeries()
		for _, e := range es {
			fast.Insert(e)
			searchInsert(ref, e)
		}
		batch.InsertBatch(es)
		for name, s := range map[string]*Series{"Insert": fast, "InsertBatch": batch} {
			if !slices.Equal(s.entries, ref.entries) || s.inserts != ref.inserts || s.refinements != ref.refinements {
				t.Fatalf("trial %d: %s kept %v (inserts %d, refinements %d), search path %v (%d, %d)",
					trial, name, s.entries, s.inserts, s.refinements, ref.entries, ref.inserts, ref.refinements)
			}
		}
	}
}
