package query

import (
	"errors"
	"maps"
	"math"
	"math/rand"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/radio"
	"presto/internal/simtime"
)

func TestSelectorResolve(t *testing.T) {
	all := []radio.NodeID{1, 2, 3, 4, 5}
	if got := SelectAll().Resolve(all); len(got) != 5 {
		t.Fatalf("SelectAll resolved %d motes", len(got))
	}
	if got := SelectMotes(4, 2).Resolve(all); len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("SelectMotes resolved %v", got)
	}
	even := SelectWhere(func(id radio.NodeID) bool { return id%2 == 0 })
	if got := even.Resolve(all); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("SelectWhere resolved %v", got)
	}
	// Predicate composes with an explicit list.
	s := Selector{Motes: []radio.NodeID{1, 2, 3}, Where: func(id radio.NodeID) bool { return id > 1 }}
	if got := s.Resolve(all); len(got) != 2 || got[0] != 2 {
		t.Fatalf("list+predicate resolved %v", got)
	}
}

func TestSpecValidate(t *testing.T) {
	good := []Spec{
		{Type: Now, Precision: 1},
		{Type: Agg, T1: simtime.Hour, Agg: Mode, Precision: 0.5},
		{Type: Now, Continuous: &Continuous{Every: time.Minute}},
		{Type: Now, Continuous: &Continuous{Every: time.Minute, Until: time.Hour}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("good %d rejected: %v", i, err)
		}
	}
	bad := []Spec{
		{Type: Past, T0: simtime.Hour, T1: 0},
		{Type: Agg, T1: simtime.Hour, Agg: AggKind(7)}, // unknown operator
		{Type: Now, Precision: -1},
		{Type: Now, Continuous: &Continuous{Every: 0}},
		{Type: Now, Continuous: &Continuous{Every: time.Minute, Until: -time.Hour}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad %d accepted", i)
		}
	}
}

// TestValidateRejectsUnknownAgg pins the bugfix: an AGG query with an
// undefined operator used to validate fine and then Aggregate returned a
// silent NaN.
func TestValidateRejectsUnknownAgg(t *testing.T) {
	q := Query{Type: Agg, Mote: 1, T1: simtime.Hour, Agg: AggKind(42)}
	if err := q.Validate(); err == nil {
		t.Fatal("unknown AggKind validated")
	}
	// Non-AGG queries do not care about the operator field.
	q = Query{Type: Now, Mote: 1, Agg: AggKind(42)}
	if err := q.Validate(); err != nil {
		t.Fatalf("NOW query rejected over unused operator: %v", err)
	}
}

// TestPartialMergeMatchesFlat is the scatter-gather merge property: for
// random entry sets and random partitions into 1..6 "domains", merging
// per-partition partials must give the same aggregate as folding every
// entry into one flat partial — for min, max, mean and mode — and the
// same answer as the legacy flat Aggregate for min/max/mean.
func TestPartialMergeMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(64)
		precision := []float64{0, 0.25, 1.0}[rng.Intn(3)]
		entries := make([]cache.Entry, n)
		for i := range entries {
			entries[i] = cache.Entry{V: math.Round(rng.NormFloat64()*400) / 100, ErrBound: rng.Float64()}
		}

		flat := NewPartial(precision)
		for _, e := range entries {
			flat.Observe(e.V, e.ErrBound)
		}

		parts := 1 + rng.Intn(6)
		partials := make([]Partial, parts)
		for i := range partials {
			partials[i] = NewPartial(precision)
		}
		for _, e := range entries {
			partials[rng.Intn(parts)].Observe(e.V, e.ErrBound)
		}
		merged := NewPartial(precision)
		for _, p := range partials {
			merged.Merge(p)
		}

		if merged.Count != flat.Count || merged.Min != flat.Min || merged.Max != flat.Max {
			t.Fatalf("trial %d: merged extrema %v/%v/%d vs flat %v/%v/%d",
				trial, merged.Min, merged.Max, merged.Count, flat.Min, flat.Max, flat.Count)
		}
		for _, kind := range []AggKind{Min, Max, Mean, Mode} {
			mv, mb, merr := merged.Final(kind)
			fv, fb, ferr := flat.Final(kind)
			if merr != nil || ferr != nil {
				t.Fatalf("trial %d %v: unexpected err %v / %v", trial, kind, merr, ferr)
			}
			tol := 0.0
			if kind == Mean {
				tol = 1e-9 // summation order differs across partitions
			}
			if math.Abs(mv-fv) > tol || math.Abs(mb-fb) > 1e-9 {
				t.Fatalf("trial %d %v: merged %v±%v vs flat %v±%v", trial, kind, mv, mb, fv, fb)
			}
		}

		// Cross-check the flat partial against a direct computation.
		lo, hi, sum := math.Inf(1), math.Inf(-1), 0.0
		for _, e := range entries {
			lo, hi, sum = math.Min(lo, e.V), math.Max(hi, e.V), sum+e.V
		}
		for kind, want := range map[AggKind]float64{Min: lo, Max: hi, Mean: sum / float64(len(entries))} {
			if fv, _, _ := flat.Final(kind); math.Abs(fv-want) > 1e-9 {
				t.Fatalf("trial %d %v: partial %v vs direct %v", trial, kind, fv, want)
			}
		}
	}
}

// TestObserveRunMatchesObserve: ObserveRun(v, bound, n) leaves a partial
// bit for bit as n Observe calls do, from random starting partials whose
// sums are large enough that each addition rounds, with and without a
// histogram.
func TestObserveRunMatchesObserve(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	mags := []float64{1, 1e3, 1e9, 1e15, 1e300}
	for trial := 0; trial < 500; trial++ {
		start := NewPartial([]float64{0, 0.25, 1}[rng.Intn(3)])
		if rng.Intn(2) == 0 {
			start.Hist = nil
		}
		for range rng.Intn(5) {
			m := mags[rng.Intn(len(mags))]
			start.Observe(rng.NormFloat64()*m, rng.Float64()*m)
		}
		m := mags[rng.Intn(len(mags))]
		v, bound := rng.NormFloat64()*m, rng.Float64()*m/float64(1+rng.Intn(1000))
		n := rng.Intn(1001)
		if trial%50 == 0 {
			n = []int{0, -1, 1, 1000}[trial/50%4]
		}

		want, got := start, start
		want.Hist, got.Hist = maps.Clone(start.Hist), maps.Clone(start.Hist)
		for range n {
			want.Observe(v, bound)
		}
		got.ObserveRun(v, bound, n)
		same := got.Count == want.Count && got.BinWidth == want.BinWidth
		for _, f := range [][2]float64{{got.Sum, want.Sum}, {got.SumErr, want.SumErr}, {got.Min, want.Min}, {got.Max, want.Max}, {got.MaxErr, want.MaxErr}} {
			same = same && math.Float64bits(f[0]) == math.Float64bits(f[1])
		}
		if !same || len(got.Hist) != len(want.Hist) || (got.Hist == nil) != (want.Hist == nil) {
			t.Fatalf("trial %d: ObserveRun(%v, %v, %d) gave %+v, %d Observe calls %+v", trial, v, bound, n, got, n, want)
		}
		for bin, c := range want.Hist {
			if got.Hist[bin] != c {
				t.Fatalf("trial %d: bin %d holds %d, want %d", trial, bin, got.Hist[bin], c)
			}
		}
	}
}

// TestPartialModeBound: the mode's combined bound must cover the true
// value of every member of the modal bin.
func TestPartialModeBound(t *testing.T) {
	p := NewPartial(1.0)
	for _, v := range []float64{2.1, 2.4, 2.6, 7.0} {
		p.Observe(v, 0.3)
	}
	v, b, err := p.Final(Mode)
	if err != nil {
		t.Fatal(err)
	}
	// Modal bin is [2, 3): center 2.5; every member within bin-half plus
	// the entry bound.
	if v != 2.5 {
		t.Fatalf("mode %v, want 2.5", v)
	}
	if want := 0.5 + 0.3; math.Abs(b-want) > 1e-12 {
		t.Fatalf("mode bound %v, want %v", b, want)
	}
}

func TestPartialEmptyAggregate(t *testing.T) {
	p := NewPartial(1)
	if _, _, err := p.Final(Mean); !errors.Is(err, ErrEmptyAggregate) {
		t.Fatalf("empty partial: err=%v, want ErrEmptyAggregate", err)
	}
	if _, _, err := p.Final(AggKind(9)); err == nil || errors.Is(err, ErrEmptyAggregate) {
		t.Fatalf("unknown kind: err=%v", err)
	}
}

func TestSpecQueryFor(t *testing.T) {
	s := Spec{Type: Agg, T0: 1, T1: simtime.Hour, Agg: Max, Precision: 0.5,
		Deadline: time.Second, MaxStaleness: time.Minute}
	q := s.QueryFor(3)
	if q.Mote != 3 || q.Type != Agg || q.T0 != 1 || q.T1 != simtime.Hour ||
		q.Agg != Max || q.Precision != 0.5 || q.Deadline != time.Second || q.MaxStaleness != time.Minute {
		t.Fatalf("QueryFor mapped %+v", q)
	}
}

func TestTrailingValidation(t *testing.T) {
	ok := Spec{Type: Agg, Agg: Mean, Trailing: time.Hour}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid trailing spec rejected: %v", err)
	}
	bad := []Spec{
		{Type: Agg, Agg: Mean, Trailing: -time.Hour},
		{Type: Now, Trailing: time.Hour},
		{Type: Agg, Agg: Mean, Trailing: time.Hour, T1: simtime.Hour},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad trailing spec %d accepted", i)
		}
	}
}

func TestBindWindow(t *testing.T) {
	s := Spec{Type: Agg, Agg: Mean, Trailing: time.Hour}
	b := s.BindWindow(3 * simtime.Hour)
	if b.T0 != 2*simtime.Hour || b.T1 != 3*simtime.Hour || b.Trailing != 0 {
		t.Fatalf("bound window [%v, %v] trailing=%v", b.T0, b.T1, b.Trailing)
	}
	// Clamped at the simulation start.
	b = s.BindWindow(30 * simtime.Minute)
	if b.T0 != 0 || b.T1 != 30*simtime.Minute {
		t.Fatalf("clamped window [%v, %v]", b.T0, b.T1)
	}
	// Fixed windows pass through untouched.
	f := Spec{Type: Past, T0: 1, T1: 2}
	if g := f.BindWindow(simtime.Hour); g.T0 != 1 || g.T1 != 2 {
		t.Fatalf("fixed window rebound to [%v, %v]", g.T0, g.T1)
	}
}

// TestMergeRoundsOrderInsensitive: the merge fold is by global domain
// order, so the result is identical however partials arrive.
func TestMergeRoundsOrderInsensitive(t *testing.T) {
	spec := Spec{Type: Agg, Agg: Mean, Precision: 0.5}
	mk := func(domain int, vals ...float64) RoundPartial {
		p := NewPartial(0.5)
		for _, v := range vals {
			p.Observe(v, 0.1)
		}
		return RoundPartial{Domain: domain, Partial: p}
	}
	a := []RoundPartial{mk(0, 1.1, 2.2), mk(1, 3.3), mk(2, 4.4, 5.5)}
	b := []RoundPartial{a[2], a[0], a[1]}
	ra := MergeRounds(spec, 0, 0, a)
	rb := MergeRounds(spec, 0, 0, b)
	if ra.Value != rb.Value || ra.ErrBound != rb.ErrBound || ra.Count != rb.Count {
		t.Fatalf("merge depends on arrival order: %+v vs %+v", ra, rb)
	}
}
