package proxy_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/energy"
	"presto/internal/model"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// slotRange is the per-slot range assembly the walk replaced, kept as the
// reference: each slot of [t0, t1] looks up its nearest entry and, where
// none within half a step meets the precision, predicts on its own.
func slotRange(s *cache.Series, m model.Model, delta float64, limit int, t0, t1, step simtime.Time, precision float64) (entries []cache.Entry, predicted int) {
	c := s.Cursor(t0, limit, make([]model.Record, 0, limit))
	for t := t0; t <= t1; t += step {
		e, ok := c.At(t, time.Duration(step)/2)
		if !ok || e.ErrBound > precision {
			e = cache.Entry{T: t, V: m.Predict(t, c.Shared(t)), Source: cache.Predicted, ErrBound: delta}
			predicted++
		}
		entries = append(entries, e)
	}
	return entries, predicted
}

// walkCase is one random range question over one random cache.
type walkCase struct {
	step         simtime.Time
	mdl          model.Model
	delta        float64
	history      int
	entries      []cache.Entry
	t0, t1       simtime.Time
	precision    float64
	sparse       bool
	modelFamily  string
	offGridStart bool
}

func randomWalkCase(rng *rand.Rand, i int) walkCase {
	c := walkCase{
		step:      []simtime.Time{simtime.Minute, simtime.Minute + 1, 45 * simtime.Second}[rng.Intn(3)],
		delta:     []float64{0.5, 1, 2}[rng.Intn(3)],
		history:   1 + rng.Intn(6),
		precision: []float64{0, 0.25, 0.5, 1, 2, 4}[rng.Intn(6)],
		sparse:    rng.Intn(3) > 0,
	}
	s := model.Seasonal{Period: []simtime.Time{simtime.Day, 2 * simtime.Hour}[rng.Intn(2)], Bins: make([]float32, 1+rng.Intn(48)), Base: 20}
	for b := range s.Bins {
		s.Bins[b] = float32(rng.NormFloat64())
	}
	if rng.Intn(3) == 0 {
		s.Trend = rng.NormFloat64() * 1e-13
	}
	switch i % 4 {
	case 0:
		c.mdl = model.ConstLast{}
	case 1:
		c.mdl = &s
	case 2:
		c.mdl = &model.SeasonalAnchored{Seasonal: s, Alpha: rng.Float64()}
	default:
		c.mdl = &model.AR{Mean: 20, Coef: []float64{0.7, 0.2}, Interval: c.step}
	}
	c.modelFamily = c.mdl.Name()

	// Entries on and off the slot grid, some before t0 and after t1, some
	// at the exact midpoint between two slots (a tie nearest breaks toward
	// the earlier entry), of every provenance and a mix of bounds.
	slots := 1 + rng.Intn(300)
	c.t0 = simtime.Time(rng.Intn(3*24*60)) * c.step
	c.t1 = c.t0 + simtime.Time(slots-1)*c.step + simtime.Time(rng.Int63n(int64(c.step)))
	density := 0.9
	if c.sparse {
		density = 0.05
	}
	seen := map[simtime.Time]bool{}
	for k := -40; k < slots+40; k++ {
		if rng.Float64() >= density {
			continue
		}
		t := c.t0 + simtime.Time(k)*c.step
		switch rng.Intn(4) {
		case 0:
			t += c.step / 2
		case 1:
			t += simtime.Time(rng.Int63n(int64(c.step)))
		}
		if seen[t] {
			continue
		}
		seen[t] = true
		c.entries = append(c.entries, cache.Entry{
			T:        t,
			V:        20 + rng.NormFloat64()*3,
			Source:   cache.Source(rng.Intn(3)),
			ErrBound: []float64{0, 0, 0.25, 0.5, 1, 2}[rng.Intn(6)],
		})
	}
	if rng.Intn(4) == 0 {
		// Start off the grid, sometimes exactly between two entries.
		c.offGridStart = true
		c.t0 += simtime.Time(rng.Int63n(int64(c.step)))
		if len(c.entries) > 1 {
			j := rng.Intn(len(c.entries) - 1)
			if a, b := c.entries[j].T, c.entries[j+1].T; a < b && (b-a)%2 == 0 && (a+b)/2 <= c.t1 {
				c.t0 = (a + b) / 2
			}
		}
	}
	return c
}

// newWalkProxy serves the case's cache and model from a proxy. The mote
// is a replica mirror, so a pull resolves at once as a timeout and
// answers from the unchanged cache.
func newWalkProxy(t *testing.T, c walkCase) (*proxy.Proxy, *cache.Series) {
	t.Helper()
	sim := simtime.New(1)
	med, err := radio.NewMedium(sim, radio.DefaultConfig(), energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cfg := proxy.DefaultConfig(100)
	cfg.SharedHistory = c.history
	p, err := proxy.New(sim, med, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.RegisterReplica(1, time.Duration(c.step), c.delta)
	if err := p.ShipModel(1, c.mdl, c.delta); err != nil {
		t.Fatal(err)
	}
	s, _ := p.Series(1)
	for _, e := range c.entries {
		s.Insert(e)
	}
	return p, s
}

// samePartial compares every field of two partials bit for bit.
func samePartial(a, b query.Partial) bool {
	bits := math.Float64bits
	return a.Count == b.Count && bits(a.Sum) == bits(b.Sum) && bits(a.SumErr) == bits(b.SumErr) &&
		bits(a.Min) == bits(b.Min) && bits(a.Max) == bits(b.Max) && bits(a.MaxErr) == bits(b.MaxErr) &&
		bits(a.BinWidth) == bits(b.BinWidth) && reflect.DeepEqual(a.Hist, b.Hist)
}

func sameEntry(a, b cache.Entry) bool {
	return a.T == b.T && a.Source == b.Source &&
		math.Float64bits(a.V) == math.Float64bits(b.V) && math.Float64bits(a.ErrBound) == math.Float64bits(b.ErrBound)
}

// TestRangeWalkMatchesPerSlot answers random windows over random caches
// through the proxy's range walk and through the per-slot reference:
// the same entries with the same provenance, the same pull decision,
// the same slot accounting, and a folded Partial (histogram included)
// bit-identical to folding the reference's entries one at a time.
func TestRangeWalkMatchesPerSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	runs := 0
	for i := 0; i < 600; i++ {
		c := randomWalkCase(rng, i)
		p, s := newWalkProxy(t, c)
		want, predicted := slotRange(s, c.mdl, c.delta, c.history, c.t0, c.t1, c.step, c.precision)
		wantSrc := proxy.FromCache
		if predicted > 0 && c.delta > c.precision {
			wantSrc = proxy.FromTimeout // the replica's pull
		}

		var got proxy.Answer
		keep := func(a proxy.Answer) { got = a }
		before := p.Stats()
		p.QueryRange(1, c.t0, c.t1, c.precision, 0, nil, keep)
		if got.Source != wantSrc || len(got.Entries) != len(want) || cap(got.Entries) != len(want) {
			t.Fatalf("case %d (%+v): %d entries (cap %d) from %v, want %d from %v",
				i, c, len(got.Entries), cap(got.Entries), got.Source, len(want), wantSrc)
		}
		for k := range want {
			if !sameEntry(got.Entries[k], want[k]) {
				t.Fatalf("case %d (%s, sparse=%v, offgrid=%v): slot %d is %+v, per-slot reference %+v",
					i, c.modelFamily, c.sparse, c.offGridStart, k, got.Entries[k], want[k])
			}
		}
		after := p.Stats()
		if after.RangeSlotsPredicted-before.RangeSlotsPredicted != uint64(predicted) ||
			after.RangeSlotsCached-before.RangeSlotsCached != uint64(len(want)-predicted) {
			t.Fatalf("case %d: slot accounting %d/%d, want %d predicted of %d",
				i, after.RangeSlotsPredicted-before.RangeSlotsPredicted, after.RangeSlotsCached-before.RangeSlotsCached, predicted, len(want))
		}

		fold, ref := query.NewPartial(c.precision+0.1), query.NewPartial(c.precision+0.1)
		for _, e := range want {
			ref.Observe(e.V, e.ErrBound)
		}
		p.QueryRange(1, c.t0, c.t1, c.precision, 0, &fold, keep)
		if got.Entries != nil || got.Source != wantSrc {
			t.Fatalf("case %d: folded answer %+v", i, got)
		}
		if !samePartial(fold, ref) {
			t.Fatalf("case %d (%s, sparse=%v): walk folded %+v, per-slot reference %+v", i, c.modelFamily, c.sparse, fold, ref)
		}
		if predicted > 1 {
			runs++
		}
	}
	if runs < 100 {
		t.Fatalf("only %d cases predicted more than one slot", runs)
	}
}

// countFold counts the calls a range answer makes into its fold.
type countFold struct{ calls, slots int }

func (f *countFold) Observe(float64, float64) { f.calls++; f.slots++ }

func (f *countFold) ObserveRun(_, _ float64, n int) { f.calls++; f.slots += n }

// TestRangeWalkFoldsRuns guards the point of the walk: a 240-slot window
// with 12 pushes over ConstLast reaches the fold as the pushes and the
// runs between them, not slot by slot.
func TestRangeWalkFoldsRuns(t *testing.T) {
	c := walkCase{step: simtime.Minute, mdl: model.ConstLast{}, delta: 1, history: 4, t1: 239 * simtime.Minute, precision: 1}
	for i := 0; i < 240; i += 20 {
		c.entries = append(c.entries, cache.Entry{T: simtime.Time(i) * simtime.Minute, V: 20 + float64(i)/7, Source: cache.Pushed})
	}
	p, _ := newWalkProxy(t, c)
	var f countFold
	p.QueryRange(1, c.t0, c.t1, c.precision, 0, &f, func(proxy.Answer) {})
	if f.slots != 240 || f.calls > 25 {
		t.Fatalf("fold saw %d slots in %d calls, want 240 in at most 25", f.slots, f.calls)
	}
}

// BenchmarkProxyRange prices the proxy's range walk on its own — the hot
// path of every PAST/AGG mote the archive declines: a 240-slot window
// over a sparse series (one push per ~20 slots, the value-driven common
// case, so ~95% of the slots are model extrapolations) and over a dense
// one (every slot cached, as for a streaming mote), answered folded into
// a query.Partial (the AGG path: no entries materialised) and
// materialised as an Answer (the PAST path: one exact-size slice). The
// sparse window walks as 12 cached slots and 12 runs between them, so
// its fold makes 24 calls, not 240. Against the per-slot assembly the
// walk replaced (medians of 20 interleaved runs on a shared 2-vCPU VM):
// sparse/fold 5.0 → 1.3 µs, sparse/materialise 5.8 → 3.3 µs,
// dense/fold 4.1 → 4.1 µs, dense/materialise 5.2 → 5.6 µs.
func BenchmarkProxyRange(b *testing.B) {
	for _, series := range []struct {
		name  string
		every int
	}{{"sparse", 20}, {"dense", 1}} {
		sim := simtime.New(1)
		med, err := radio.NewMedium(sim, radio.DefaultConfig(), energy.DefaultParams())
		if err != nil {
			b.Fatal(err)
		}
		p, err := proxy.New(sim, med, proxy.DefaultConfig(100))
		if err != nil {
			b.Fatal(err)
		}
		p.Register(1, time.Minute, 1.0)
		s, _ := p.Series(1)
		for i := 0; i < 240; i += series.every {
			s.Insert(cache.Entry{T: simtime.Time(i) * simtime.Minute, V: 20 + float64(i)/7, Source: cache.Pushed})
		}
		t0, t1 := simtime.Time(0), 239*simtime.Minute
		slots := 0
		count := func(a proxy.Answer) { slots += len(a.Entries) }
		b.Run(series.name+"/fold", func(b *testing.B) {
			fold := query.NewPartialFor(query.Spec{Type: query.Agg, Agg: query.Mean})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.QueryRange(1, t0, t1, 1.0, 0, &fold, count)
			}
			if fold.Count != 240*b.N {
				b.Fatalf("folded %d entries over %d ranges", fold.Count, b.N)
			}
		})
		b.Run(series.name+"/materialise", func(b *testing.B) {
			slots = 0
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p.QueryRange(1, t0, t1, 1.0, 0, nil, count)
			}
			if slots != 240*b.N {
				b.Fatalf("materialised %d entries over %d ranges", slots, b.N)
			}
		})
	}
}
