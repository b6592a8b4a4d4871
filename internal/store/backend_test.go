package store

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/index"
	"presto/internal/obs"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// onFlash runs a Backend contract test as a subtest on a default-geometry
// flash backend.
func onFlash(t *testing.T, fn func(t *testing.T, b Backend)) {
	t.Helper()
	t.Run("flash", func(t *testing.T) { fn(t, newFlash(t)) })
}

// newFlash returns an empty default-geometry flash backend.
func newFlash(t *testing.T) *FlashBackend {
	t.Helper()
	fb, err := NewFlashBackend(flash.Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

func TestBackendRoundTrip(t *testing.T) {
	onFlash(t, func(t *testing.T, b Backend) {
		const motes = 3
		for i := 0; i < 300; i++ {
			m := radio.NodeID(1 + i%motes)
			if err := b.Append(m, Record{T: simtime.Time(i) * simtime.Minute, V: float64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		// Mote 1 owns i = 0, 3, 6, ...
		recs, err := b.QueryRange(1, 0, 30*simtime.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 11 {
			t.Fatalf("got %d records, want 11", len(recs))
		}
		for i := 1; i < len(recs); i++ {
			if recs[i].T <= recs[i-1].T {
				t.Fatal("records out of time order")
			}
		}
		if recs[1].T != 3*simtime.Minute || recs[1].V != 3 {
			t.Fatalf("wrong record %+v", recs[1])
		}
		last, ok := b.Latest(2)
		if !ok || last.T != 298*simtime.Minute {
			t.Fatalf("latest for mote 2: %+v ok=%v", last, ok)
		}
		if _, ok := b.Latest(99); ok {
			t.Fatal("latest for unknown mote should miss")
		}
		if st := b.Stats(); st.Appends != 300 || st.Records != 300 {
			t.Fatalf("stats %+v", st)
		}
	})
}

func TestBackendOutOfOrderAndDedupe(t *testing.T) {
	onFlash(t, func(t *testing.T, b Backend) {
		// Pushes land first, then a lossy pull backfills — including a
		// duplicate timestamp with a looser bound, which must not replace
		// the exact value.
		must := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		must(b.Append(1, Record{T: 10 * simtime.Minute, V: 10}))
		must(b.Append(1, Record{T: 30 * simtime.Minute, V: 30}))
		must(b.Append(1, Record{T: 20 * simtime.Minute, V: 20, ErrBound: 0.5})) // backfill
		must(b.Append(1, Record{T: 10 * simtime.Minute, V: 11, ErrBound: 0.5})) // lossy duplicate
		recs, err := b.QueryRange(1, 0, simtime.Hour)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 {
			t.Fatalf("got %d records, want 3 (dedupe)", len(recs))
		}
		if recs[0].V != 10 || recs[0].ErrBound != 0 {
			t.Fatalf("exact record lost to lossy duplicate: %+v", recs[0])
		}
		if recs[1].T != 20*simtime.Minute {
			t.Fatalf("backfill missing: %+v", recs[1])
		}
		// Latest must agree with the query path on the tie: the exact
		// record wins over the equal-timestamp lossy duplicate.
		must(b.Append(1, Record{T: 30 * simtime.Minute, V: 31, ErrBound: 0.5}))
		last, ok := b.Latest(1)
		if !ok || last.V != 30 || last.ErrBound != 0 {
			t.Fatalf("Latest shadowed by lossy duplicate: %+v", last)
		}
	})
}

func TestArchiveAnswerNoDuplicateEntries(t *testing.T) {
	// A query whose T0 sits half a step off the sample grid makes two
	// adjacent slots nearest to the same archived record; the answer must
	// contain that record once, not once per slot.
	ix := index.New(1)
	st := New(ix, 0)
	st.SetBackend(newFlash(t))
	st.AdoptMote(1, 0, time.Minute)
	base := 10 * simtime.Minute
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(st.backend.Append(1, Record{T: base - simtime.Minute, V: 1}))
	must(st.backend.Append(1, Record{T: base + simtime.Minute/2, V: 2}))
	var got *query.Result
	if failed := st.Execute(query.Spec{
		Type: query.Past, T0: base, T1: base + simtime.Minute, Precision: 0.1,
	}, []radio.NodeID{1}, nil, nil, func(r query.Result) { got = &r }); failed != 0 {
		t.Fatal("mote 1 failed to route")
	}
	if got == nil {
		t.Fatal("query did not complete")
	}
	if got.Answer.Source != proxy.FromArchive {
		t.Fatalf("answer from %v, want archive", got.Answer.Source)
	}
	seen := map[simtime.Time]bool{}
	for _, e := range got.Answer.Entries {
		if seen[e.T] {
			t.Fatalf("duplicate entry at %v", e.T)
		}
		seen[e.T] = true
	}
	if len(got.Answer.Entries) != 1 {
		t.Fatalf("entries=%d, want 1 (both slots covered by one record)", len(got.Answer.Entries))
	}
}

func TestFlashBackendPageAccounting(t *testing.T) {
	fb, err := NewFlashBackend(flash.Geometry{})
	if err != nil {
		t.Fatal(err)
	}
	perPage := DefaultStoreGeometry().PageSize / flashRecSize
	for i := 0; i < perPage*3; i++ {
		if err := fb.Append(1, Record{T: simtime.Time(i) * simtime.Minute, V: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if st := fb.Stats(); st.PagesWritten != 3 {
		t.Fatalf("pages written %d, want 3 (page-append batching)", st.PagesWritten)
	}
	// One more record sits in the pending buffer — still queryable.
	if err := fb.Append(1, Record{T: simtime.Time(perPage*3) * simtime.Minute, V: 2}); err != nil {
		t.Fatal(err)
	}
	recs, err := fb.QueryRange(1, 0, simtime.Time(perPage*4)*simtime.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != perPage*3+1 {
		t.Fatalf("got %d records, want %d (pending tail included)", len(recs), perPage*3+1)
	}
	if st := fb.Stats(); st.PagesRead == 0 || st.ReadAmp() < 1 {
		t.Fatalf("query should have paid page reads: %+v", st)
	}
}

// agingModes runs a subtest per compaction aging policy.
func agingModes(t *testing.T, geo flash.Geometry, fn func(t *testing.T, fb *FlashBackend)) {
	t.Helper()
	for _, mode := range []string{AgingUniform, AgingWavelet} {
		t.Run(mode, func(t *testing.T) {
			fb, err := NewFlashBackendPolicy(geo, AgingPolicy{Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			fn(t, fb)
		})
	}
}

func TestFlashBackendCompaction(t *testing.T) {
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	agingModes(t, geo, func(t *testing.T, fb *FlashBackend) {
		perPage := geo.PageSize / flashRecSize
		capacity := perPage * geo.PagesPerBlock * geo.NumBlocks
		// Write 3x the device capacity across two motes: compaction must
		// keep absorbing the overflow.
		total := 3 * capacity
		for i := 0; i < total; i++ {
			m := radio.NodeID(1 + i%2)
			if err := fb.Append(m, Record{T: simtime.Time(i) * simtime.Minute, V: float64(i % 50)}); err != nil {
				t.Fatal(err)
			}
		}
		st := fb.Stats()
		if st.Compactions == 0 {
			t.Fatal("no compaction despite 3x capacity overwrite")
		}
		switch fb.pol.Mode {
		case AgingUniform:
			if st.Coarsened == 0 {
				t.Fatal("uniform compaction coarsened nothing")
			}
			if st.Records > uint64(capacity) {
				t.Fatalf("claims %d records stored in a %d-record device", st.Records, capacity)
			}
		case AgingWavelet:
			if st.WaveletChunks == 0 {
				t.Fatal("wavelet compaction wrote no summary chunks")
			}
		}
		// Recent history survives at full resolution.
		recent, err := fb.QueryRange(1, simtime.Time(total-60)*simtime.Minute, simtime.Time(total)*simtime.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(recent) < 25 {
			t.Fatalf("recent history lost: %d records", len(recent))
		}
		// Old history survives aged: wider bounds, but the time range is
		// still covered from the very front.
		old, err := fb.QueryRange(1, 0, simtime.Time(total/3)*simtime.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if len(old) == 0 {
			t.Fatal("old history vanished entirely")
		}
		widened := false
		for _, r := range old {
			if r.ErrBound > 0 {
				widened = true
				break
			}
		}
		if !widened {
			t.Fatal("aged records should carry widened error bounds")
		}
		// The device must also have physically erased blocks.
		if _, _, erases := fb.Device().Stats(); erases == 0 {
			t.Fatal("compaction never erased a block")
		}
	})
}

// TestNegativeTimeRefused: a record before time zero is refused before
// it is buffered (compaction cannot encode one, and would fail on it at
// every later append), so a full device fed one keeps appending and
// compacting as if it had never been offered.
func TestNegativeTimeRefused(t *testing.T) {
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	capacity := (geo.PageSize / flashRecSize) * geo.PagesPerBlock * geo.NumBlocks
	neg := Record{T: -simtime.Minute, V: 1}
	agingModes(t, geo, func(t *testing.T, fb *FlashBackend) {
		i := 0
		appendN := func(n int) {
			t.Helper()
			for end := i + n; i < end; i++ {
				if err := fb.Append(radio.NodeID(1+i%2), Record{T: simtime.Time(i) * simtime.Minute, V: float64(i % 50)}); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
		}
		appendN(capacity)
		before, pending := fb.Stats(), len(fb.log.Pending)
		var nt *NegativeTimeError
		if err := fb.Append(1, neg); !errors.As(err, &nt) || nt.Mote != 1 || nt.T != neg.T {
			t.Fatalf("negative record: err %v, want a NegativeTimeError for mote 1", err)
		}
		if fb.Stats() != before || len(fb.log.Pending) != pending {
			t.Fatalf("the refused record was counted or buffered: %+v, %d pending (was %+v, %d)", fb.Stats(), len(fb.log.Pending), before, pending)
		}
		appendN(2 * capacity)
		if st := fb.Stats(); st.Compactions <= before.Compactions || st.Dropped != 0 {
			t.Fatalf("after the refusal: %d compactions (was %d), %d dropped", st.Compactions, before.Compactions, st.Dropped)
		}
	})
}

func TestFlashBackendCompactionUnevenInterleave(t *testing.T) {
	// Regression: the compaction fit logic must account for per-mote
	// slack. An uneven interleave (one mote front-loaded, then two
	// alternating) used to make the uniform compaction output exceed one
	// block ("compaction output N exceeds block capacity") and permanently
	// wedge the device; the wavelet planner's shrink loop must absorb the
	// same shape.
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	agingModes(t, geo, func(t *testing.T, fb *FlashBackend) {
		next := simtime.Time(0)
		app := func(m radio.NodeID) {
			t.Helper()
			if err := fb.Append(m, Record{T: next, V: 1}); err != nil {
				t.Fatalf("append at %v: %v", next, err)
			}
			next += simtime.Minute
		}
		for i := 0; i < 130; i++ {
			app(3)
		}
		perPage := geo.PageSize / flashRecSize
		total := 4 * perPage * geo.PagesPerBlock * geo.NumBlocks
		for i := 0; i < total; i++ {
			app(radio.NodeID(1 + i%2))
		}
		if fb.Stats().Compactions == 0 {
			t.Fatal("compaction never ran")
		}
	})
}

// moteLessRig is a store routing mote 1 (one-minute samples) to a proxy
// that has registered it but has no mote on the medium: the flash archive
// is whatever the test appends, and every pull the proxy pays times out.
func moteLessRig(t *testing.T) (*simtime.Simulator, *proxy.Proxy, *Store) {
	t.Helper()
	sim := simtime.New(1)
	rcfg := radio.DefaultConfig()
	rcfg.LossProb = 0
	med, err := radio.NewMedium(sim, rcfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	st := New(index.New(1), 0)
	st.SetBackend(newFlash(t))
	p, err := proxy.New(sim, med, proxy.DefaultConfig(1000))
	if err != nil {
		t.Fatal(err)
	}
	st.AddProxy(0, p, true)
	p.Register(1, time.Minute, 1.0)
	st.AdoptMote(1, 0, time.Minute)
	return sim, p, st
}

func TestArchiveDeclinesStaleTail(t *testing.T) {
	// A freshness-bounded PAST query whose window tail overlaps "now" must
	// not be served from an archive whose newest record is staler than the
	// bound — even when the sample-slot coverage check would pass (the
	// half-step tolerance admits a record just under T1 while now has
	// moved past the bound). The decline falls through to the proxy path,
	// which pays the rendezvous (here: times out, as no real mote is
	// attached).
	sim, p, st := moteLessRig(t)
	// Archive minute records through 59, plus one at 59.5 min: the slot
	// grid of [30m, 60m] is fully covered (slot 60 by the 59.5m record),
	// but the archive's knowledge horizon is 59.5m.
	for i := 0; i < 60; i++ {
		if err := st.backend.Append(1, Record{T: simtime.Time(i) * simtime.Minute, V: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.backend.Append(1, Record{T: 59*simtime.Minute + simtime.Minute/2, V: 59.5}); err != nil {
		t.Fatal(err)
	}
	sim.RunFor(61 * time.Minute) // now = 61m; newest archived = 59.5m

	run := func(maxStale time.Duration) (query.Result, bool) {
		var res query.Result
		done := false
		if failed := st.Execute(query.Spec{
			Type: query.Past, T0: 30 * simtime.Minute, T1: 60 * simtime.Minute,
			Precision: 1, MaxStaleness: maxStale,
		}, []radio.NodeID{1}, nil, nil, func(r query.Result) { res = r; done = true }); failed != 0 {
			t.Fatal("mote 1 failed to route")
		}
		return res, done
	}

	// Unbounded: the archive serves the covered span synchronously.
	res, done := run(0)
	if !done || res.Answer.Source != proxy.FromArchive {
		t.Fatalf("unbounded query: done=%v source=%v, want archive", done, res.Answer.Source)
	}
	if rs := st.RoutingStats(); rs.ArchiveServed != 1 || rs.ArchiveStale != 0 {
		t.Fatalf("unbounded routing stats %+v", rs)
	}

	// Bounded at 80s: the tail overlaps now (60m + 80s >= 61m) and the
	// newest record is 90s old — the archive must decline and the proxy
	// must pay (and here lose) the rendezvous.
	res, done = run(80 * time.Second)
	sim.RunFor(time.Hour) // let the forced pull time out; now = 121m
	if res.Answer.Source == proxy.FromArchive {
		t.Fatal("stale archive served a tail-overlapping bounded query")
	}
	rs := st.RoutingStats()
	if rs.ArchiveStale != 1 {
		t.Fatalf("ArchiveStale = %d, want 1 (%+v)", rs.ArchiveStale, rs)
	}
	if ps := p.Stats(); ps.StalenessPulls != 1 {
		t.Fatalf("proxy staleness pulls %d, want 1", ps.StalenessPulls)
	}

	// Bounded at 62m (now = 121m): the tail still overlaps now, but the
	// 61.5m-old snapshot meets the bound — the archive serves again.
	res, done = run(62 * time.Minute)
	if !done || res.Answer.Source != proxy.FromArchive {
		t.Fatalf("fresh-enough query: done=%v source=%v, want archive", done, res.Answer.Source)
	}
	if rs := st.RoutingStats(); rs.ArchiveStale != 1 || rs.ArchiveServed != 2 {
		t.Fatalf("final routing stats %+v", rs)
	}
}

func TestAggFoldConsultsArchiveOnce(t *testing.T) {
	// An AGG mote routed with a fold target is routed once: when the
	// archive serves it the records fold bit-identically to materializing
	// the answer and observing it; when the archive declines — a span it
	// cannot cover, or a stale tail — the same call goes on to the proxy,
	// having read the backend once, not once for the fold attempt and
	// again for the fallback.
	sim, _, st := moteLessRig(t)
	// Minute records 0..60 with minute 45 missing: [10m, 40m] is covered,
	// [30m, 60m] passes the newest-record pre-check but has a hole.
	for i := 0; i <= 60; i++ {
		if i == 45 {
			continue
		}
		r := Record{T: simtime.Time(i) * simtime.Minute, V: 20 + float64(i)/3, ErrBound: float64(i%4) / 10}
		if err := st.backend.Append(1, r); err != nil {
			t.Fatal(err)
		}
	}
	sim.RunFor(61 * time.Minute)
	agg := func(t0, t1 simtime.Time, stale time.Duration) query.Spec {
		return query.Spec{Type: query.Agg, Agg: query.Mean, T0: t0, T1: t1, Precision: 1, MaxStaleness: stale}
	}
	one := []radio.NodeID{1}

	// Served: fold == materialize-then-observe, bit for bit. (Without a
	// fold target an AGG mote's entries come back like a PAST mote's.)
	covered := agg(10*simtime.Minute, 40*simtime.Minute, 0)
	want := query.NewPartial(1)
	if failed := st.Execute(covered, one, nil, nil, want.ObserveResult); failed != 0 {
		t.Fatal("materialized AGG failed to route")
	}
	got := query.NewPartial(1)
	answers := 0
	failed := st.Execute(covered, one, &got, nil, func(r query.Result) {
		answers++
		if len(r.Answer.Entries) != 0 || r.Answer.Source != proxy.FromArchive {
			t.Errorf("folded result %+v, want archive provenance and no entries", r.Answer)
		}
	})
	if failed != 0 || answers != 1 {
		t.Fatalf("covered AGG: failed=%d answers=%d", failed, answers)
	}
	if want.Count != 31 || !reflect.DeepEqual(got, want) {
		t.Fatalf("fold %+v differs from materialized %+v", got, want)
	}

	// Declined for coverage: one range scan, then the proxy, which answers
	// this window on the spot from its model (delta meets the precision).
	// The fold holds exactly the proxy's 31 predicted slots — none of the
	// archive's records (bounds 0..0.3) leaked in before the hole was found.
	answers = 0
	before := st.BackendStats()
	fold := query.NewPartial(1)
	if failed := st.Execute(agg(30*simtime.Minute, 60*simtime.Minute, 0), one, &fold, nil, func(query.Result) { answers++ }); failed != 0 || answers != 1 {
		t.Fatalf("uncoverable AGG: failed=%d answers=%d", failed, answers)
	}
	if fold.Count != 31 || fold.SumErr != 31 {
		t.Fatalf("declined fold holds more than the proxy's answer: %+v", fold)
	}
	after := st.BackendStats()
	if scans, latest := after.QueryRanges-before.QueryRanges, after.LatestReads-before.LatestReads; scans != 1 || latest != 1 {
		t.Fatalf("declined AGG read the backend %d range scans / %d latest reads, want 1 / 1", scans, latest)
	}

	// Declined for a stale tail (newest record 60m, now 61m, bound 30s):
	// counted once.
	if failed := st.Execute(agg(30*simtime.Minute, 61*simtime.Minute, 30*time.Second), one, &fold, nil, func(query.Result) { answers++ }); failed != 0 || answers != 1 {
		t.Fatalf("stale-tail AGG: failed=%d answers=%d before the rendezvous", failed, answers)
	}
	if rs := st.RoutingStats(); rs.ArchiveStale != 1 || rs.Routed != 2 || rs.ArchiveServed != 2 {
		t.Fatalf("routing stats %+v, want ArchiveStale 1, Routed 2, ArchiveServed 2", rs)
	}
	sim.RunFor(time.Hour) // no mote attached: the proxy's pulls time out
	if answers != 2 {
		t.Fatalf("declined queries answered %d times through the proxy, want 2", answers)
	}
	// The stale-tail window's 32 slots folded when its pull resolved.
	if fold.Count != 63 {
		t.Fatalf("proxy-answered motes folded %d entries, want 63", fold.Count)
	}
}

func TestCoarsenBoundCoversEveryMember(t *testing.T) {
	// The coarse record stands in for every member of its group, so its
	// bound must cover the worst member: |mean - V_i| + bound_i. The old
	// half-spread widening underclaimed for skewed groups like {0,10,10,10}
	// (mean 7.5, true value 0 → error 7.5 > claimed 5).
	recs := []Record{
		{T: 0, V: 0},
		{T: 1, V: 10},
		{T: 2, V: 10},
		{T: 3, V: 10, ErrBound: 0.5},
	}
	out := coarsenRecords(recs, 4)
	if len(out) != 1 {
		t.Fatalf("groups=%d, want 1", len(out))
	}
	for _, r := range recs {
		miss := out[0].V - r.V
		if miss < 0 {
			miss = -miss
		}
		if miss+r.ErrBound > out[0].ErrBound+1e-12 {
			t.Fatalf("member %+v outside coarse bound %v (mean %v)", r, out[0].ErrBound, out[0].V)
		}
	}
}

func TestFlashBackendLatestSurvivesCompaction(t *testing.T) {
	// A quiet mote's newest record can be merged away (uniform) or have
	// its value rewritten by reconstruction (wavelet); the Latest index
	// must then point at a record QueryRange can actually return — same
	// timestamp, same value, same bound — not at the pre-compaction
	// phantom.
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	agingModes(t, geo, func(t *testing.T, fb *FlashBackend) {
		// Mote 2 writes early, then goes quiet while mote 1 floods the
		// device through several compactions.
		for i := 0; i < 40; i++ {
			if err := fb.Append(2, Record{T: simtime.Time(i) * simtime.Minute, V: 2}); err != nil {
				t.Fatal(err)
			}
		}
		perPage := geo.PageSize / flashRecSize
		total := 4 * perPage * geo.PagesPerBlock * geo.NumBlocks
		for i := 0; i < total; i++ {
			if err := fb.Append(1, Record{T: simtime.Time(40+i) * simtime.Minute, V: 1}); err != nil {
				t.Fatal(err)
			}
		}
		if fb.Stats().Compactions == 0 {
			t.Fatal("compaction never ran")
		}
		last, ok := fb.Latest(2)
		if !ok {
			return // mote 2's history aged out entirely: a miss is honest
		}
		recs, err := fb.QueryRange(2, last.T, last.T)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 {
			t.Fatalf("Latest points at a phantom: %+v not returned by QueryRange", last)
		}
		if recs[0] != last {
			t.Fatalf("Latest %+v disagrees with QueryRange %+v", last, recs[0])
		}
	})
}

func TestFlashBackendShedAccounting(t *testing.T) {
	// When the device is full and compaction cannot reclaim space (here:
	// more motes than one block can hold even one record each), Append
	// sheds the oldest buffered page once the pending buffer exceeds its
	// bound. Shed records must be visible in BackendStats — counted in
	// Dropped and removed from Records — so archive-coverage ratios
	// derived from these stats aren't inflated by records the store can
	// no longer serve.
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 4, NumBlocks: 6}
	perBlock := (geo.PageSize / flashRecSize) * geo.PagesPerBlock // 48 records
	motes := perBlock + 12                                        // compaction output can never fit
	agingModes(t, geo, func(t *testing.T, fb *FlashBackend) {
		var appends uint64
		sawErr := false
		for i := 0; i < 40*motes; i++ {
			m := radio.NodeID(1 + i%motes)
			if err := fb.Append(m, Record{T: simtime.Time(i) * simtime.Minute, V: float64(m)}); err != nil {
				sawErr = true
			}
			appends++
		}
		st := fb.Stats()
		if !sawErr {
			t.Fatal("device never reported full")
		}
		if st.Dropped == 0 {
			t.Fatal("shed records invisible: Dropped == 0")
		}
		if st.Appends != appends {
			t.Fatalf("appends %d, want %d", st.Appends, appends)
		}
		// Records reflects what the store still holds: appended minus
		// merged-away minus shed.
		if want := appends - st.Coarsened - st.Dropped; st.Records != want {
			t.Fatalf("Records %d, want appends-coarsened-dropped = %d (stats %+v)", st.Records, want, st)
		}
		// The pending buffer stays bounded even though the device is
		// permanently full.
		if len(fb.log.Pending) > 4*fb.log.PerPage()+1 {
			t.Fatalf("pending buffer unbounded: %d records", len(fb.log.Pending))
		}
	})
}

// countingBackend records every range read a store makes.
type countingBackend struct {
	*FlashBackend
	reads [][]radio.NodeID
}

func (c *countingBackend) QueryRanges(ms []radio.NodeID, lo, hi []simtime.Time, out [][]Record) error {
	c.reads = append(c.reads, append([]radio.NodeID(nil), ms...))
	return c.FlashBackend.QueryRanges(ms, lo, hi, out)
}

func TestArchiveReadOncePerRound(t *testing.T) {
	// A PAST round gates every mote on RAM-only checks, reads the archive
	// once for the motes that passed, and answers in mote order: the
	// first pass's trace routes follow mote order whatever the verdicts.
	sim, p, st := moteLessRig(t)
	cb := &countingBackend{FlashBackend: newFlash(t)}
	st.SetBackend(cb)
	fill := func(m radio.NodeID, last int, hole int) {
		for i := 0; i <= last; i++ {
			if i != hole {
				if err := cb.Append(m, Record{T: simtime.Time(i) * simtime.Minute, V: float64(i)}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for m := radio.NodeID(2); m <= 4; m++ {
		p.Register(m, time.Minute, 1.0)
		st.AdoptMote(m, 0, time.Minute)
	}
	fill(1, 60, -1) // covered and fresh: served
	fill(2, 50, -1) // newest record 11 min old: stale bypass
	fill(3, 57, -1) // fresh, but cannot reach the last slot: declined unread
	fill(4, 60, 45) // read, then declined for the hole
	sim.RunFor(61 * time.Minute)

	tr := obs.NewTrace()
	spec := query.Spec{Type: query.Past, T0: 30 * simtime.Minute, T1: 60 * simtime.Minute, Precision: 1, MaxStaleness: 5 * time.Minute}
	served := 0
	if failed := st.Execute(spec, []radio.NodeID{1, 2, 3, 4}, nil, tr, func(r query.Result) {
		if r.Answer.Source == proxy.FromArchive {
			served++
		}
	}); failed != 0 {
		t.Fatalf("%d motes failed to route", failed)
	}
	if !reflect.DeepEqual(cb.reads, [][]radio.NodeID{{1, 4}}) {
		t.Fatalf("archive reads %v, want one read of motes [1 4]", cb.reads)
	}
	routes := tr.Routes()
	if len(routes) < 2 || routes[0].Mote != 1 || routes[0].Kind != obs.RouteArchiveHit ||
		routes[1].Mote != 2 || routes[1].Kind != obs.RouteStaleBypass {
		t.Fatalf("first-pass routes %+v, want mote 1 archive-hit then mote 2 stale-bypass", routes)
	}
	if rs := st.RoutingStats(); served != 1 || rs.ArchiveServed != 1 || rs.ArchiveStale != 1 || rs.Routed != 3 {
		t.Fatalf("served %d, routing stats %+v; want 1 served, 1 stale, 3 routed", served, rs)
	}
	if s := cb.Stats(); s.QueryRanges != 2 || s.LatestReads != 7 {
		t.Fatalf("backend stats %+v, want 2 range reads and 7 latest reads", s)
	}
}
