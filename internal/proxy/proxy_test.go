package proxy

import (
	"math"
	"slices"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/gen"
	"presto/internal/mote"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// rig wires one proxy to one mote over a lossless link.
type rig struct {
	sim   *simtime.Simulator
	med   *radio.Medium
	proxy *Proxy
	mote  *mote.Mote
	trace *gen.Trace
}

func newRig(t *testing.T, mutateMote func(*mote.Config), trace *gen.Trace) *rig {
	t.Helper()
	sim := simtime.New(1)
	rcfg := radio.DefaultConfig()
	rcfg.LossProb = 0
	rcfg.JitterMax = 0
	med, err := radio.NewMedium(sim, rcfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(sim, med, DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	mc := mote.DefaultConfig(1, 100)
	mc.Flash = flash.Geometry{PageSize: 240, PagesPerBlock: 8, NumBlocks: 64}
	if mutateMote != nil {
		mutateMote(&mc)
	}
	sampler := func(ts simtime.Time) float64 { return trace.Value(ts) }
	m, err := mote.New(sim, med, energy.DefaultParams(), mc, sampler)
	if err != nil {
		t.Fatal(err)
	}
	p.Register(1, mc.SampleInterval, mc.Delta)
	return &rig{sim: sim, med: med, proxy: p, mote: m, trace: trace}
}

func diurnalTrace(t *testing.T, days int) *gen.Trace {
	t.Helper()
	c := gen.DefaultTempConfig()
	c.Days = days
	c.EventsPerDay = 0
	c.NoiseStd = 0.05
	traces, err := gen.Temperature(c)
	if err != nil {
		t.Fatal(err)
	}
	return traces[0]
}

func TestPushesPopulateCache(t *testing.T) {
	r := newRig(t, func(c *mote.Config) { c.Delta = 0.5 }, diurnalTrace(t, 2))
	r.mote.Start()
	r.sim.RunFor(24 * time.Hour)
	s, ok := r.proxy.Series(1)
	if !ok {
		t.Fatal("series missing")
	}
	st := s.Stats()
	if st.Confirmed == 0 {
		t.Fatal("no pushed entries reached the cache")
	}
	if r.proxy.Stats().PushesReceived == 0 {
		t.Fatal("stats missing pushes")
	}
}

func TestQueryNowFromModel(t *testing.T) {
	// Precision >= delta: answers come from cache or model instantly.
	r := newRig(t, func(c *mote.Config) { c.Delta = 1.0 }, diurnalTrace(t, 2))
	r.mote.Start()
	r.sim.RunFor(12 * time.Hour)
	var ans Answer
	done := false
	r.proxy.QueryNow(1, 1.0, func(a Answer) { ans = a; done = true })
	if !done {
		t.Fatal("model/cache answer should be synchronous")
	}
	if ans.Source != FromCache && ans.Source != FromModel {
		t.Fatalf("source=%v, want cache or model", ans.Source)
	}
	if ans.Latency() != 0 {
		t.Fatalf("latency %v, want 0 for local answer", ans.Latency())
	}
	v, ok := ans.Value()
	if !ok {
		t.Fatal("no value")
	}
	truth := r.trace.Value(r.sim.Now())
	if math.Abs(v-truth) > 1.0+0.01 {
		t.Fatalf("answer %.3f vs truth %.3f exceeds delta", v, truth)
	}
}

func TestQueryTighterThanDeltaPulls(t *testing.T) {
	// Precision < delta: the proxy must pull from the archive.
	r := newRig(t, func(c *mote.Config) { c.Delta = 2.0 }, diurnalTrace(t, 2))
	r.mote.Start()
	r.sim.RunFor(6 * time.Hour)
	var ans Answer
	done := false
	past := r.sim.Now() - 2*simtime.Hour
	r.proxy.QueryPoint(1, past, 0.1, func(a Answer) { ans = a; done = true })
	if done {
		t.Fatal("pull answer arrived synchronously")
	}
	r.sim.RunFor(time.Minute)
	if !done {
		t.Fatal("pull never completed")
	}
	if ans.Source != FromPull {
		t.Fatalf("source=%v, want pull", ans.Source)
	}
	if ans.Latency() <= 0 {
		t.Fatal("pull latency should be positive")
	}
	v, _ := ans.Value()
	truth := r.trace.Value(past)
	if math.Abs(v-truth) > 0.2 {
		t.Fatalf("pulled answer %.3f vs truth %.3f", v, truth)
	}
	if r.proxy.Stats().PullsIssued != 1 {
		t.Fatalf("pulls issued %d", r.proxy.Stats().PullsIssued)
	}
	// The pull refined the cache: repeating the query hits.
	done = false
	r.proxy.QueryPoint(1, past, 0.1, func(a Answer) { ans = a; done = true })
	if !done || ans.Source != FromCache {
		t.Fatalf("repeat query source=%v done=%v, want synchronous cache hit", ans.Source, done)
	}
}

func TestConcurrentColdPullsCoalesce(t *testing.T) {
	// N back-to-back tight-precision queries on one cold mote must pay
	// exactly one archive rendezvous whose response fans out to all.
	r := newRig(t, nil, diurnalTrace(t, 2))
	r.mote.Start()
	r.sim.RunFor(4 * time.Hour)

	const N = 8
	at := 2 * simtime.Hour
	answers := make([]Answer, 0, N)
	for i := 0; i < N; i++ {
		r.proxy.QueryRange(1, at, at, 0.01, 0, nil, func(a Answer) { answers = append(answers, a) })
	}
	r.sim.RunFor(time.Minute)
	if len(answers) != N {
		t.Fatalf("%d of %d queries completed", len(answers), N)
	}
	for i, a := range answers {
		if a.Source != FromPull {
			t.Fatalf("query %d source %v, want pull", i, a.Source)
		}
		if _, ok := a.Value(); !ok {
			t.Fatalf("query %d: no value", i)
		}
	}
	if served := r.mote.Stats().PullsServed; served != 1 {
		t.Fatalf("mote served %d pulls for %d concurrent cold queries, want exactly 1", served, N)
	}
	if ps := r.proxy.Stats(); ps.PullsIssued != 1 || ps.PullsCoalesced != N-1 {
		t.Fatalf("proxy issued=%d coalesced=%d, want 1 and %d", ps.PullsIssued, ps.PullsCoalesced, N-1)
	}
}

func TestQueuedPullsMergeIntoOneFollowUp(t *testing.T) {
	// Two disjoint cold ranges: the second cannot join the first
	// rendezvous, so it queues and issues as one merged follow-up —
	// two rendezvous total, not three.
	r := newRig(t, nil, diurnalTrace(t, 2))
	r.mote.Start()
	r.sim.RunFor(6 * time.Hour)
	done := 0
	for _, at := range []simtime.Time{simtime.Hour, 3 * simtime.Hour, 4 * simtime.Hour} {
		r.proxy.QueryRange(1, at, at, 0.01, 0, nil, func(Answer) { done++ })
	}
	r.sim.RunFor(time.Minute)
	if done != 3 {
		t.Fatalf("%d of 3 queries completed", done)
	}
	if served := r.mote.Stats().PullsServed; served != 2 {
		t.Fatalf("mote served %d pulls, want 2 (first + merged follow-up)", served)
	}
	if queued := r.proxy.Stats().PullsQueued; queued != 2 {
		t.Fatalf("queued=%d, want 2", queued)
	}
}

func TestQueryRangeAssemblesEntries(t *testing.T) {
	r := newRig(t, func(c *mote.Config) { c.Delta = 1.0 }, diurnalTrace(t, 2))
	r.mote.Start()
	r.sim.RunFor(10 * time.Hour)
	t0, t1 := 2*simtime.Hour, 4*simtime.Hour
	var ans Answer
	done := false
	r.proxy.QueryRange(1, t0, t1, 1.0, 0, nil, func(a Answer) { ans = a; done = true })
	if !done {
		t.Fatal("loose-precision range query should answer synchronously")
	}
	wantLen := int((t1-t0)/simtime.Minute) + 1
	if len(ans.Entries) != wantLen {
		t.Fatalf("entries=%d, want %d", len(ans.Entries), wantLen)
	}
	// Every entry within precision of the truth.
	for _, e := range ans.Entries {
		truth := r.trace.Value(e.T)
		if math.Abs(e.V-truth) > 1.0+0.05 {
			t.Fatalf("entry at %v: %.3f vs %.3f", e.T, e.V, truth)
		}
	}
}

func TestQueryRangePullRefines(t *testing.T) {
	r := newRig(t, func(c *mote.Config) { c.Delta = 2.0 }, diurnalTrace(t, 2))
	r.mote.Start()
	r.sim.RunFor(10 * time.Hour)
	t0, t1 := 2*simtime.Hour, 3*simtime.Hour
	var ans Answer
	done := false
	r.proxy.QueryRange(1, t0, t1, 0.2, 0, nil, func(a Answer) { ans = a; done = true })
	r.sim.RunFor(time.Minute)
	if !done {
		t.Fatal("range pull never completed")
	}
	if ans.Source != FromPull {
		t.Fatalf("source=%v", ans.Source)
	}
	for _, e := range ans.Entries {
		truth := r.trace.Value(e.T)
		if math.Abs(e.V-truth) > 0.25 {
			t.Fatalf("entry at %v: %.3f vs truth %.3f (lossy pull bound)", e.T, e.V, truth)
		}
	}
}

func TestPullTimeoutFallsBack(t *testing.T) {
	r := newRig(t, func(c *mote.Config) { c.Delta = 2.0 }, diurnalTrace(t, 1))
	r.mote.Start()
	r.sim.RunFor(2 * time.Hour)
	r.mote.Stop() // mote dies
	var ans Answer
	done := false
	r.proxy.QueryPoint(1, simtime.Hour, 0.1, func(a Answer) { ans = a; done = true })
	r.sim.RunFor(time.Minute) // pull timeout is 30s
	if !done {
		t.Fatal("timeout never fired")
	}
	if ans.Source != FromTimeout {
		t.Fatalf("source=%v, want timeout", ans.Source)
	}
	if r.proxy.Stats().PullsTimedOut != 1 {
		t.Fatalf("timeouts=%d", r.proxy.Stats().PullsTimedOut)
	}
}

func TestTrainAndShipImprovesModel(t *testing.T) {
	tr := diurnalTrace(t, 4)
	r := newRig(t, func(c *mote.Config) {
		c.PushAll = true // training phase: stream everything
	}, tr)
	r.mote.Start()
	r.sim.RunFor(48 * time.Hour) // two days of training data
	m, err := r.proxy.TrainAndShip(1, 0, r.sim.Now(), 48, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "seasonal-anchored" {
		t.Fatalf("model %q", m.Name())
	}
	// Switch the mote to model-driven mode.
	if err := r.proxy.Configure(1, wire.Config{StreamAll: 2}); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(time.Minute)
	if r.mote.Model() != "seasonal-anchored" {
		t.Fatalf("mote model %q after ship", r.mote.Model())
	}
	// Model-driven phase: pushes should be rare on predictable data.
	before := r.mote.Stats().Pushes
	r.sim.RunFor(24 * time.Hour)
	pushes := r.mote.Stats().Pushes - before
	samples := uint64(24 * 60)
	if pushes > samples/10 {
		t.Fatalf("model-driven pushed %d/%d samples; model not effective", pushes, samples)
	}
	// And queries still answer within delta.
	var ans Answer
	r.proxy.QueryNow(1, 1.0, func(a Answer) { ans = a })
	v, ok := ans.Value()
	if !ok {
		t.Fatal("no answer")
	}
	truth := tr.Value(r.sim.Now())
	if math.Abs(v-truth) > 1.05 {
		t.Fatalf("answer %.3f vs truth %.3f beyond delta", v, truth)
	}
}

func TestQueryUnknownMote(t *testing.T) {
	r := newRig(t, nil, diurnalTrace(t, 1))
	done := false
	r.proxy.QueryNow(99, 1, func(a Answer) {
		done = true
		if len(a.Entries) != 0 {
			t.Error("unknown mote returned entries")
		}
	})
	if !done {
		t.Fatal("unknown-mote query should answer immediately")
	}
	if _, ok := r.proxy.Series(99); ok {
		t.Fatal("series for unknown mote")
	}
}

// TestMotesAscending: callers that publish per mote get one order on
// every run, whatever the map's iteration order.
func TestMotesAscending(t *testing.T) {
	r := newRig(t, nil, diurnalTrace(t, 1))
	for _, id := range []radio.NodeID{9, 3, 7, 2, 5} {
		r.proxy.Register(id, time.Minute, 1)
	}
	for i := 0; i < 5; i++ {
		if got := r.proxy.Motes(); !slices.Equal(got, []radio.NodeID{1, 2, 3, 5, 7, 9}) {
			t.Fatalf("Motes() = %v, want ascending ids", got)
		}
	}
}

// TestMotesSkipsReplicas: a wired replica's mirrors are another proxy's
// motes, so callers that publish per managed mote do not see them twice.
func TestMotesSkipsReplicas(t *testing.T) {
	r := newRig(t, nil, diurnalTrace(t, 1))
	r.proxy.RegisterReplica(4, time.Minute, 1)
	r.proxy.Register(2, time.Minute, 1)
	if got := r.proxy.Motes(); !slices.Equal(got, []radio.NodeID{1, 2}) {
		t.Fatalf("Motes() = %v, want the managed motes 1 and 2 only", got)
	}
	if _, ok := r.proxy.Series(4); !ok {
		t.Fatal("the replica's series is gone")
	}
}

func TestQueryRangeInverted(t *testing.T) {
	r := newRig(t, nil, diurnalTrace(t, 1))
	done := false
	r.proxy.QueryRange(1, simtime.Hour, 0, 1, 0, nil, func(a Answer) { done = true })
	if !done {
		t.Fatal("inverted range should answer immediately")
	}
}

func TestShipModelUnknownMote(t *testing.T) {
	r := newRig(t, nil, diurnalTrace(t, 1))
	if err := r.proxy.ShipModel(99, nil, 1); err == nil {
		t.Fatal("unknown mote accepted")
	}
	if _, err := r.proxy.TrainAndShip(99, 0, simtime.Hour, 24, 1); err == nil {
		t.Fatal("unknown mote accepted")
	}
	if err := r.proxy.Configure(99, wire.Config{}); err == nil {
		t.Fatal("unknown mote accepted")
	}
}

func TestAnswersBySourceAccounting(t *testing.T) {
	r := newRig(t, func(c *mote.Config) { c.Delta = 1.0 }, diurnalTrace(t, 1))
	r.mote.Start()
	r.sim.RunFor(4 * time.Hour)
	for i := 0; i < 5; i++ {
		r.proxy.QueryNow(1, 2.0, func(Answer) {})
	}
	st := r.proxy.Stats()
	if st.QueriesAnswered != 5 {
		t.Fatalf("answered=%d", st.QueriesAnswered)
	}
	var total uint64
	for _, n := range st.AnswersBySource {
		total += n
	}
	if total != 5 {
		t.Fatalf("by-source sum %d", total)
	}
}

func TestSourceString(t *testing.T) {
	for s, want := range map[Source]string{FromCache: "cache", FromModel: "model", FromPull: "pull", FromTimeout: "timeout"} {
		if s.String() != want {
			t.Errorf("%v", s)
		}
	}
	if Source(9).String() == "" {
		t.Error("unknown source")
	}
}

func TestBatchedMoteFillsCache(t *testing.T) {
	r := newRig(t, func(c *mote.Config) {
		c.PushAll = true
		c.BatchInterval = 30 * time.Minute
	}, diurnalTrace(t, 1))
	r.mote.Start()
	r.sim.RunFor(3*time.Hour + time.Minute)
	s, _ := r.proxy.Series(1)
	if s.Stats().Confirmed < 150 {
		t.Fatalf("confirmed=%d after 3h of batched streaming", s.Stats().Confirmed)
	}
	if r.proxy.Stats().BatchesReceived < 5 {
		t.Fatalf("batches=%d", r.proxy.Stats().BatchesReceived)
	}
	// Batched entries carry Pushed provenance.
	e, ok := s.At(90*simtime.Minute, time.Minute)
	if !ok || e.Source != cache.Pushed {
		t.Fatalf("entry %+v ok=%v", e, ok)
	}
}

// TestBatchBoundReachesCache: delta-coded batch values are lossy by
// quantum/2, so a range query tighter than that must not be answered
// from them at bound 0 — it pays the rendezvous for exact records.
func TestBatchBoundReachesCache(t *testing.T) {
	r := newRig(t, func(c *mote.Config) {
		c.PushAll = true
		c.BatchInterval = 30 * time.Minute
		c.Quantum = 0.05
	}, diurnalTrace(t, 1))
	r.mote.Start()
	r.sim.RunFor(3*time.Hour + time.Minute)
	s, _ := r.proxy.Series(1)
	if e, ok := s.At(90*simtime.Minute, 0); !ok || float32(e.ErrBound) != 0.025 {
		t.Fatalf("batch entry %+v ok=%v, want the delta codec's bound 0.025", e, ok)
	}
	var ans Answer
	done := false
	r.proxy.QueryRange(1, 60*simtime.Minute, 90*simtime.Minute, 0.01, 0, nil, func(a Answer) { ans = a; done = true })
	if done {
		t.Fatalf("answered synchronously from %v below the batch bound", ans.Source)
	}
	r.sim.RunFor(time.Minute)
	if !done || ans.Source != FromPull {
		t.Fatalf("done=%v source=%v, want a pull", done, ans.Source)
	}
	for _, e := range ans.Entries {
		if e.ErrBound > 0.01 {
			t.Fatalf("entry %+v looser than the precision", e)
		}
	}
}

// sumFold is a Fold that keeps what a query.Partial's mean would.
type sumFold struct {
	n           int
	sum, sumErr float64
}

func (f *sumFold) Observe(v, errBound float64) {
	f.n++
	f.sum += v
	f.sumErr += errBound
}

func (f *sumFold) ObserveRun(v, errBound float64, n int) {
	for range n {
		f.Observe(v, errBound)
	}
}

// TestQueryRangeFoldAllocs pins the range walk's cost and its two ways
// out: a 240-slot window over a sparse series (a push every ~20 slots, so
// ~95% of the slots are extrapolated — the value-driven common case) is
// allocation-free when folded and costs exactly the exact-size entries
// slice when materialised, and the fold sees the same values in the same
// order as the entries would have carried.
func TestQueryRangeFoldAllocs(t *testing.T) {
	r := newRig(t, func(c *mote.Config) { c.Delta = 1.0 }, diurnalTrace(t, 1))
	s, _ := r.proxy.Series(1)
	for i := 0; i < 240; i += 20 {
		s.Insert(cache.Entry{T: simtime.Time(i) * simtime.Minute, V: 20 + float64(i)/7, Source: cache.Pushed})
	}
	t0, t1 := simtime.Time(0), 239*simtime.Minute

	var ans Answer
	keep := func(a Answer) { ans = a }
	r.proxy.QueryRange(1, t0, t1, 1.0, 0, nil, keep)
	if len(ans.Entries) != 240 || cap(ans.Entries) != 240 {
		t.Fatalf("materialised %d entries in a slice of %d, want 240 at exact size", len(ans.Entries), cap(ans.Entries))
	}
	want := ans
	var fold sumFold
	r.proxy.QueryRange(1, t0, t1, 1.0, 0, &fold, keep)
	if ans.Entries != nil || ans.Source != want.Source || ans.Mote != 1 {
		t.Fatalf("folded answer %+v, want no entries and the materialised provenance", ans)
	}
	var ref sumFold
	for _, e := range want.Entries {
		ref.Observe(e.V, e.ErrBound)
	}
	if fold != ref {
		t.Fatalf("fold %+v differs from folding the materialised entries %+v", fold, ref)
	}
	if st := r.proxy.Stats(); st.RangeSlotsCached != 2*12 || st.RangeSlotsPredicted != 2*228 || st.QueriesAnswered != 2 {
		t.Fatalf("after two ranges: %d cached / %d predicted slots, %d answers; want 24 / 456 / 2",
			st.RangeSlotsCached, st.RangeSlotsPredicted, st.QueriesAnswered)
	}

	if n := testing.AllocsPerRun(20, func() { r.proxy.QueryRange(1, t0, t1, 1.0, 0, &fold, keep) }); n != 0 {
		t.Errorf("folded 240-slot range allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { r.proxy.QueryRange(1, t0, t1, 1.0, 0, nil, keep) }); n != 1 {
		t.Errorf("materialised 240-slot range allocates %v times, want 1 (the entries slice)", n)
	}
}
