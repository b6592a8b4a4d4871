package core

// Tests for the declarative client facade: scatter-gather merge
// correctness (1 vs 4 shards), the one-engine-submission property of
// set-valued aggregates, continuous-query delivery on the simulation
// clock, and leak-free cancellation.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"presto/internal/gen"
	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// aggSpec is the shared AGG window used across the merge tests.
func aggSpec(kind query.AggKind) query.Spec {
	return query.Spec{
		Type: query.Agg, T0: simtime.Hour, T1: 3 * simtime.Hour,
		Agg: kind, Precision: 0.5,
	}
}

// TestScatterGatherOneSubmission is the acceptance property: an AGG spec
// over N motes spanning multiple domains costs exactly one engine
// submission — the per-domain partials are merged, with no per-mote
// fan-out at the client.
func TestScatterGatherOneSubmission(t *testing.T) {
	n := buildSharded(t, 4, 2, 4, nil)
	n.Start()
	n.Run(4 * time.Hour)

	before, _, _, _ := n.EngineStats()
	res, err := n.Client().QueryOne(context.Background(), aggSpec(query.Mean))
	if err != nil {
		t.Fatal(err)
	}
	after, _, _, _ := n.EngineStats()
	if got := after - before; got != 1 {
		t.Fatalf("8-mote AGG across 4 domains cost %d engine submissions, want exactly 1", got)
	}
	if res.Err != nil {
		t.Fatalf("result err: %v", res.Err)
	}
	if res.Count == 0 || math.IsNaN(res.Value) {
		t.Fatalf("empty merged aggregate: %+v", res)
	}
	if res.Failed != 0 {
		t.Fatalf("%d motes failed", res.Failed)
	}
}

// TestScatterGatherMergeMatchesFlat compares the merged scatter-gather
// answer against a flat computation over the same per-mote entries, at 1
// and 4 shards: for every operator the merged value must equal folding
// all entries into one partial, and min/max/mean must agree with the
// legacy per-entry aggregation.
func TestScatterGatherMergeMatchesFlat(t *testing.T) {
	for _, shards := range []int{1, 4} {
		n := buildSharded(t, 4, 2, shards, nil)
		n.Start()
		n.Run(4 * time.Hour)
		c := n.Client()

		// Flat reference: the same window as a Past spec yields every
		// per-mote entry the aggregate path sees; fold them sequentially.
		past, err := c.QueryOne(context.Background(), query.Spec{
			Type: query.Past, T0: simtime.Hour, T1: 3 * simtime.Hour, Precision: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(past.Results) != 8 {
			t.Fatalf("shards=%d: %d per-mote results, want 8", shards, len(past.Results))
		}
		flat := query.NewPartial(0.5)
		for _, r := range past.Results {
			flat.ObserveResult(r)
		}

		for _, kind := range []query.AggKind{query.Min, query.Max, query.Mean, query.Mode} {
			got, err := c.QueryOne(context.Background(), aggSpec(kind))
			if err != nil {
				t.Fatal(err)
			}
			want, wantBound, ferr := flat.Final(kind)
			if ferr != nil {
				t.Fatal(ferr)
			}
			tol := 0.0
			if kind == query.Mean {
				tol = 1e-9 // summation order differs across domains
			}
			if math.Abs(got.Value-want) > tol {
				t.Fatalf("shards=%d %v: merged %v vs flat %v", shards, kind, got.Value, want)
			}
			if math.Abs(got.ErrBound-wantBound) > 1e-9 {
				t.Fatalf("shards=%d %v: merged bound %v vs flat %v", shards, kind, got.ErrBound, wantBound)
			}
			if got.Count != flat.Count {
				t.Fatalf("shards=%d %v: merged count %d vs flat %d", shards, kind, got.Count, flat.Count)
			}
		}
		n.Close()
	}
}

// TestSpecSelectors exercises the three selector forms end to end.
func TestSpecSelectors(t *testing.T) {
	n := buildSharded(t, 2, 2, 2, nil)
	n.Start()
	n.Run(2 * time.Hour)
	c := n.Client()

	all, err := c.QueryOne(context.Background(), query.Spec{Type: query.Now, Precision: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Results) != 4 {
		t.Fatalf("all-motes NOW: %d results", len(all.Results))
	}
	for i, r := range all.Results {
		if want := radio.NodeID(i + 1); r.Query.Mote != want {
			t.Fatalf("result %d for mote %d, want %d (global order)", i, r.Query.Mote, want)
		}
		if _, ok := r.Answer.Value(); !ok {
			t.Fatalf("mote %d: empty answer", r.Query.Mote)
		}
	}

	some, err := c.QueryOne(context.Background(), query.Spec{
		Type: query.Now, Precision: 2, Select: query.SelectMotes(3, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(some.Results) != 2 || some.Results[0].Query.Mote != 1 || some.Results[1].Query.Mote != 3 {
		t.Fatalf("explicit selector results %+v", some.Results)
	}

	odd, err := c.QueryOne(context.Background(), query.Spec{
		Type: query.Now, Precision: 2,
		Select: query.SelectWhere(func(id radio.NodeID) bool { return id%2 == 1 }),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(odd.Results) != 2 {
		t.Fatalf("predicate selector: %d results", len(odd.Results))
	}

	// Empty selection and unknown motes are submission-time errors.
	if _, err := c.QueryOne(context.Background(), query.Spec{
		Type: query.Now, Select: query.SelectWhere(func(radio.NodeID) bool { return false }),
	}); err == nil {
		t.Fatal("empty selection accepted")
	}
	if _, err := c.QueryOne(context.Background(), query.Spec{
		Type: query.Now, Select: query.SelectMotes(99),
	}); err == nil {
		t.Fatal("unknown mote accepted")
	}
}

// TestSingleMoteNowSpecRidesReplica: a one-shot NOW spec naming one
// mote must take the wired-replica fast path — cross-domain NOW queries
// served from the replica mirror.
func TestSingleMoteNowSpecRidesReplica(t *testing.T) {
	n := buildSharded(t, 2, 2, 2, func(c *Config) { c.WiredFirstProxy = true })
	if _, err := n.Bootstrap(36*time.Hour, 24, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(4 * time.Hour)

	// Mote 3 lives in shard 1; the replica lives in shard 0.
	res, err := n.Client().QueryOne(context.Background(), query.Spec{
		Type: query.Now, Select: query.SelectMotes(3), Precision: 1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) != 1 || res.Failed != 0 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if _, ok := res.Results[0].Answer.Value(); !ok {
		t.Fatal("no value")
	}
	if _, served, _, _ := n.EngineStats(); served == 0 {
		t.Fatal("single-mote NOW spec bypassed the wired replica")
	}
}

// TestContinuousDeliversDuringRun: a standing query fires on the
// simulation clock and pushes incremental results down the stream while
// one long Run is still in flight.
func TestContinuousDeliversDuringRun(t *testing.T) {
	n := buildSharded(t, 2, 2, 2, nil)
	n.Start()
	n.Run(2 * time.Hour)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := n.Client().Query(ctx, query.Spec{
		Type: query.Now, Precision: 2,
		Continuous: &query.Continuous{Every: 10 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	runDone := make(chan struct{})
	go func() {
		n.Run(6 * time.Hour)
		close(runDone)
	}()

	var results []query.SetResult
	for len(results) < 3 {
		res, ok := st.Next(context.Background())
		if !ok {
			t.Fatal("stream closed before 3 deliveries")
		}
		results = append(results, res)
	}
	end := 8 * simtime.Hour // the 2h warmup plus the 6h Run
	for i, r := range results {
		if r.Seq != i {
			t.Fatalf("delivery %d has seq %d", i, r.Seq)
		}
		if len(r.Results) != 4 {
			t.Fatalf("delivery %d: %d per-mote results", i, len(r.Results))
		}
		// Strictly increasing virtual timestamps short of the Run's end
		// prove the rounds executed incrementally while time advanced —
		// rounds queued behind the whole Run would all share its final
		// clock.
		if i > 0 && r.At <= results[i-1].At {
			t.Fatalf("delivery %d not later than %d (%v <= %v)", i, i-1, r.At, results[i-1].At)
		}
		if r.At >= end {
			t.Fatalf("delivery %d at %v, at or past the Run's end — not incremental", i, r.At)
		}
	}
	st.Close()
	<-runDone
}

// TestContinuousUntil: a bounded standing query delivers its rounds and
// closes the stream by itself.
func TestContinuousUntil(t *testing.T) {
	n := buildSharded(t, 1, 2, 1, nil)
	n.Start()
	n.Run(time.Hour)

	st, err := n.Client().Query(context.Background(), query.Spec{
		Type: query.Agg, T0: 0, T1: simtime.Hour, Agg: query.Max, Precision: 1,
		Continuous: &query.Continuous{Every: 15 * time.Minute, Until: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	go n.Run(3 * time.Hour)
	var got int
	for res := range st.Results() {
		if res.Err != nil {
			t.Fatalf("round %d err: %v", res.Seq, res.Err)
		}
		got++
	}
	if got != 4 {
		t.Fatalf("bounded stream delivered %d rounds, want 4 (Until/Every)", got)
	}
}

// TestContinuousCancelLeaksNothing: cancelling mid-stream closes the
// channel promptly and leaves no goroutines or engine waiters behind.
func TestContinuousCancelLeaksNothing(t *testing.T) {
	n := buildSharded(t, 2, 2, 2, nil)
	n.Start()
	n.Run(time.Hour)

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	st, err := n.Client().Query(ctx, query.Spec{
		Type: query.Now, Precision: 2,
		Continuous: &query.Continuous{Every: 10 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	go n.Run(2 * time.Hour)
	// Take a few deliveries, then cancel mid-stream.
	for i := 0; i < 3; i++ {
		if _, ok := st.Next(context.Background()); !ok {
			t.Fatal("stream closed early")
		}
	}
	cancel()
	// The channel must close (the driver exits) even if nobody drains
	// further results.
	waitCtx, waitCancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer waitCancel()
	for {
		if _, ok := st.Next(waitCtx); !ok {
			break
		}
	}
	if waitCtx.Err() != nil {
		t.Fatal("stream did not close after cancel")
	}
	// Goroutines settle back to (at most) the pre-query level plus the
	// still-running Run helper.
	for i := 0; ; i++ {
		if runtime.NumGoroutine() <= base+1 {
			break
		}
		if i > 100 {
			t.Fatalf("goroutines leaked: %d now vs %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// And the engine still answers: no waiters wedged in any domain.
	if _, err := n.Client().QueryOne(context.Background(), query.Spec{Type: query.Now, Precision: 2}); err != nil {
		t.Fatalf("engine wedged after cancel: %v", err)
	}
}

// TestStandingRoundsReplay: standing rounds fire on the round clock, not
// on goroutine timing. Four domains run a standing fleet NOW and a
// trailing fleet AGG in ten-minute steps, each step followed by a
// one-shot NOW under a 30 s staleness bound, which forces a rendezvous
// and leaves that mote's domain ahead of the others. Two independent
// builds must deliver the same rounds, every one at an exact multiple of
// the period after the instant the specs were posed.
func TestStandingRoundsReplay(t *testing.T) {
	const every, steps = 10 * time.Minute, 12
	replay := func() []string {
		n := buildSharded(t, 4, 2, 4, func(c *Config) { c.WiredFirstProxy = false })
		if _, err := n.Bootstrap(36*time.Hour, 24, 1.0); err != nil {
			t.Fatal(err)
		}
		n.Run(time.Hour)
		start := n.Now()
		ctx := context.Background()
		cont := &query.Continuous{Every: every, Until: steps * every}
		var streams []*ResultStream
		for _, spec := range []query.Spec{
			{Type: query.Now, Precision: 2, Continuous: cont},
			{Type: query.Agg, Agg: query.Mean, Trailing: time.Hour, Precision: 2, Continuous: cont},
		} {
			st, err := n.Client().Query(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, st)
		}
		for i := 0; i < steps; i++ {
			n.Run(every)
			if _, err := n.Client().QueryOne(ctx, query.Spec{
				Type: query.Now, Select: query.SelectMotes(radio.NodeID(1 + i%8)),
				Precision: 2, MaxStaleness: 30 * time.Second,
			}); err != nil {
				t.Fatal(err)
			}
		}
		if n.ProxyStats().StalenessPulls == 0 {
			t.Fatal("no one-shot NOW paid a rendezvous: no domain ran ahead")
		}
		var got []string
		for si, st := range streams {
			seq := 0
			for r := range st.Results() {
				if want := start + simtime.Time(r.Seq+1)*simtime.Time(every); r.Seq != seq || r.At != want {
					t.Fatalf("stream %d: round %d delivered as seq %d at %v, want %v", si, seq, r.Seq, r.At, want)
				}
				if r.Failed != 0 {
					t.Fatalf("stream %d round %d: %d motes failed", si, r.Seq, r.Failed)
				}
				line := fmt.Sprintf("%d/%d@%d %v±%v n=%d", si, r.Seq, r.At, r.Value, r.ErrBound, r.Count)
				for _, res := range r.Results {
					line += fmt.Sprintf(" %d:%v:%v", res.Query.Mote, res.Answer.Source, res.Answer.Entries)
				}
				got = append(got, line)
				seq++
			}
			if seq != steps {
				t.Fatalf("stream %d delivered %d rounds, want %d", si, seq, steps)
			}
		}
		return got
	}
	a, b := replay(), replay()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round %d differs between two builds:\n%s\n%s", i, a[i], b[i])
		}
	}
}

// TestStandingRoundsAcrossDropDomain pins in-process elastic accounting:
// a standing spec keeps the motes it resolved when posed, so after a
// domain is dropped its rounds count that domain's motes as Failed — not
// as a whole-round SiteErrs failure — and answer from the surviving
// domain, while a one-shot spec with the same selector resolves against
// the motes still hosted and fails none.
func TestStandingRoundsAcrossDropDomain(t *testing.T) {
	n := buildSharded(t, 2, 2, 2, nil)
	n.Start()
	n.Run(2 * time.Hour)
	ctx := context.Background()
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, Trailing: time.Hour, Precision: 2}
	cont := spec
	cont.Continuous = &query.Continuous{Every: 30 * time.Minute}
	st, err := n.Client().Query(ctx, cont)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n.Run(30 * time.Minute)
	if r := <-st.Results(); r.Seq != 0 || r.Failed != 0 || len(r.SiteErrs) != 0 || r.Count == 0 {
		t.Fatalf("round 0 before the drop: %+v", r)
	}
	if err := n.DropDomain(1); err != nil {
		t.Fatal(err)
	}
	n.Run(30 * time.Minute)
	r := <-st.Results()
	if r.Seq != 1 || r.Failed != 2 || len(r.SiteErrs) != 0 || r.Err != nil || r.Count != 122 {
		t.Fatalf("round 1 after dropping domain 1: seq %d, %d failed, site errors %v, err %v, n=%d; want seq 1, 2 failed, none, nil, n=122",
			r.Seq, r.Failed, r.SiteErrs, r.Err, r.Count)
	}
	one, err := n.Client().QueryOne(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if one.Failed != 0 || len(one.SiteErrs) != 0 || one.Count != r.Count || one.Value != r.Value {
		t.Fatalf("one-shot after the drop: %d failed, site errors %v, %v (n=%d); want the round's %v (n=%d) with none failed",
			one.Failed, one.SiteErrs, one.Value, one.Count, r.Value, r.Count)
	}
}

// TestStreamSkippedRoundsCounted: a reader that stalls for more than the
// 256-round stream buffer loses rounds — sequence numbers stay dense —
// and the engine counts every skipped round once, in
// presto_stream_rounds_skipped_total.
func TestStreamSkippedRoundsCounted(t *testing.T) {
	n := buildSharded(t, 1, 1, 1, nil)
	n.Start()
	n.Run(time.Hour)
	const every, rounds = time.Minute, 300
	st, err := n.Client().Query(context.Background(), query.Spec{
		Type: query.Now, Precision: 2, Continuous: &query.Continuous{Every: every, Until: rounds * every},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(rounds * every) // nobody reads
	var seqs int
	for r := range st.Results() {
		if r.Seq != seqs {
			t.Fatalf("delivery %d has seq %d: not dense", seqs, r.Seq)
		}
		seqs++
	}
	// The buffer holds 256 sealed rounds, and the delivery goroutine one
	// more it is waiting to hand over.
	if skipped := rounds - seqs; seqs != streamBuffer+1 || n.eng.standing.Skipped() != uint64(skipped) {
		t.Fatalf("%d rounds delivered, %d counted skipped; want %d and %d",
			seqs, n.eng.standing.Skipped(), streamBuffer+1, skipped)
	}
	reg := obs.NewRegistry()
	n.RegisterMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("presto_stream_rounds_skipped_total %d\n", rounds-seqs); !strings.Contains(b.String(), want) {
		t.Fatalf("metrics lack %q", want)
	}
}

// TestTrailingWindowOneShot: a trailing spec binds [now-d, now] at the
// execution instant — identical to posing the fixed window by hand.
func TestTrailingWindowOneShot(t *testing.T) {
	n := buildSharded(t, 2, 2, 2, nil)
	n.Start()
	n.Run(3 * time.Hour)
	c := n.Client()
	now := n.Now()

	trailing, err := c.QueryOne(context.Background(), query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := c.QueryOne(context.Background(), query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 0.5, T0: now - simtime.Hour, T1: now,
	})
	if err != nil {
		t.Fatal(err)
	}
	if trailing.Err != nil || trailing.Count == 0 {
		t.Fatalf("trailing aggregate unusable: %+v", trailing)
	}
	if trailing.Value != fixed.Value || trailing.Count != fixed.Count {
		t.Fatalf("trailing (%v, n=%d) != fixed [now-1h, now] (%v, n=%d)",
			trailing.Value, trailing.Count, fixed.Value, fixed.Count)
	}
}

// TestTrailingContinuousReEvaluates: each round of a continuous trailing
// spec re-resolves the window at its own instant — per-round counts stay
// near one window's worth instead of growing with total history.
func TestTrailingContinuousReEvaluates(t *testing.T) {
	n := buildSharded(t, 2, 2, 2, nil)
	n.Start()
	n.Run(2 * time.Hour)

	st, err := n.Client().Query(context.Background(), query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: time.Hour,
		Continuous: &query.Continuous{Every: time.Hour, Until: 4 * time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	go n.Run(5 * time.Hour)
	var rounds []query.SetResult
	for res := range st.Results() {
		rounds = append(rounds, res)
	}
	if len(rounds) != 4 {
		t.Fatalf("delivered %d rounds, want 4", len(rounds))
	}
	for i, r := range rounds {
		if r.Err != nil || r.Count == 0 {
			t.Fatalf("round %d unusable: %+v", i, r)
		}
		// 4 motes x 1-minute sampling over a 1h trailing window ≈ 240
		// observations; a window anchored at zero would hold 2h+ of
		// history by round 0 and keep growing.
		if r.Count > 300 {
			t.Fatalf("round %d: %d observations — window not trailing", i, r.Count)
		}
	}
}

// TestSpecErrNoMotes: an empty selection surfaces the typed error.
func TestSpecErrNoMotes(t *testing.T) {
	n := buildSharded(t, 1, 2, 1, nil)
	n.Start()
	_, err := n.Client().Query(context.Background(), query.Spec{
		Type: query.Now, Precision: 1,
		Select: query.SelectWhere(func(radio.NodeID) bool { return false }),
	})
	if !errors.Is(err, query.ErrNoMotes) {
		t.Fatalf("got %v, want query.ErrNoMotes", err)
	}
}

// TestQueryOneOnClosedNetwork: submission after Close fails cleanly.
func TestSpecAfterClose(t *testing.T) {
	n := buildSharded(t, 1, 1, 1, nil)
	n.Start()
	n.Close()
	if _, err := n.Client().QueryOne(context.Background(), query.Spec{Type: query.Now, Precision: 1}); err == nil {
		t.Fatal("QueryOne after Close succeeded")
	}
	if _, err := n.Client().Query(context.Background(), query.Spec{
		Type: query.Now, Precision: 1, Continuous: &query.Continuous{Every: time.Minute},
	}); !errors.Is(err, ErrClosed) {
		t.Fatalf("continuous Query after Close: %v, want ErrClosed", err)
	}
}

// TestSpecValidation: invalid specs are rejected at submission.
func TestSpecSubmitValidation(t *testing.T) {
	n := buildSharded(t, 1, 1, 1, nil)
	n.Start()
	bad := []query.Spec{
		{Type: query.Past, T0: simtime.Hour, T1: 0},
		{Type: query.Agg, T1: simtime.Hour, Agg: query.AggKind(9)},
		{Type: query.Now, Continuous: &query.Continuous{Every: 0}},
	}
	for i, s := range bad {
		if _, err := n.Client().Query(context.Background(), s); err == nil {
			t.Fatalf("bad spec %d accepted", i)
		}
	}
}

// TestAggRoundFoldOrder pins the order an AGG round folds in — the
// contract store.Execute documents — one level above
// store.TestAggFoldConsultsArchiveOnce: a domain whose three motes are
// answered three ways (mote 3's delta makes it push every sample, so the
// domain's flash archive covers it; mote 2's delta meets the precision, so its proxy
// answers on the spot from cache and model; mote 1's does not, so its
// proxy pays a rendezvous — which times out, the mote being dead, and is
// answered from the model) must fold archive → synchronous → rendezvous,
// each mote's entries in time order, bit-identical to materialising the
// same answers and observing them in that order — here the reverse of
// mote order, so a fold in any other order shows in the float sums.
// Every mote is routed and counted once.
func TestAggRoundFoldOrder(t *testing.T) {
	build := func() *Network {
		n := buildSmall(t, func(c *Config) { c.Proxies, c.MotesPerProxy, c.StoreBackend = 1, 3, "flash" })
		t.Cleanup(n.Close)
		// Trained seasonal models, so the extrapolated slots of motes 1
		// and 2 are full-mantissa floats (wire values are float32: sums of
		// those alone are exact in any order), then one push threshold
		// per route.
		models, err := n.Bootstrap(24*time.Hour, 48, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		n.shards[0].call(func(s *shard) {
			for id, delta := range map[radio.NodeID]float64{1: 5, 3: 1e-9} {
				if err := s.moteProxy[id].ShipModel(id, models[id], delta); err != nil {
					t.Error(err)
				}
			}
			s.motes[0].Stop()
		})
		n.Run(4 * time.Hour)
		return n
	}
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, T0: 25 * simtime.Hour, T1: 27 * simtime.Hour, Precision: 1}

	// Reference: an identical deployment materialises the same window per
	// mote (PAST routes exactly as AGG does).
	ref := build()
	past := spec
	past.Type = query.Past
	res, err := ref.Client().QueryOne(context.Background(), past)
	if err != nil || len(res.Results) != 3 {
		t.Fatalf("reference PAST: %d results, err %v", len(res.Results), err)
	}
	for i, want := range []string{"timeout", "cache", "archive"} { // res.Results is in mote order
		if got := res.Results[i].Answer.Source.String(); got != want {
			t.Fatalf("mote %d answered from %s, want %s — the round no longer mixes all three routes", i+1, got, want)
		}
	}
	want, inMoteOrder := query.NewPartialFor(spec), query.NewPartialFor(spec)
	for i := range res.Results {
		want.ObserveResult(res.Results[2-i])
		inMoteOrder.ObserveResult(res.Results[i])
	}
	if want.Sum == inMoteOrder.Sum {
		t.Fatal("fold order does not show in this window's float sum: the test would pin nothing")
	}

	n := build()
	parts, err := n.GatherLocal(spec, []radio.NodeID{1, 2, 3})
	if err != nil || len(parts) != 1 || parts[0].Failed != 0 {
		t.Fatalf("GatherLocal: %+v, err %v", parts, err)
	}
	got := parts[0].Partial
	if got.Count != want.Count || got.Sum != want.Sum || got.SumErr != want.SumErr {
		t.Fatalf("folded round count/sum/sumErr %d/%v/%v, materialised in documented order %d/%v/%v",
			got.Count, got.Sum, got.SumErr, want.Count, want.Sum, want.SumErr)
	}
	for name, d := range map[string]*Network{"folded": n, "materialised": ref} {
		rs, ps := d.StoreStats(), d.ProxyStats()
		if rs.Routed != 2 || rs.ArchiveServed != 1 || ps.QueriesAnswered != 2 {
			t.Errorf("%s round: routed %d, archive-served %d, proxy answers %d; want 2, 1, 2",
				name, rs.Routed, rs.ArchiveServed, ps.QueriesAnswered)
		}
	}
}

// BenchmarkScatterGather prices declarative set-valued aggregates end to
// end: one AGG(mean) Spec over 1, 8 and 64 motes on a 64-mote deployment
// at 1 and 4 shards. However many motes and domains a spec spans, it
// costs a single engine submission — per-domain partials merged by the
// client — so specs/sec should degrade sublinearly in mote count and
// gain from sharding. Reports specs/sec as queries/s.
func BenchmarkScatterGather(b *testing.B) {
	const proxies, motesPer = 4, 16
	for _, shards := range []int{1, 4} {
		c := gen.DefaultTempConfig()
		c.Sensors = proxies * motesPer
		c.Days = 4
		c.Seed = 1
		traces, err := gen.Temperature(c)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Proxies = proxies
		cfg.MotesPerProxy = motesPer
		cfg.Shards = shards
		cfg.Radio.LossProb = 0
		cfg.Radio.JitterMax = 0
		cfg.Traces = traces
		n, err := Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		n.Start()
		n.Run(48 * time.Hour)
		ids := n.MoteIDs()
		for _, motes := range []int{1, 8, 64} {
			spec := query.Spec{
				Type: query.Agg, Agg: query.Mean,
				Select: query.SelectMotes(ids[:motes]...),
				T0:     2 * simtime.Hour, T1: 8 * simtime.Hour,
				Precision: 2.0,
			}
			b.Run(fmt.Sprintf("shards=%d/motes=%d", shards, motes), func(b *testing.B) {
				ctx := context.Background()
				cl := n.Client()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err := cl.QueryOne(ctx, spec)
					if err != nil {
						b.Fatal(err)
					}
					if res.Err != nil || res.Count == 0 {
						b.Fatalf("empty aggregate: %+v", res)
					}
				}
				b.StopTimer()
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			})
		}
		n.Close()
	}
}
