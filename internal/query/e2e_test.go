package query_test

// The query model end to end: every query type posed through the store's
// routing — the one road from a Spec to a proxy — against a real
// proxy+mote rig. An external test package, because the store imports
// query.

import (
	"errors"
	"math"
	"testing"
	"time"

	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/gen"
	"presto/internal/index"
	"presto/internal/mote"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/store"
)

// proxyStore returns a store routing to one proxy on a lossless medium,
// with the archive backend off so every query reaches the proxy.
func proxyStore(t *testing.T) (*simtime.Simulator, *radio.Medium, *proxy.Proxy, *store.Store) {
	t.Helper()
	sim := simtime.New(1)
	rcfg := radio.DefaultConfig()
	rcfg.LossProb = 0
	med, err := radio.NewMedium(sim, rcfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p, err := proxy.New(sim, med, proxy.DefaultConfig(100))
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(index.New(1), 0)
	st.SetBackend(nil)
	st.AddProxy(0, p, true)
	return sim, med, p, st
}

// End-to-end: execute all three query types against a real proxy+mote rig.
func TestExecuteEndToEnd(t *testing.T) {
	sim, med, p, st := proxyStore(t)
	cfgGen := gen.DefaultTempConfig()
	cfgGen.EventsPerDay = 0
	traces, _ := gen.Temperature(cfgGen)
	tr := traces[0]
	mc := mote.DefaultConfig(1, 100)
	mc.Flash = flash.Geometry{PageSize: 240, PagesPerBlock: 8, NumBlocks: 64}
	mc.Delta = 1.0
	m, err := mote.New(sim, med, energy.DefaultParams(), mc, func(ts simtime.Time) float64 { return tr.Value(ts) })
	if err != nil {
		t.Fatal(err)
	}
	p.Register(1, mc.SampleInterval, mc.Delta)
	st.AdoptMote(1, 0, mc.SampleInterval)
	m.Start()
	sim.RunFor(8 * time.Hour)

	one := []radio.NodeID{1}

	// NOW.
	var nowRes query.Result
	gotNow := false
	if failed := st.Execute(query.Spec{Type: query.Now, Precision: 1.5}, one, nil, nil, func(r query.Result) { nowRes = r; gotNow = true }); failed != 0 {
		t.Fatalf("NOW: %d motes failed", failed)
	}
	if !gotNow {
		t.Fatal("NOW did not answer synchronously at loose precision")
	}
	v, ok := nowRes.Answer.Value()
	if !ok || math.Abs(v-tr.Value(sim.Now())) > 1.6 {
		t.Fatalf("NOW answer %v vs truth %v", v, tr.Value(sim.Now()))
	}

	// PAST with tight precision: requires a pull.
	var pastRes query.Result
	gotPast := false
	q := query.Spec{Type: query.Past, T0: simtime.Hour, T1: 2 * simtime.Hour, Precision: 0.1}
	if failed := st.Execute(q, one, nil, nil, func(r query.Result) { pastRes = r; gotPast = true }); failed != 0 {
		t.Fatalf("PAST: %d motes failed", failed)
	}
	sim.RunFor(time.Minute)
	if !gotPast {
		t.Fatal("PAST never completed")
	}
	if len(pastRes.Answer.Entries) < 55 {
		t.Fatalf("PAST entries %d", len(pastRes.Answer.Entries))
	}
	for _, e := range pastRes.Answer.Entries {
		if math.Abs(e.V-tr.Value(e.T)) > 0.2 {
			t.Fatalf("PAST entry at %v off by %v", e.T, math.Abs(e.V-tr.Value(e.T)))
		}
	}

	// AGG mean over the same range: the entries go into the fold, the
	// result that comes back carries none.
	var aggRes query.Result
	gotAgg := false
	qa := query.Spec{Type: query.Agg, T0: simtime.Hour, T1: 2 * simtime.Hour, Precision: 0.5, Agg: query.Mean}
	fold := query.NewPartialFor(qa)
	if failed := st.Execute(qa, one, &fold, nil, func(r query.Result) { aggRes = r; gotAgg = true }); failed != 0 {
		t.Fatalf("AGG: %d motes failed", failed)
	}
	sim.RunFor(time.Minute)
	if !gotAgg {
		t.Fatal("AGG never completed")
	}
	if len(aggRes.Answer.Entries) != 0 || aggRes.Query.Mote != 1 {
		t.Fatalf("folded AGG result %+v, want mote 1 and no entries", aggRes)
	}
	mean, _, err := fold.Final(query.Mean)
	if err != nil {
		t.Fatal(err)
	}
	var truthSum float64
	n := 0
	for tt := simtime.Hour; tt <= 2*simtime.Hour; tt += simtime.Minute {
		truthSum += tr.Value(tt)
		n++
	}
	if fold.Count != n || math.Abs(mean-truthSum/float64(n)) > 0.5 {
		t.Fatalf("AGG mean %v over %d vs truth %v over %d", mean, fold.Count, truthSum/float64(n), n)
	}

	// An invalid spec fails every mote synchronously.
	if failed := st.Execute(query.Spec{Type: query.Past, T0: 5, T1: 1}, one, nil, nil, func(query.Result) { t.Error("invalid spec answered") }); failed != 1 {
		t.Fatalf("invalid spec: %d motes failed, want 1", failed)
	}
}

// TestExecuteFlagsEmptyAggregate pins the other half of the NaN bugfix:
// an AGG round that observed nothing must finish as ErrEmptyAggregate
// instead of only a bare NaN. (A mote the index routes but the proxy never
// registered yields an empty answer.)
func TestExecuteFlagsEmptyAggregate(t *testing.T) {
	sim, _, _, st := proxyStore(t)
	st.AdoptMote(99, 0, time.Minute)
	got := false
	q := query.Spec{Type: query.Agg, T0: 0, T1: simtime.Hour, Agg: query.Mean, Precision: 1}
	fold := query.NewPartialFor(q)
	if failed := st.Execute(q, []radio.NodeID{99}, &fold, nil, func(query.Result) { got = true }); failed != 0 {
		t.Fatalf("%d motes failed", failed)
	}
	sim.RunFor(time.Minute)
	if !got {
		t.Fatal("AGG never completed")
	}
	v, _, err := fold.Final(q.Agg)
	if !errors.Is(err, query.ErrEmptyAggregate) {
		t.Fatalf("empty AGG err=%v, want ErrEmptyAggregate", err)
	}
	if !math.IsNaN(v) {
		t.Fatalf("empty AGG value %v, want NaN", v)
	}
}
