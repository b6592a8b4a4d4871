package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

	"presto/internal/baseline"
	"presto/internal/gen"
	"presto/internal/predict"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

func tempTraces(t *testing.T, n, days int, eventsPerDay float64) []*gen.Trace {
	t.Helper()
	c := gen.DefaultTempConfig()
	c.Sensors = n
	c.Days = days
	c.EventsPerDay = eventsPerDay
	traces, err := gen.Temperature(c)
	if err != nil {
		t.Fatal(err)
	}
	return traces
}

// queryMote poses a one-shot NOW or PAST spec against a single mote
// through the Client and returns that mote's result.
func queryMote(n *Network, mote radio.NodeID, spec query.Spec) (query.Result, error) {
	spec.Select = query.SelectMotes(mote)
	res, err := n.Client().QueryOne(context.Background(), spec)
	if err != nil {
		return query.Result{}, err
	}
	if len(res.Results) != 1 {
		return query.Result{}, fmt.Errorf("mote %d: query never completed", mote)
	}
	return res.Results[0], nil
}

func buildSmall(t *testing.T, mutate func(*Config)) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Proxies = 2
	cfg.MotesPerProxy = 2
	cfg.Traces = tempTraces(t, 4, 4, 0)
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestValidate(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err == nil {
		t.Error("missing traces accepted")
	}
	cfg.Traces = tempTraces(t, 4, 1, 0)
	if err := cfg.Validate(); err != nil {
		t.Error(err)
	}
	cfg.Proxies = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero proxies accepted")
	}
	cfg = DefaultConfig()
	cfg.Traces = tempTraces(t, 4, 1, 0)
	cfg.SampleInterval = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero sample interval accepted")
	}
}

func TestBuildTopology(t *testing.T) {
	n := buildSmall(t, nil)
	if len(n.Proxies) != 2 || len(n.Motes) != 4 {
		t.Fatalf("proxies=%d motes=%d", len(n.Proxies), len(n.Motes))
	}
	// Mote 1,2 -> proxy 0; mote 3,4 -> proxy 1.
	p, err := n.ProxyFor(1)
	if err != nil || p != n.Proxies[0] {
		t.Fatal("mote 1 routing")
	}
	p, err = n.ProxyFor(3)
	if err != nil || p != n.Proxies[1] {
		t.Fatal("mote 3 routing")
	}
	if _, err := n.ProxyFor(99); err == nil {
		t.Fatal("unknown mote routed")
	}
	ids := n.MoteIDs()
	if len(ids) != 4 || ids[0] != 1 || ids[3] != 4 {
		t.Fatalf("mote ids %v", ids)
	}
}

func TestStartAndRun(t *testing.T) {
	n := buildSmall(t, nil)
	n.Start()
	n.Start() // idempotent
	n.Run(2 * time.Hour)
	if n.Now() != 2*simtime.Hour {
		t.Fatalf("now=%v", n.Now())
	}
	st, err := n.MoteStats(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Samples != 120 {
		t.Fatalf("samples=%d", st.Samples)
	}
}

func TestBootstrapTrainsAndSwitches(t *testing.T) {
	n := buildSmall(t, nil)
	models, err := n.Bootstrap(36*time.Hour, 48, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 4 {
		t.Fatalf("models=%d", len(models))
	}
	for id, m := range models {
		if m.Name() != "seasonal-anchored" {
			t.Fatalf("mote %d model %q", id, m.Name())
		}
	}
	// After bootstrap, motes are in model-driven mode: push rate over the
	// next day must be far below 1 push/sample.
	before, _ := n.MoteStats(1)
	n.Run(24 * time.Hour)
	after, _ := n.MoteStats(1)
	pushes := after.Pushes - before.Pushes
	if pushes > 24*60/5 {
		t.Fatalf("model-driven mote pushed %d times in a day", pushes)
	}
}

func TestQueriesThroughStore(t *testing.T) {
	n := buildSmall(t, nil)
	if _, err := n.Bootstrap(24*time.Hour, 24, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(6 * time.Hour)
	// NOW query on every mote via the unified store: the user never names
	// a proxy.
	for _, id := range n.MoteIDs() {
		res, err := queryMote(n, id, query.Spec{Type: query.Now, Precision: 1.0})
		if err != nil {
			t.Fatal(err)
		}
		v, ok := res.Answer.Value()
		if !ok {
			t.Fatalf("mote %d: no value", id)
		}
		truth, _ := n.Truth(id, res.Answer.DoneAt)
		if math.Abs(v-truth) > 1.1 {
			t.Fatalf("mote %d: answer %v truth %v", id, v, truth)
		}
	}
}

func TestExecuteAsync(t *testing.T) {
	// Query returns before the pull it needs has resolved; the result is
	// on the stream after a later Run.
	n := buildSmall(t, nil)
	n.Start()
	n.Run(4 * time.Hour)
	st, err := n.Client().Query(context.Background(), query.Spec{
		Type: query.Past, Select: query.SelectMotes(1), T0: simtime.Hour, T1: 2 * simtime.Hour, Precision: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n.Run(time.Minute)
	res, ok := st.Next(context.Background())
	if !ok || len(res.Results) != 1 {
		t.Fatalf("async query never completed: ok=%v %+v", ok, res)
	}
}

func TestBaselinePresetApplied(t *testing.T) {
	preset := baseline.StreamAll()
	n := buildSmall(t, func(c *Config) { c.Preset = &preset })
	n.Start()
	n.Run(time.Hour)
	st, _ := n.MoteStats(1)
	if st.Pushes < 55 {
		t.Fatalf("stream-all pushed %d times in an hour", st.Pushes)
	}
}

func TestEnergyAccounting(t *testing.T) {
	n := buildSmall(t, nil)
	n.Start()
	n.Run(6 * time.Hour)
	total := n.TotalMoteEnergy()
	if total.Total() <= 0 {
		t.Fatal("no energy recorded")
	}
	per, err := n.MoteEnergy(1)
	if err != nil {
		t.Fatal(err)
	}
	if per.Total() <= 0 || per.Total() >= total.Total() {
		t.Fatalf("per-mote %v vs total %v", per.Total(), total.Total())
	}
	if _, err := n.MoteEnergy(99); err == nil {
		t.Fatal("unknown mote meter")
	}
}

func TestRetrain(t *testing.T) {
	n := buildSmall(t, nil)
	if _, err := n.Bootstrap(30*time.Hour, 24, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(12 * time.Hour)
	if err := n.Retrain(predict.DefaultRetrainPolicy(), 1.0); err != nil {
		t.Fatal(err)
	}
	bad := predict.RetrainPolicy{}
	if err := n.Retrain(bad, 1.0); err == nil {
		t.Fatal("invalid policy accepted")
	}
}

func TestMatchWorkload(t *testing.T) {
	n := buildSmall(t, nil)
	n.Start()
	n.Run(time.Hour)
	plan, err := n.MatchWorkload(1, predict.Workload{Deadline: 10 * time.Minute, Precision: 0.5, ArrivalPerHour: 5})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delta != 0.5 {
		t.Fatalf("plan %+v", plan)
	}
	n.Run(time.Minute) // config propagates
	if _, err := n.MatchWorkload(99, predict.Workload{}); err == nil {
		t.Fatal("unknown mote matched")
	}
}

func TestWiredReplicaRouting(t *testing.T) {
	n := buildSmall(t, func(c *Config) { c.WiredFirstProxy = true })
	if _, ok := n.Index.ReplicaFor(1); !ok {
		t.Fatal("wireless proxy has no wired replica")
	}
	if _, ok := n.Index.ReplicaFor(0); ok {
		t.Fatal("wired proxy should not have a replica")
	}
}

func TestTruthAndTrace(t *testing.T) {
	n := buildSmall(t, nil)
	v, err := n.Truth(1, simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := n.Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Value(simtime.Hour) != v {
		t.Fatal("Truth and Trace disagree")
	}
	if _, err := n.Truth(99, 0); err == nil {
		t.Fatal("unknown mote truth")
	}
	if _, err := n.Trace(0); err == nil {
		t.Fatal("mote 0 trace")
	}
}

func TestConcurrentQueries(t *testing.T) {
	// The Network facade must serialize concurrent API use.
	n := buildSmall(t, nil)
	n.Start()
	n.Run(2 * time.Hour)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := n.MoteIDs()[i%4]
			_, _ = queryMote(n, id, query.Spec{Type: query.Now, Precision: 2})
		}(i)
	}
	wg.Wait()
}
