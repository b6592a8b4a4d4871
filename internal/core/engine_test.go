package core

// Tests for the sharded async query engine: concurrent submission
// across shards, the wired-replica bridge, and lifecycle. (Pull
// coalescing is tested where it lives, in internal/proxy.)

import (
	"context"
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"presto/internal/gen"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/simtime"
)

// buildSharded assembles a multi-proxy deployment with the given shard
// count and registers cleanup.
func buildSharded(t *testing.T, proxies, motesPer, shards int, mutate func(*Config)) *Network {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Proxies = proxies
	cfg.MotesPerProxy = motesPer
	cfg.Shards = shards
	cfg.Traces = tempTraces(t, proxies*motesPer, 4, 0)
	if mutate != nil {
		mutate(&cfg)
	}
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func TestSubmitHammerAcrossShards(t *testing.T) {
	// The -race workhorse: many goroutines pose single-mote specs
	// against every shard while Run advances time concurrently.
	n := buildSharded(t, 4, 2, 4, nil)
	if n.Shards() != 4 {
		t.Fatalf("shards=%d", n.Shards())
	}
	n.Start()
	n.Run(2 * time.Hour)

	ids := n.MoteIDs()
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				id := ids[(g*7+i)%len(ids)]
				res, err := queryMote(n, id, query.Spec{Type: query.Now, Precision: 2})
				if err != nil {
					t.Errorf("mote %d: %v", id, err)
					return
				}
				if _, ok := res.Answer.Value(); !ok {
					t.Errorf("mote %d: empty answer", id)
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 4; i++ {
			n.Run(10 * time.Minute)
		}
	}()
	wg.Wait()

	submitted, _, _, _ := n.EngineStats()
	if submitted != 160 {
		t.Fatalf("submitted=%d, want 160", submitted)
	}
}

func TestShardedRunAdvancesAllDomains(t *testing.T) {
	n := buildSharded(t, 4, 1, 2, nil)
	n.Start()
	n.Run(time.Hour)
	if now := n.Now(); now != simtime.Hour {
		t.Fatalf("Now()=%v, want 1h", now)
	}
	// Every mote sampled in its own domain.
	for _, id := range n.MoteIDs() {
		st, err := n.MoteStats(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Samples != 60 {
			t.Fatalf("mote %d samples=%d", id, st.Samples)
		}
	}
}

func TestWiredReplicaBridgeAcrossShards(t *testing.T) {
	// Proxy 0 (wired, shard 0) mirrors the wireless proxies in other
	// domains over the bridge and serves their NOW queries locally.
	n := buildSharded(t, 2, 2, 2, func(c *Config) { c.WiredFirstProxy = true })
	if _, err := n.Bootstrap(36*time.Hour, 24, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(4 * time.Hour)

	// Mote 3 lives in shard 1; its NOW queries should be answerable by
	// the replica in shard 0 without touching shard 1.
	res, err := queryMote(n, 3, query.Spec{Type: query.Now, Precision: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Answer.Value()
	if !ok {
		t.Fatal("replica gave no answer")
	}
	truth, _ := n.Truth(3, res.Answer.Entries[0].T)
	if math.Abs(v-truth) > 2.5 {
		t.Fatalf("replica answer %.3f vs truth %.3f", v, truth)
	}

	_, replicaServed, bridgeSent, bridgeDelivered := n.EngineStats()
	if replicaServed == 0 {
		t.Fatal("no queries served by the wired replica")
	}
	if bridgeSent == 0 || bridgeDelivered == 0 {
		t.Fatalf("bridge idle: sent=%d delivered=%d", bridgeSent, bridgeDelivered)
	}
}

func TestWiredReplicaServesDataSingleDomain(t *testing.T) {
	// In a single domain the replica is fed by a direct tap: queries for
	// wireless proxies' motes route to proxy 0 (seed behaviour) and now
	// return real mirrored data instead of empty answers.
	n := buildSharded(t, 2, 2, 1, func(c *Config) { c.WiredFirstProxy = true })
	if _, err := n.Bootstrap(36*time.Hour, 24, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(2 * time.Hour)
	res, err := queryMote(n, 3, query.Spec{Type: query.Now, Precision: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	v, ok := res.Answer.Value()
	if !ok {
		t.Fatal("replica-routed query returned empty answer")
	}
	truth, _ := n.Truth(3, res.Answer.Entries[0].T)
	if math.Abs(v-truth) > 1.5 {
		t.Fatalf("replica answer %.3f vs truth %.3f", v, truth)
	}
	if n.Store.RoutingStats().ReplicaRouted == 0 {
		t.Fatal("store did not route to the wired replica")
	}
}

func TestCloseRejectsFurtherWork(t *testing.T) {
	n := buildSharded(t, 2, 1, 2, nil)
	n.Start()
	n.Run(time.Hour)
	n.Close()
	n.Close() // idempotent
	c, ctx := n.Client(), context.Background()
	if _, err := c.Query(ctx, query.Spec{Type: query.Now, Select: query.SelectMotes(1), Precision: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close: %v, want ErrClosed", err)
	}
	if _, err := queryMote(n, 1, query.Spec{Type: query.Past, T1: simtime.Hour, Precision: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("QueryOne after Close: %v, want ErrClosed", err)
	}
}

// hostStandingSpec builds a deployment, runs a standing spec on it,
// closes it unless abandon is set, and returns holding no reference to
// it; freed closes when the collector reclaims one of its traces. Its own
// frame (not buildSharded, whose t.Cleanup would pin the network) so
// nothing in the caller keeps the deployment reachable.
//
//go:noinline
func hostStandingSpec(t *testing.T, freed chan struct{}, abandon bool) {
	cfg := DefaultConfig()
	cfg.Proxies = 2
	cfg.MotesPerProxy = 1
	cfg.Shards = 2
	cfg.Traces = tempTraces(t, 2, 1, 0)
	runtime.SetFinalizer(cfg.Traces[0], func(*gen.Trace) { close(freed) })
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Start()
	st, err := n.Client().Query(context.Background(), query.Spec{
		Type: query.Now, Precision: 2, Continuous: &query.Continuous{Every: 10 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	n.Run(time.Hour)
	if _, ok := <-st.Results(); !ok {
		t.Fatal("standing spec delivered no round")
	}
	if !abandon {
		n.Close()
	}
}

func TestClosedNetworkIsCollected(t *testing.T) {
	// A standing spec keeps a delivery goroutine and a cancellation
	// watcher alive, and its routing points at the Network's domains.
	// Close must end the stream so nothing left running roots the closed
	// Network — and a Network abandoned without Close, whose engine
	// points back at it, must still reach its finalizer.
	for _, abandon := range []bool{false, true} {
		freed := make(chan struct{})
		hostStandingSpec(t, freed, abandon)
		deadline := time.After(10 * time.Second)
	poll:
		for {
			runtime.GC() // workers exit asynchronously after Close: poll
			select {
			case <-freed:
				break poll
			case <-deadline:
				t.Fatalf("a Network that hosted a standing spec was never collected (abandoned: %v)", abandon)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
}

func TestSubmitAsyncResult(t *testing.T) {
	// Query returns immediately; the result arrives on the stream once
	// the worker has settled the pull.
	n := buildSharded(t, 1, 2, 1, nil)
	n.Start()
	n.Run(3 * time.Hour)
	st, err := n.Client().Query(context.Background(), query.Spec{
		Type: query.Past, Select: query.SelectMotes(1), T0: simtime.Hour, T1: simtime.Hour, Precision: 0.01,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	res, ok := <-st.Results()
	if !ok || len(res.Results) != 1 {
		t.Fatalf("query never completed: ok=%v %+v", ok, res)
	}
	if src := res.Results[0].Answer.Source; src != proxy.FromPull {
		t.Fatalf("source %v", src)
	}
}

func TestSubmitUnknownMote(t *testing.T) {
	n := buildSharded(t, 1, 1, 1, nil)
	c, ctx := n.Client(), context.Background()
	if _, err := c.Query(ctx, query.Spec{Type: query.Now, Select: query.SelectMotes(99)}); err == nil {
		t.Fatal("unknown mote accepted")
	}
	if _, err := c.Query(ctx, query.Spec{Type: query.Agg, Select: query.SelectMotes(1, 99), T1: simtime.Hour}); err == nil {
		t.Fatal("unknown mote accepted in a set")
	}
}
