package store

import (
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
)

// rig: two proxies (one wired, one wireless), one mote each, shared store.
type rig struct {
	sim *simtime.Simulator
	st  *Store
}

func newRig(t *testing.T) *rig {
	t.Helper()
	sim := simtime.New(1)
	rcfg := radio.DefaultConfig()
	rcfg.LossProb = 0
	med, err := radio.NewMedium(sim, rcfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	ix := index.New(2)
	st := New(ix, 0)
	traces, _ := gen.Temperature(gen.DefaultTempConfig())
	for pi := 0; pi < 2; pi++ {
		pid := radio.NodeID(1000 + pi)
		p, err := proxy.New(sim, med, proxy.DefaultConfig(pid))
		if err != nil {
			t.Fatal(err)
		}
		st.AddProxy(index.ProxyID(pi), p, pi == 0)
		mid := radio.NodeID(1 + pi)
		mc := mote.DefaultConfig(mid, pid)
		mc.Flash = flash.Geometry{PageSize: 240, PagesPerBlock: 8, NumBlocks: 32}
		tr := traces[0]
		m, err := mote.New(sim, med, energy.DefaultParams(), mc, func(ts simtime.Time) float64 { return tr.Value(ts) })
		if err != nil {
			t.Fatal(err)
		}
		p.Register(mid, mc.SampleInterval, mc.Delta)
		st.AdoptMote(mid, index.ProxyID(pi), mc.SampleInterval)
		m.Start()
	}
	sim.RunFor(2 * time.Hour)
	return &rig{sim: sim, st: st}
}

func TestRouting(t *testing.T) {
	r := newRig(t)
	for _, id := range []radio.NodeID{1, 2} {
		done := false
		failed := r.st.Execute(query.Spec{Type: query.Now, Precision: 2}, []radio.NodeID{id}, nil, nil, func(res query.Result) {
			done = true
			if res.Answer.Mote != id || res.Query.Mote != id {
				t.Errorf("answer for wrong mote: %d/%d", res.Answer.Mote, res.Query.Mote)
			}
		})
		if failed != 0 {
			t.Fatalf("mote %d failed to route", id)
		}
		r.sim.RunFor(time.Minute)
		if !done {
			t.Fatalf("query to mote %d never completed", id)
		}
	}
	if rs := r.st.RoutingStats(); rs.Routed != 2 || rs.ReplicaRouted != 0 {
		t.Fatalf("routing stats %+v", rs)
	}
}

func TestUnknownMote(t *testing.T) {
	r := newRig(t)
	// The known mote beside it still answers; only the stranger fails.
	answered := 0
	if failed := r.st.Execute(query.Spec{Type: query.Now, Precision: 2}, []radio.NodeID{99, 1}, nil, nil, func(query.Result) { answered++ }); failed != 1 {
		t.Fatalf("unknown mote: %d failed, want 1", failed)
	}
	r.sim.RunFor(time.Minute)
	if answered != 1 {
		t.Fatalf("%d answers beside the unknown mote, want 1", answered)
	}
}

func TestReplicaPreferred(t *testing.T) {
	r := newRig(t)
	// Declare proxy 0 (wired) as replica of proxy 1 (wireless): queries
	// for mote 2 now route to proxy 0. Proxy 0 does not manage mote 2,
	// so the query returns empty — what matters here is the routing
	// decision, which RoutingStats exposes.
	if err := r.st.Index().SetReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	r.st.Execute(query.Spec{Type: query.Now, Precision: 2}, []radio.NodeID{2}, nil, nil, func(query.Result) {})
	if rs := r.st.RoutingStats(); rs.ReplicaRouted != 1 {
		t.Fatalf("replica routing not used: %+v", rs)
	}
}

func TestDetectionsAcrossProxies(t *testing.T) {
	r := newRig(t)
	// Both proxies publish detections; the store returns one ordered
	// stream.
	r.st.Publish(index.Detection{T: 3 * simtime.Minute, Mote: 1, Proxy: 0, Kind: "vehicle"})
	r.st.Publish(index.Detection{T: simtime.Minute, Mote: 2, Proxy: 1, Kind: "vehicle"})
	r.st.Publish(index.Detection{T: 2 * simtime.Minute, Mote: 1, Proxy: 0, Kind: "vehicle"})
	ds := r.st.Detections(0, simtime.Hour)
	if len(ds) != 3 {
		t.Fatalf("detections %d", len(ds))
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].T < ds[i-1].T {
			t.Fatal("detections out of order")
		}
	}
	if ds[0].Proxy != 1 || ds[1].Proxy != 0 {
		t.Fatal("cross-proxy interleave wrong")
	}
}
