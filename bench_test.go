// Package presto_test holds the benchmark harness: one testing.B benchmark
// per table and figure in the paper (the experiments exp.All lists; README
// "Quick start" runs them), each regenerating the published rows/series
// via internal/exp and reporting the key scalar as a custom benchmark
// metric. Run everything with:
//
//	go test -bench=. -benchmem
//
// Paper-scale runs (28 days, 20 motes) live in cmd/presto-bench; these
// benchmarks use exp.QuickScale so the full suite stays fast while
// preserving every shape the paper reports.
package presto_test

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/cluster"
	"presto/internal/core"
	"presto/internal/energy"
	"presto/internal/exp"
	"presto/internal/flash"
	"presto/internal/gen"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/scenario"
	"presto/internal/serve"
	"presto/internal/simtime"
	"presto/internal/store"
)

// run executes an experiment once per benchmark iteration and reports the
// table's row count so the work cannot be optimized away.
func run(b *testing.B, fn func(exp.Scale) (*exp.Table, error)) {
	b.Helper()
	sc := exp.QuickScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := fn(sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("experiment produced no rows")
		}
	}
}

// BenchmarkTable1Capabilities regenerates Table 1 (feature comparison).
func BenchmarkTable1Capabilities(b *testing.B) { run(b, exp.Table1) }

// BenchmarkFigure2Batching regenerates Figure 2 (energy vs batching
// interval) and reports the batched-raw dynamic range and the crossover
// ratio against value-driven push as metrics.
func BenchmarkFigure2Batching(b *testing.B) {
	sc := exp.QuickScale()
	b.ReportAllocs()
	var s *exp.Figure2Series
	var err error
	for i := 0; i < b.N; i++ {
		s, err = exp.Figure2Numbers(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(s.Raw) - 1
	b.ReportMetric(s.Raw[0]/s.Raw[last], "raw-dynamic-range")
	b.ReportMetric(s.Raw[0]/s.ValueDelta1, "raw16.5min/value-d1")
	b.ReportMetric(s.Wavelet[last]/s.Raw[last], "wavelet/raw@2116min")
}

// BenchmarkE3QueryLatency regenerates the latency-by-answer-path table.
func BenchmarkE3QueryLatency(b *testing.B) { run(b, exp.E3QueryLatency) }

// BenchmarkE4PushEnergy regenerates the collection-policy comparison and
// reports the PRESTO-vs-streaming energy ratio.
func BenchmarkE4PushEnergy(b *testing.B) {
	sc := exp.QuickScale()
	b.ReportAllocs()
	var n *exp.E4Numbers
	var err error
	for i := 0; i < b.N; i++ {
		n, err = exp.E4PushEnergyNumbers(sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(n.StreamEnergy/n.PrestoEnergy, "stream/presto-energy")
	b.ReportMetric(n.PrestoRMSE, "presto-view-rmse")
}

// BenchmarkE5RareEvents regenerates the rare-event capture table.
func BenchmarkE5RareEvents(b *testing.B) { run(b, exp.E5RareEvents) }

// BenchmarkE6Extrapolation regenerates the extrapolation/hit-rate sweep.
func BenchmarkE6Extrapolation(b *testing.B) { run(b, exp.E6Extrapolation) }

// BenchmarkE7Aging regenerates the graceful-aging table.
func BenchmarkE7Aging(b *testing.B) { run(b, exp.E7Aging) }

// BenchmarkE8QueryMatching regenerates the query–sensor matching table.
func BenchmarkE8QueryMatching(b *testing.B) { run(b, exp.E8QueryMatching) }

// BenchmarkE9SkipGraph regenerates the index-scaling table and reports
// mean hops at the largest size.
func BenchmarkE9SkipGraph(b *testing.B) {
	sc := exp.QuickScale()
	b.ReportAllocs()
	var hops []float64
	var err error
	for i := 0; i < b.N; i++ {
		hops, err = exp.E9Hops(sc, []int{1024})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(hops[0], "hops@1024")
}

// BenchmarkE10TimeSync regenerates the clock-correction table.
func BenchmarkE10TimeSync(b *testing.B) { run(b, exp.E10TimeSync) }

// BenchmarkE11Consistency regenerates the replication table.
func BenchmarkE11Consistency(b *testing.B) { run(b, exp.E11Consistency) }

// BenchmarkAblationModels regenerates the model-family ablation.
func BenchmarkAblationModels(b *testing.B) { run(b, exp.AblationModels) }

// BenchmarkAblationCompression regenerates the codec ablation.
func BenchmarkAblationCompression(b *testing.B) { run(b, exp.AblationCompression) }

// BenchmarkAblationRetrain regenerates the retraining ablation.
func BenchmarkAblationRetrain(b *testing.B) { run(b, exp.AblationRetrain) }

// BenchmarkAblationLPL regenerates the duty-cycle ablation.
func BenchmarkAblationLPL(b *testing.B) { run(b, exp.AblationLPL) }

// BenchmarkAblationSpatial regenerates the spatial-extrapolation ablation.
func BenchmarkAblationSpatial(b *testing.B) { run(b, exp.AblationSpatial) }

// BenchmarkQueryThroughput measures the async query engine end to end on
// a 4-proxy deployment at 1 and 4 shards: each iteration poses a
// single-mote range spec per mote and window, all in flight at once, and
// waits for every result.
// With one shard a single worker settles every domain; with four the
// domains advance concurrently, so queries/sec should scale with cores.
func BenchmarkQueryThroughput(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			const proxies, motesPer = 4, 4
			c := gen.DefaultTempConfig()
			c.Sensors = proxies * motesPer
			c.Days = 4
			c.Seed = 1
			traces, err := gen.Temperature(c)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Proxies = proxies
			cfg.MotesPerProxy = motesPer
			cfg.Shards = shards
			cfg.Radio.LossProb = 0
			cfg.Radio.JitterMax = 0
			cfg.Traces = traces
			n, err := core.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			n.Start()
			n.Run(48 * time.Hour)

			ids := n.MoteIDs()
			qs := make([]query.Spec, 0, 4*len(ids))
			for qi := 0; qi < 4; qi++ {
				for _, id := range ids {
					t0 := simtime.Time(2+qi*9) * simtime.Hour
					qs = append(qs, query.Spec{
						Type: query.Past, Select: query.SelectMotes(id),
						T0: t0, T1: t0 + 6*simtime.Hour, Precision: 0.2,
					})
				}
			}
			client, ctx := n.Client(), context.Background()
			streams := make([]*core.ResultStream, len(qs))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, q := range qs {
					if streams[j], err = client.Query(ctx, q); err != nil {
						b.Fatal(err)
					}
				}
				for _, st := range streams {
					if res, ok := st.Next(ctx); !ok || len(res.Results) != 1 {
						b.Fatal("query never completed")
					}
					st.Close()
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*len(qs))/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkFlashStore measures the flash archive backend: each iteration
// appends an interleaved multi-mote record stream and then answers range
// queries over it. flash pays simulated page programs and reads;
// flash-compact shrinks the device until segment compaction runs in the
// loop. Reports appended records/s and archive queries/s.
func BenchmarkFlashStore(b *testing.B) {
	const (
		motes   = 8
		records = 4096
		queries = 64
	)
	backends := []struct {
		name string
		make func() (store.Backend, error)
	}{
		{"flash", func() (store.Backend, error) { return store.NewFlashBackend(flash.Geometry{}) }},
		{"flash-compact", func() (store.Backend, error) {
			// ~1.6k records of capacity: every iteration compacts.
			return store.NewFlashBackend(flash.Geometry{PageSize: 256, PagesPerBlock: 16, NumBlocks: 8})
		}},
	}
	for _, be := range backends {
		b.Run(be.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bk, err := be.make()
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < records; r++ {
					m := radio.NodeID(1 + r%motes)
					if err := bk.Append(m, store.Record{T: simtime.Time(r) * simtime.Minute, V: float64(r % 100)}); err != nil {
						b.Fatal(err)
					}
				}
				span := simtime.Time(records) * simtime.Minute
				hits := 0
				for qi := 0; qi < queries; qi++ {
					m := radio.NodeID(1 + qi%motes)
					t0 := span * simtime.Time(qi) / queries
					recs, err := bk.QueryRange(m, t0, t0+span/8)
					if err != nil {
						b.Fatal(err)
					}
					if len(recs) > 0 {
						hits++
					}
				}
				// Compaction coarsens old history (sparse windows may miss)
				// but recent data must always be there.
				if hits < queries/4 {
					b.Fatalf("only %d/%d archive queries returned data", hits, queries)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*records)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(b.N*queries)/b.Elapsed().Seconds(), "queries/s")
		})
	}
}

// BenchmarkWaveletAging measures the flash archive's aging modes head to
// head at equal device occupancy: each iteration floods a tiny device
// with 6x its capacity (forcing multi-level aging compactions), then
// answers range queries over the oldest quarter of history. Reports
// ingest records/s, archive queries/s, and the effective old-window
// density (records per query) each mode retains.
func BenchmarkWaveletAging(b *testing.B) {
	geo := flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	perPage := geo.PageSize / 20 // flash record size
	records := 6 * perPage * geo.PagesPerBlock * geo.NumBlocks
	const motes = 2
	const queries = 32
	for _, mode := range []string{store.AgingUniform, store.AgingWavelet} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var oldRecs int
			for i := 0; i < b.N; i++ {
				bk, err := store.NewFlashBackendPolicy(geo, store.AgingPolicy{Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
				for r := 0; r < records; r++ {
					m := radio.NodeID(1 + r%motes)
					rec := store.Record{T: simtime.Time(r) * simtime.Minute, V: float64(r % 100)}
					if err := bk.Append(m, rec); err != nil {
						b.Fatal(err)
					}
				}
				if bk.Stats().Compactions == 0 {
					b.Fatal("no aging pressure")
				}
				oldSpan := simtime.Time(records/4) * simtime.Minute
				oldRecs = 0
				for qi := 0; qi < queries; qi++ {
					m := radio.NodeID(1 + qi%motes)
					t0 := oldSpan * simtime.Time(qi) / queries
					recs, err := bk.QueryRange(m, t0, t0+oldSpan/4)
					if err != nil {
						b.Fatal(err)
					}
					oldRecs += len(recs)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*records)/b.Elapsed().Seconds(), "records/s")
			b.ReportMetric(float64(b.N*queries)/b.Elapsed().Seconds(), "queries/s")
			b.ReportMetric(float64(oldRecs)/queries, "old-recs/query")
		})
	}
}

// BenchmarkFreshnessBounds measures the cost of per-query freshness
// bounds end to end on a sharded deployment: unbounded NOW queries ride
// the wired replica, a loose bound still mostly does, and a tight bound
// bypasses the replica and pays mote rendezvous in the owning domain.
func BenchmarkFreshnessBounds(b *testing.B) {
	bounds := []struct {
		name  string
		stale time.Duration
	}{
		{"unbounded", 0},
		{"loose-6h", 6 * time.Hour},
		{"tight-1s", time.Second},
	}
	for _, bd := range bounds {
		b.Run(bd.name, func(b *testing.B) {
			const proxies, motesPer = 2, 4
			c := gen.DefaultTempConfig()
			c.Sensors = proxies * motesPer
			c.Days = 4
			c.Seed = 1
			traces, err := gen.Temperature(c)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Proxies = proxies
			cfg.MotesPerProxy = motesPer
			cfg.Shards = 2
			cfg.Radio.LossProb = 0
			cfg.Radio.JitterMax = 0
			cfg.Traces = traces
			cfg.WiredFirstProxy = true
			n, err := core.Build(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer n.Close()
			n.Start()
			n.Run(24 * time.Hour)

			// Remote motes only: the interesting path is the cross-domain
			// replica decision.
			var remote []radio.NodeID
			for _, id := range n.MoteIDs() {
				if id > motesPer {
					remote = append(remote, id)
				}
			}
			client, ctx := n.Client(), context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, id := range remote {
					q := query.Spec{Type: query.Now, Select: query.SelectMotes(id), Precision: 2.0, MaxStaleness: bd.stale}
					if res, err := client.QueryOne(ctx, q); err != nil || len(res.Results) != 1 {
						b.Fatalf("mote %d: %d results, err %v", id, len(res.Results), err)
					}
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*len(remote))/b.Elapsed().Seconds(), "queries/s")
			_, served, _, _ := n.EngineStats()
			b.ReportMetric(float64(served), "replica-served")
			b.ReportMetric(float64(n.ReplicaBypassed()), "replica-bypassed")
		})
	}
}

// BenchmarkScatterGather prices declarative set-valued aggregates end to
// end: one AGG(mean) Spec over 1, 8 and 64 motes on a 64-mote deployment
// at 1 and 4 shards. However many motes and domains a spec spans, it
// costs a single engine submission — per-domain partials merged by the
// client — so specs/sec should degrade sublinearly in mote count and
// gain from sharding. Reports specs/sec as queries/s (the CI gate
// metric).
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
		cfg := core.DefaultConfig()
		cfg.Proxies = proxies
		cfg.MotesPerProxy = motesPer
		cfg.Shards = shards
		cfg.Radio.LossProb = 0
		cfg.Radio.JitterMax = 0
		cfg.Traces = traces
		n, err := core.Build(cfg)
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

// BenchmarkContinuousQuery measures a standing query riding a live
// simulation: each iteration arms a bounded continuous NOW spec over
// every mote (one result per 30 virtual minutes for 6 virtual hours),
// advances the deployment through the window, and drains the 12
// incremental results. Reports delivered rounds/sec as queries/s.
func BenchmarkContinuousQuery(b *testing.B) {
	const proxies, motesPer = 2, 2
	c := gen.DefaultTempConfig()
	c.Sensors = proxies * motesPer
	c.Days = 4
	c.Seed = 1
	traces, err := gen.Temperature(c)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Proxies = proxies
	cfg.MotesPerProxy = motesPer
	cfg.Shards = 2
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Traces = traces
	n, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.Start()
	n.Run(2 * time.Hour)

	ctx := context.Background()
	cl := n.Client()
	rounds := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cl.Query(ctx, query.Spec{
			Type: query.Now, Precision: 2.0,
			Continuous: &query.Continuous{Every: 30 * time.Minute, Until: 6 * time.Hour},
		})
		if err != nil {
			b.Fatal(err)
		}
		done := make(chan error, 1)
		go func() {
			got := 0
			for res := range st.Results() {
				if res.Failed != 0 {
					done <- fmt.Errorf("round %d: %d motes failed", res.Seq, res.Failed)
					return
				}
				got++
			}
			rounds += got
			if got == 0 {
				done <- fmt.Errorf("no rounds delivered")
				return
			}
			done <- nil
		}()
		n.Run(6 * time.Hour)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)/b.Elapsed().Seconds(), "queries/s")
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

// BenchmarkClusterScatterGather prices distribution: the same 8-mote,
// 4-domain AGG(mean) spec posed against the in-process engine and
// against a 2-site cluster over the loopback transport (real frames,
// push-down partials, honest-bounds merge — everything but the kernel's
// socket copies). The gap is the cluster protocol's cost; the answers
// are bit-identical, which each iteration re-checks. Reports specs/sec
// as queries/s.
func BenchmarkClusterScatterGather(b *testing.B) {
	const proxies, motesPer, shards = 4, 2, 4
	mkCfg := func() core.Config {
		c := gen.DefaultTempConfig()
		c.Sensors = proxies * motesPer
		c.Days = 3
		c.Seed = 1
		traces, err := gen.Temperature(c)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Proxies = proxies
		cfg.MotesPerProxy = motesPer
		cfg.Shards = shards
		cfg.Radio.LossProb = 0
		cfg.Radio.JitterMax = 0
		cfg.Traces = traces
		return cfg
	}
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: 2 * time.Hour}
	ctx := context.Background()

	n, err := core.Build(mkCfg())
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.Start()
	n.Run(6 * time.Hour)
	ref, err := n.Client().QueryOne(ctx, spec)
	if err != nil || ref.Err != nil {
		b.Fatalf("reference: %v %v", err, ref.Err)
	}

	tr := cluster.NewLoopback()
	co, err := cluster.Listen(tr, "", mkCfg(), cluster.Options{Sites: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() { _ = cluster.Serve(serveCtx, tr, co.Addr(), mkCfg()) }()
	if err := co.AcceptSites(ctx); err != nil {
		b.Fatal(err)
	}
	if err := co.Start(ctx); err != nil {
		b.Fatal(err)
	}
	if err := co.Run(ctx, 6*time.Hour); err != nil {
		b.Fatal(err)
	}

	clients := []struct {
		name string
		cl   *core.Client
	}{
		{"inproc", n.Client()},
		{"cluster-2site-loopback", co.Client()},
	}
	wireBytes := func() uint64 {
		var total uint64
		for _, s := range co.SiteStats() {
			total += s.SentBytes + s.RecvBytes
		}
		return total
	}
	for _, c := range clients {
		cluster := c.cl != clients[0].cl
		b.Run(c.name, func(b *testing.B) {
			before := wireBytes()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.cl.QueryOne(ctx, spec)
				if err != nil {
					b.Fatal(err)
				}
				if res.Err != nil || res.Value != ref.Value || res.ErrBound != ref.ErrBound || res.Count != ref.Count {
					b.Fatalf("answer diverged: %+v vs reference %+v", res, ref)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "queries/s")
			if cluster {
				// Frames in both directions across all site links, via the
				// transport's per-kind byte counters.
				b.ReportMetric(float64(wireBytes()-before)/float64(b.N), "wire-B/op")
			}
		})
	}
}

// BenchmarkDomainSnapshot prices the elasticity seam's unit of work:
// serializing one quiesced domain (kernel, medium, motes, proxies,
// index, store) to a checksummed blob. Reports the blob size — the
// bytes a migration or checkpoint moves per domain.
func BenchmarkDomainSnapshot(b *testing.B) {
	c := gen.DefaultTempConfig()
	c.Sensors = 8
	c.Days = 3
	c.Seed = 1
	traces, err := gen.Temperature(c)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Proxies = 4
	cfg.MotesPerProxy = 2
	cfg.Shards = 4
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Traces = traces
	n, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.Start()
	n.Run(6 * time.Hour)

	var buf strings.Builder
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := n.SnapshotDomain(1, &buf); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(buf.Len()), "snap-B")
}

// BenchmarkMigration prices moving a live domain between cluster sites
// over the loopback transport: quiesce + snapshot at the source, stream,
// adopt + restore at the target, re-point the scatter router. Each
// iteration round-trips domain 2 (remote -> coordinator -> remote), so
// the metric is one full migration each way.
func BenchmarkMigration(b *testing.B) {
	mk := func() core.Config {
		c := gen.DefaultTempConfig()
		c.Sensors = 8
		c.Days = 3
		c.Seed = 1
		traces, err := gen.Temperature(c)
		if err != nil {
			b.Fatal(err)
		}
		cfg := core.DefaultConfig()
		cfg.Proxies = 4
		cfg.MotesPerProxy = 2
		cfg.Shards = 4
		cfg.Radio.LossProb = 0
		cfg.Radio.JitterMax = 0
		cfg.Traces = traces
		return cfg
	}
	ctx := context.Background()
	tr := cluster.NewLoopback()
	co, err := cluster.Listen(tr, "", mk(), cluster.Options{Sites: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer co.Close()
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() { _ = cluster.Serve(serveCtx, tr, co.Addr(), mk()) }()
	if err := co.AcceptSites(ctx); err != nil {
		b.Fatal(err)
	}
	if err := co.Start(ctx); err != nil {
		b.Fatal(err)
	}
	if err := co.Run(ctx, 6*time.Hour); err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := co.MigrateDomain(ctx, 2, 0); err != nil {
			b.Fatal(err)
		}
		if err := co.MigrateDomain(ctx, 2, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(2*b.N)/b.Elapsed().Seconds(), "migrations/s")
}

// BenchmarkAllExperiments runs the full registry once per iteration (the
// cmd/presto-bench workload at quick scale).
func BenchmarkAllExperiments(b *testing.B) {
	sc := exp.QuickScale()
	for i := 0; i < b.N; i++ {
		for _, e := range exp.All() {
			if _, err := e.Run(sc); err != nil {
				b.Fatal(e.ID + ": " + err.Error())
			}
		}
	}
	b.ReportMetric(float64(len(exp.All())), "experiments")
}

// BenchmarkHTTPServe prices the serving tier end to end: HTTP/JSON specs
// posed against a live deployment through internal/serve, with the
// semantic answer cache in front. Each iteration POSTs a rotation of
// aggregate questions at two precisions — the tight ask plants the
// answer, the loose repeat is served from cache — so steady state mixes
// engine rounds with cache hits. Reports answered queries/s and the
// server's cache hit ratio.
func BenchmarkHTTPServe(b *testing.B) {
	const proxies, motesPer = 2, 2
	c := gen.DefaultTempConfig()
	c.Sensors = proxies * motesPer
	c.Days = 2
	c.Seed = 1
	traces, err := gen.Temperature(c)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Proxies = proxies
	cfg.MotesPerProxy = motesPer
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Traces = traces
	n, err := core.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.Start()
	n.Run(6 * time.Hour)

	srv := serve.New(n, serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two precisions per question: with the clock parked, only the first
	// iteration's tight asks miss; everything after answers from cache.
	bodies := []string{
		`{"type":"agg","agg":"mean","t0":"1h","t1":"4h","precision":0.5,"max_staleness":"6h"}`,
		`{"type":"agg","agg":"mean","t0":"1h","t1":"4h","precision":2.0,"max_staleness":"6h"}`,
		`{"type":"agg","agg":"max","t0":"2h","t1":"5h","precision":0.5,"max_staleness":"6h"}`,
		`{"type":"agg","agg":"max","t0":"2h","t1":"5h","precision":2.0,"max_staleness":"6h"}`,
		`{"type":"now","precision":1.0,"max_staleness":"6h"}`,
		`{"type":"now","precision":2.0,"max_staleness":"6h"}`,
	}
	client := ts.Client()
	post := func(body string) {
		resp, err := client.Post(ts.URL+"/v1/query", "application/json", strings.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		buf, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("POST %s: status %d err %v: %s", body, resp.StatusCode, err, buf)
		}
		res, err := query.DecodeSetResultJSON(buf)
		if err != nil || res.Err != nil {
			b.Fatalf("POST %s: bad answer: %v %v", body, err, res.Err)
		}
	}

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, body := range bodies {
			post(body)
		}
	}
	b.StopTimer()
	st := srv.Snapshot()
	b.ReportMetric(float64(st.Queries)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(st.CacheHitRatio, "hit-ratio")
}

// BenchmarkScenarioWorkload prices the scenario pipeline end to end:
// each iteration regenerates the smoke scenario's seeded arrival
// schedule (diurnal thinning, bursts, tenant assignment, loose pairing)
// and replays every scheduled spec against a live in-process build of
// the same scenario's deployment. Reports answered queries/s so the
// bench gate catches regressions in either the workload model or the
// replay path.
func BenchmarkScenarioWorkload(b *testing.B) {
	spec, err := scenario.Preset("smoke")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := scenario.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	n, err := core.Build(sc.Config)
	if err != nil {
		b.Fatal(err)
	}
	defer n.Close()
	n.Start()
	n.Run(12 * time.Hour) // past the horizon: every scheduled window has data
	cl := n.Client()
	ctx := context.Background()

	b.ReportAllocs()
	b.ResetTimer()
	answered := 0
	for i := 0; i < b.N; i++ {
		arrivals, err := scenario.GenerateWorkload(spec)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range arrivals {
			s, err := query.DecodeSpecJSON(a.SpecJSON)
			if err != nil {
				b.Fatal(err)
			}
			res, err := cl.QueryOne(ctx, s)
			if err != nil || res.Err != nil {
				b.Fatalf("arrival at %v refused: %v / %v", a.At, err, res.Err)
			}
			answered++
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(answered)/b.Elapsed().Seconds(), "queries/s")
	b.ReportMetric(float64(answered/b.N), "arrivals")
}
