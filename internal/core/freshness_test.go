package core

// Per-query freshness bounds (query.Query.MaxStaleness) end to end: a NOW
// query with a tight bound must bypass a stale wired replica, settle in
// the owning domain, and pay the mote rendezvous there; a loose bound
// keeps the replica fast path. Run with -race: the staleness decision
// reads the owning domain's clock snapshot from the submitting goroutine
// while both domain workers advance.

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"presto/internal/flash"
	"presto/internal/gen"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/store"
)

// freshnessNet builds a 2-proxy, 2-domain deployment with wired
// replication and lossless radio, warmed up long enough that the replica
// mirrors confirmed data for the remote motes.
func freshnessNet(t *testing.T) *Network {
	t.Helper()
	const proxies, motesPer = 2, 2
	c := gen.DefaultTempConfig()
	c.Sensors = proxies * motesPer
	c.Days = 1
	c.Seed = 7
	traces, err := gen.Temperature(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Proxies = proxies
	cfg.MotesPerProxy = motesPer
	cfg.Shards = 2
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Delta = 0.25 // frequent pushes keep the mirror warm
	cfg.Traces = traces
	cfg.WiredFirstProxy = true
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.Start()
	n.Run(2 * time.Hour)
	return n
}

func TestFreshnessBoundBypassesStaleReplica(t *testing.T) {
	n := freshnessNet(t)
	remote := radio.NodeID(motesPerProxyFirstRemote(n)) // a domain-1 mote

	// Loose bound: the replica's mirror is well within a day, so the
	// wired fast path must serve without touching the owning domain.
	res, err := queryMote(n, remote, query.Spec{
		Type: query.Now, Precision: 5, MaxStaleness: 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, served, _, _ := n.EngineStats(); served != 1 {
		t.Fatalf("replica served %d queries, want 1", served)
	}
	if n.ReplicaBypassed() != 0 {
		t.Fatalf("loose bound bypassed the replica")
	}
	if res.Answer.Source == proxy.FromPull {
		t.Fatalf("loose bound paid a rendezvous: %v", res.Answer.Source)
	}

	// Tight bound: no snapshot can be one nanosecond old, so the replica
	// is bypassed and the owning domain's proxy must pay a mote
	// rendezvous rather than serve its own stale cache/model view.
	res, err = queryMote(n, remote, query.Spec{
		Type: query.Now, Precision: 5, MaxStaleness: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if n.ReplicaBypassed() != 1 {
		t.Fatalf("replica bypassed %d times, want 1", n.ReplicaBypassed())
	}
	if _, served, _, _ := n.EngineStats(); served != 1 {
		t.Fatalf("stale replica still served the tight query")
	}
	if res.Answer.Source != proxy.FromPull {
		t.Fatalf("tight bound answered from %v, want pull (owning-domain rendezvous)", res.Answer.Source)
	}
	// The rendezvous was paid by the owning proxy, not the replica.
	st, err := n.ProxyStatsFor(remote)
	if err != nil {
		t.Fatal(err)
	}
	if st.StalenessPulls != 1 {
		t.Fatalf("owning proxy staleness pulls %d, want 1", st.StalenessPulls)
	}
}

// motesPerProxyFirstRemote returns the first mote owned by a non-zero
// domain (proxy 1's first mote).
func motesPerProxyFirstRemote(n *Network) int {
	return n.cfg.MotesPerProxy + 1
}

func TestFreshnessBoundSameDomainReplica(t *testing.T) {
	// Single domain, two proxies: the store-level replica path (proxy 0
	// mirrors proxy 1) must also honor the bound — a tight-staleness NOW
	// query skips the replica and forces the managing proxy's rendezvous.
	const proxies, motesPer = 2, 2
	c := gen.DefaultTempConfig()
	c.Sensors = proxies * motesPer
	c.Days = 1
	c.Seed = 7
	traces, err := gen.Temperature(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 7
	cfg.Proxies = proxies
	cfg.MotesPerProxy = motesPer
	cfg.Shards = 1
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Delta = 0.25
	cfg.Traces = traces
	cfg.WiredFirstProxy = true
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Start()
	n.Run(2 * time.Hour)

	remote := radio.NodeID(motesPer + 1)
	res, err := queryMote(n, remote, query.Spec{
		Type: query.Now, Precision: 5, MaxStaleness: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ss := n.StoreStats()
	if ss.ReplicaStale != 1 {
		t.Fatalf("store stale-rejections %d, want 1", ss.ReplicaStale)
	}
	if res.Answer.Source != proxy.FromPull {
		t.Fatalf("answer from %v, want pull", res.Answer.Source)
	}

	// And a loose bound serves from the replica's local view.
	res, err = queryMote(n, remote, query.Spec{
		Type: query.Now, Precision: 5, MaxStaleness: 24 * time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Source == proxy.FromPull {
		t.Fatalf("loose bound paid a rendezvous")
	}
	if ss := n.StoreStats(); ss.ReplicaStale != 1 {
		t.Fatalf("loose bound rejected as stale: %+v", ss)
	}
}

func TestFreshnessBoundPastTail(t *testing.T) {
	// Regression: a PAST query whose window tail overlaps "now" used to
	// ignore MaxStaleness entirely — the proxy would extrapolate the tail
	// from a stale model snapshot. Now the bound forces a rendezvous when
	// the confirmed snapshot is older than the bound, while purely
	// historical windows are untouched.
	c := gen.DefaultTempConfig()
	c.Sensors = 2
	c.Days = 2
	c.Seed = 9
	traces, err := gen.Temperature(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 9
	cfg.Proxies = 1
	cfg.MotesPerProxy = 2
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Delta = 25 // model never misses by 25 °C: no pushes after bootstrap
	cfg.Traces = traces
	cfg.StoreBackend = "flash"
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Bootstrap(6*time.Hour, 24, 25); err != nil {
		t.Fatal(err)
	}
	n.Run(3 * time.Hour) // confirmed snapshot ages ~3h with no pushes
	now := n.Now()

	// Unbounded tail query: the model's 25-degree bound satisfies the
	// loose precision, so the proxy answers from its (stale) local view.
	res, err := queryMote(n, 1, query.Spec{
		Type: query.Past, T0: now - 30*simtime.Minute, T1: now, Precision: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Source == proxy.FromPull {
		t.Fatalf("unbounded tail query paid a rendezvous: %v", res.Answer.Source)
	}
	if st, _ := n.ProxyStatsFor(1); st.StalenessPulls != 0 {
		t.Fatalf("unbounded query counted a staleness pull")
	}

	// The same window under a tight bound: the snapshot is hours old, so
	// the proxy must pull instead of extrapolating the tail.
	res, err = queryMote(n, 1, query.Spec{
		Type: query.Past, T0: now - 30*simtime.Minute, T1: now, Precision: 30,
		MaxStaleness: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Source != proxy.FromPull {
		t.Fatalf("bounded tail query answered from %v, want pull", res.Answer.Source)
	}
	st, err := n.ProxyStatsFor(1)
	if err != nil {
		t.Fatal(err)
	}
	if st.StalenessPulls != 1 {
		t.Fatalf("staleness pulls %d, want 1", st.StalenessPulls)
	}
	if ss := n.StoreStats(); ss.ArchiveStale == 0 {
		t.Fatalf("archive never declined the stale tail: %+v", ss)
	}

	// A purely historical window (inside the streamed bootstrap) under the
	// same tight bound: no overlap with now, so the archive serves as if
	// unbounded.
	res, err = queryMote(n, 1, query.Spec{
		Type: query.Past, T0: 2 * simtime.Hour, T1: 4 * simtime.Hour, Precision: 0.5,
		MaxStaleness: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Answer.Source != proxy.FromArchive {
		t.Fatalf("historical bounded query answered from %v, want archive", res.Answer.Source)
	}
	// AGG rides the same path: folded straight from the archive.
	served := n.StoreStats().ArchiveServed
	agg, err := n.Client().QueryOne(context.Background(), query.Spec{
		Type: query.Agg, Agg: query.Mean, Select: query.SelectMotes(1), T0: 2 * simtime.Hour, T1: 4 * simtime.Hour,
		Precision: 0.5, MaxStaleness: time.Second,
	})
	if err != nil || agg.Err != nil || agg.Count == 0 {
		t.Fatalf("bounded AGG: %+v, err %v", agg, err)
	}
	if got := n.StoreStats().ArchiveServed; got != served+1 {
		t.Fatalf("bounded AGG not archive-served: ArchiveServed %d -> %d", served, got)
	}
}

func TestWaveletAgedArchiveConcurrentQueries(t *testing.T) {
	// Wavelet round-trip on aged segments under -race: a tiny flash device
	// forces aging compactions during the streamed bootstrap, then
	// concurrent PAST queries reconstruct wavelet segments on two domain
	// workers while the submitting goroutines race. Every archive-served
	// entry must stay within its (widened) error bound of ground truth —
	// bounds never tighter than the raw records they summarize.
	c := gen.DefaultTempConfig()
	c.Sensors = 4
	c.Days = 2
	c.Seed = 5
	traces, err := gen.Temperature(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Seed = 5
	cfg.Proxies = 2
	cfg.MotesPerProxy = 2
	cfg.Shards = 2
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Traces = traces
	cfg.StoreBackend = "flash"
	// ~819 records of capacity per domain vs 2 motes x 720 streamed
	// minutes: several compactions per domain.
	cfg.StoreFlash = flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}
	cfg.StoreAging = "wavelet"
	n, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if _, err := n.Bootstrap(12*time.Hour, 24, 1.0); err != nil {
		t.Fatal(err)
	}
	bs := n.StoreBackendStats()
	if bs.Compactions == 0 || bs.WaveletChunks == 0 {
		t.Fatalf("bootstrap did not force wavelet aging: %+v", bs)
	}

	ids := n.MoteIDs()
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for qi := 0; qi < 8; qi++ {
				id := ids[(g+qi)%len(ids)]
				t0 := simtime.Time(1+(g*8+qi)%8) * simtime.Hour
				res, err := queryMote(n, id, query.Spec{
					Type: query.Past, T0: t0, T1: t0 + simtime.Hour, Precision: 10,
				})
				if err != nil {
					errs <- err.Error()
					return
				}
				if len(res.Answer.Entries) == 0 {
					errs <- "empty answer"
					continue
				}
				for _, e := range res.Answer.Entries {
					truth, err := n.Truth(id, e.T)
					if err != nil {
						errs <- err.Error()
						continue
					}
					diff := e.V - truth
					if diff < 0 {
						diff = -diff
					}
					// 1e-3 covers the float32 quantization of pushed
					// values archived with a zero bound.
					if diff > e.ErrBound+1e-3 {
						errs <- fmt.Sprintf("mote %d at %v: |%v - %v| outside bound %v",
							id, e.T, e.V, truth, e.ErrBound)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}
	if ss := n.StoreStats(); ss.ArchiveServed == 0 {
		t.Fatalf("no query was served from the aged archive: %+v", ss)
	}
}

func TestArchiveServesCoveredRange(t *testing.T) {
	// After a streamed bootstrap the domain's archive covers the training
	// window. On flash a PAST range query inside it is served whole from
	// the backend (FromArchive) without touching the proxy query path; on
	// mem the proxy cache is the archive, so the same query is a cache
	// answer with the same entries.
	answers := map[string]proxy.Answer{}
	for _, backend := range []string{"mem", "flash"} {
		t.Run(backend, func(t *testing.T) {
			c := gen.DefaultTempConfig()
			c.Sensors = 2
			c.Days = 2
			c.Seed = 3
			traces, err := gen.Temperature(c)
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Seed = 3
			cfg.Proxies = 1
			cfg.MotesPerProxy = 2
			cfg.Radio.LossProb = 0
			cfg.Radio.JitterMax = 0
			cfg.Traces = traces
			cfg.StoreBackend = backend
			n, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			if _, err := n.Bootstrap(12*time.Hour, 24, 1.0); err != nil {
				t.Fatal(err)
			}
			res, err := queryMote(n, 1, query.Spec{
				Type: query.Past, T0: 2 * simtime.Hour, T1: 6 * simtime.Hour, Precision: 0.5,
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Answer.Entries) == 0 {
				t.Fatal("answer has no entries")
			}
			answers[backend] = res.Answer
			ss, bs := n.StoreStats(), n.StoreBackendStats()
			if backend == "mem" {
				if res.Answer.Source != proxy.FromCache {
					t.Fatalf("answer from %v, want cache", res.Answer.Source)
				}
				if ss.ArchiveServed != 0 || bs != (store.BackendStats{}) {
					t.Fatalf("a mem domain has a backend: %+v, %+v", ss, bs)
				}
				return
			}
			if res.Answer.Source != proxy.FromArchive {
				t.Fatalf("answer from %v, want archive", res.Answer.Source)
			}
			if ss.ArchiveServed != 1 {
				t.Fatalf("archive served %d, want 1", ss.ArchiveServed)
			}
			if bs.Appends == 0 || bs.QueryRanges == 0 || bs.PagesWritten == 0 {
				t.Fatalf("backend stats not threaded: %+v", bs)
			}
			// Ground truth check: archive answers are confirmed data.
			for _, e := range res.Answer.Entries {
				truth, err := n.Truth(1, e.T)
				if err != nil {
					t.Fatal(err)
				}
				diff := e.V - truth
				if diff < 0 {
					diff = -diff
				}
				if diff > 0.51 { // precision + float32 wire slack
					t.Fatalf("archive entry off truth by %v", diff)
				}
			}
		})
	}
	// One archive, two homes: the cache answers with the records the
	// flash archive holds, value for value and bound for bound.
	mem, fl := answers["mem"].Entries, answers["flash"].Entries
	if len(mem) != len(fl) {
		t.Fatalf("cache answer has %d entries, archive answer %d", len(mem), len(fl))
	}
	for i := range mem {
		if mem[i].T != fl[i].T || mem[i].V != fl[i].V || mem[i].ErrBound != fl[i].ErrBound {
			t.Fatalf("entry %d: cache %+v, archive %+v", i, mem[i], fl[i])
		}
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
			cfg := DefaultConfig()
			cfg.Proxies = proxies
			cfg.MotesPerProxy = motesPer
			cfg.Shards = 2
			cfg.Radio.LossProb = 0
			cfg.Radio.JitterMax = 0
			cfg.Traces = traces
			cfg.WiredFirstProxy = true
			n, err := Build(cfg)
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
