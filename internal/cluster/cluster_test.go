package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"presto/internal/baseline"
	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// testConfig builds the shared deployment config: 4 proxies x 2 motes in
// 4 domains, deterministic radio. Replication is off by default — the
// bit-identity tests want pure partitioned domains (bridge drain timing
// is wall-clock dependent and tolerated, not bit-reproducible).
func testConfig(t testing.TB, proxies, motesPer, shards int) core.Config {
	t.Helper()
	c := gen.DefaultTempConfig()
	c.Sensors = proxies * motesPer
	c.Days = 3
	c.Seed = 1
	traces, err := gen.Temperature(c)
	if err != nil {
		t.Fatal(err)
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

// startCluster brings up a coordinator plus remote sites over the
// transport and returns the coordinator and a cleanup-wait function.
func startCluster(t *testing.T, tr Transport, cfg core.Config, sites int) (*Coordinator, func()) {
	t.Helper()
	co, err := Listen(tr, clusterAddr(tr), cfg, Options{Sites: sites})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	serveErrs := make(chan error, sites-1)
	for i := 1; i < sites; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			serveErrs <- Serve(ctx, tr, co.Addr(), cfg)
		}()
	}
	if err := co.AcceptSites(context.Background()); err != nil {
		t.Fatal(err)
	}
	return co, func() {
		co.Close()
		cancel()
		wg.Wait()
		close(serveErrs)
		for err := range serveErrs {
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Errorf("site serve: %v", err)
			}
		}
	}
}

func clusterAddr(tr Transport) string {
	if _, ok := tr.(TCP); ok {
		return "127.0.0.1:0"
	}
	return ""
}

// TestClusterAggBitIdentical is the acceptance property: a multi-site
// AGG query answers bit-identically — value, bound and count — to the
// same seed run single-process, over both the loopback and TCP
// transports, and costs exactly one scatter frame per remote site.
// Halfway through the run two domains migrate live — one off the remote
// site onto the coordinator, one the other way — so the assertion also
// proves the snapshot seam moves a domain without perturbing a single
// sample.
func TestClusterAggBitIdentical(t *testing.T) {
	const proxies, motesPer, shards, sites = 4, 2, 4, 2
	runFor := 4 * time.Hour

	// Single-process reference.
	cfg := testConfig(t, proxies, motesPer, shards)
	single, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single.Start()
	single.Run(runFor)
	refNow := single.Now()
	spec := query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 0.5,
		T0: refNow - 3*simtime.Hour, T1: refNow - simtime.Hour,
	}
	ref, err := single.Client().QueryOne(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	single.Close()
	if ref.Err != nil || ref.Count == 0 {
		t.Fatalf("reference aggregate unusable: %+v", ref)
	}

	for name, tr := range map[string]Transport{"loopback": NewLoopback(), "tcp": TCP{}} {
		t.Run(name, func(t *testing.T) {
			co, shutdown := startCluster(t, tr, testConfig(t, proxies, motesPer, shards), sites)
			defer shutdown()
			ctx := context.Background()
			if err := co.Start(ctx); err != nil {
				t.Fatal(err)
			}
			if err := co.Run(ctx, runFor/2); err != nil {
				t.Fatal(err)
			}
			// Mid-run elasticity: domain 2 quiesces on the remote site,
			// streams to the coordinator, and resumes there; domain 1
			// makes the reverse trip. Neither move may cost a bit.
			if err := co.MigrateDomain(ctx, 2, 0); err != nil {
				t.Fatal(err)
			}
			if err := co.MigrateDomain(ctx, 1, 1); err != nil {
				t.Fatal(err)
			}
			if err := co.Run(ctx, runFor/2); err != nil {
				t.Fatal(err)
			}
			h := co.Health()
			if h.Migrations != 2 || len(h.Sites) != sites || !h.Sites[1].Alive {
				t.Fatalf("health after migration: %+v", h)
			}
			if co.Now() != refNow {
				t.Fatalf("cluster clock %v != single-process %v", co.Now(), refNow)
			}
			res, err := co.Client().QueryOne(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.SiteErrs) != 0 || res.Failed != 0 {
				t.Fatalf("round not clean: %+v", res)
			}
			if res.Value != ref.Value || res.ErrBound != ref.ErrBound || res.Count != ref.Count {
				t.Fatalf("cluster AGG (%v ± %v, n=%d) != single-process (%v ± %v, n=%d)",
					res.Value, res.ErrBound, res.Count, ref.Value, ref.ErrBound, ref.Count)
			}
			// One frame per site: the whole 8-mote, 4-domain aggregate cost
			// exactly one FrameScatter on each remote connection.
			for i, st := range co.SiteStats() {
				if got := st.SentKind[wire.FrameScatter]; got != 1 {
					t.Fatalf("site %d saw %d scatter frames, want exactly 1", i+1, got)
				}
			}
		})
	}
}

// TestClusterPastResultsMatch: per-mote PAST results — entries, bounds,
// provenance — survive the wire and merge identically to single-process,
// and so do a one-site coordinator's, which has no joined site at all.
func TestClusterPastResultsMatch(t *testing.T) {
	const proxies, motesPer, shards = 4, 2, 4
	runFor := 3 * time.Hour

	cfg := testConfig(t, proxies, motesPer, shards)
	single, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	single.Start()
	single.Run(runFor)
	now := single.Now()
	spec := query.Spec{Type: query.Past, T0: now - 2*simtime.Hour, T1: now - simtime.Hour, Precision: 0.5}
	ref, err := single.Client().QueryOne(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	single.Close()

	for _, sites := range []int{1, 2} {
		t.Run(fmt.Sprintf("sites=%d", sites), func(t *testing.T) {
			co, shutdown := startCluster(t, NewLoopback(), testConfig(t, proxies, motesPer, shards), sites)
			defer shutdown()
			ctx := context.Background()
			if err := co.Start(ctx); err != nil {
				t.Fatal(err)
			}
			if err := co.Run(ctx, runFor); err != nil {
				t.Fatal(err)
			}
			res, err := co.Client().QueryOne(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Results) != len(ref.Results) {
				t.Fatalf("%d per-mote results, single-process had %d", len(res.Results), len(ref.Results))
			}
			for i, r := range res.Results {
				w := ref.Results[i]
				if r.Query.Mote != w.Query.Mote || r.Answer.Source != w.Answer.Source ||
					len(r.Answer.Entries) != len(w.Answer.Entries) {
					t.Fatalf("result %d shape differs: %+v vs %+v", i, r.Answer, w.Answer)
				}
				for j, e := range r.Answer.Entries {
					if e != w.Answer.Entries[j] {
						t.Fatalf("mote %d entry %d: %+v != %+v", r.Query.Mote, j, e, w.Answer.Entries[j])
					}
				}
			}
		})
	}
}

// TestClusterContinuousTrailing: a standing trailing-window aggregate
// delivers one round per period during Run, each round re-evaluating
// [now-d, now] — counts stay roughly constant instead of growing with
// history, and Until closes the stream by itself. The same spec on an
// in-process build of the same deployment fires on the same round clock,
// so every round is bit-identical to the cluster's — with one joined
// site, and with the coordinator as the only site. A 95 s cadence does
// not divide the lease quantum: its rounds still gather at their own
// instants on every site, for an aggregate and for a NOW snapshot alike.
func TestClusterContinuousTrailing(t *testing.T) {
	cases := []struct {
		name   string
		spec   query.Spec
		run    time.Duration // after posing the spec
		every  time.Duration
		rounds int
	}{
		{"agg-every-30m", query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: time.Hour,
			Continuous: &query.Continuous{Every: 30 * time.Minute, Until: 2 * time.Hour}}, 3 * time.Hour, 30 * time.Minute, 4},
		{"agg-every-95s", query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: time.Hour,
			Continuous: &query.Continuous{Every: 95 * time.Second, Until: 20 * time.Minute}}, 30 * time.Minute, 95 * time.Second, 12},
		{"now-every-95s", query.Spec{Type: query.Now, Precision: 2,
			Continuous: &query.Continuous{Every: 95 * time.Second, Until: 20 * time.Minute}}, 30 * time.Minute, 95 * time.Second, 12},
	}
	// The in-process reference rounds, per case.
	want := make([][]query.SetResult, len(cases))
	for i, c := range cases {
		single, err := core.Build(testConfig(t, 4, 2, 4))
		if err != nil {
			t.Fatal(err)
		}
		single.Start()
		single.Run(2 * time.Hour)
		ref, err := single.Client().Query(context.Background(), c.spec)
		if err != nil {
			t.Fatal(err)
		}
		single.Run(c.run)
		for res := range ref.Results() {
			want[i] = append(want[i], res)
		}
		single.Close()
	}

	for _, sites := range []int{1, 2} {
		t.Run(fmt.Sprintf("sites=%d", sites), func(t *testing.T) {
			for i, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					co, shutdown := startCluster(t, NewLoopback(), testConfig(t, 4, 2, 4), sites)
					defer shutdown()
					ctx := context.Background()
					if err := co.Start(ctx); err != nil {
						t.Fatal(err)
					}
					if err := co.Run(ctx, 2*time.Hour); err != nil {
						t.Fatal(err)
					}
					stream, err := co.Client().Query(ctx, c.spec)
					if err != nil {
						t.Fatal(err)
					}
					if err := co.Run(ctx, c.run); err != nil {
						t.Fatal(err)
					}
					var rounds []query.SetResult
					for res := range stream.Results() {
						rounds = append(rounds, res)
					}
					if len(rounds) != c.rounds || len(want[i]) != c.rounds {
						t.Fatalf("delivered %d rounds (in-process %d), want %d (Until/Every)", len(rounds), len(want[i]), c.rounds)
					}
					for k, r := range rounds {
						if w := want[i][k]; r.Seq != w.Seq || r.At != w.At || r.Value != w.Value || r.ErrBound != w.ErrBound ||
							r.Count != w.Count || !sameResults(r.Results, w.Results) {
							t.Fatalf("round %d: cluster seq %d at %v = %v ± %v (n=%d) %v, in-process seq %d at %v = %v ± %v (n=%d) %v",
								k, r.Seq, r.At, r.Value, r.ErrBound, r.Count, r.Results, w.Seq, w.At, w.Value, w.ErrBound, w.Count, w.Results)
						}
						if r.Seq != k {
							t.Fatalf("round %d has seq %d", k, r.Seq)
						}
						if r.Err != nil || r.Failed != 0 || len(r.SiteErrs) != 0 {
							t.Fatalf("round %d not clean: %+v", k, r)
						}
						if k > 0 && r.At != rounds[k-1].At+simtime.Time(c.every) {
							t.Fatalf("round %d at %v, want exact %v cadence", k, r.At, c.every)
						}
						if c.spec.Type == query.Now {
							if len(r.Results) != 8 {
								t.Fatalf("round %d: %d per-mote results, want 8", k, len(r.Results))
							}
							continue
						}
						// A trailing 1h window over 1-minute sampling holds ~60
						// samples per mote; a fixed-from-zero window would grow
						// past that.
						if r.Count == 0 || r.Count/8 > 70 {
							t.Fatalf("round %d: %d samples over 8 motes — window empty or not trailing", k, r.Count)
						}
					}
				})
			}
		})
	}
}

// sameResults reports whether two rounds' per-mote answers are equal
// entry for entry.
func sameResults(a, b []query.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Query.Mote != b[i].Query.Mote || a[i].Answer.Source != b[i].Answer.Source ||
			!slices.Equal(a[i].Answer.Entries, b[i].Answer.Entries) {
			return false
		}
	}
	return true
}

// TestClusterSiteDropMidScatter is the fault-injection acceptance: a
// site that dies after receiving a scatter frame (mid-round, response
// never sent) must surface as an explicit per-site error with the other
// sites' partials intact — not a hang, not a silent total.
func TestClusterSiteDropMidScatter(t *testing.T) {
	tr := NewLoopback()
	cfg := testConfig(t, 4, 2, 4)
	co, err := Listen(tr, "", cfg, Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// A saboteur site: completes the handshake and serves Start, then
	// closes its connection the moment a scatter arrives.
	ready := make(chan struct{})
	go func() {
		conn, err := tr.Dial(co.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send(wire.Frame{Kind: wire.FrameHello,
			Payload: wire.EncodeHello(wire.Hello{Version: wire.ProtoVersion, ConfigHash: configHash(cfg)})})
		if f, err := conn.Recv(); err != nil || f.Kind != wire.FrameAssign {
			t.Errorf("handshake: %v %v", f.Kind, err)
			return
		}
		close(ready)
		for {
			f, err := conn.Recv()
			if err != nil {
				return
			}
			switch f.Kind {
			case wire.FrameStart:
				conn.Send(wire.Frame{Kind: wire.FrameStartAck, Seq: f.Seq, Payload: []byte{1}})
			case wire.FrameScatter:
				conn.Close() // die mid-round
				return
			default:
				t.Errorf("saboteur got %v", f.Kind)
				return
			}
		}
	}()
	if err := co.AcceptSites(context.Background()); err != nil {
		t.Fatal(err)
	}
	<-ready
	ctx := context.Background()
	if err := co.Start(ctx); err != nil {
		t.Fatal(err)
	}
	co.local.Run(2 * time.Hour) // only the local window advances; enough for data

	done := make(chan query.SetResult, 1)
	go func() {
		res, err := co.Client().QueryOne(ctx, query.Spec{Type: query.Agg, Agg: query.Mean, T1: simtime.Hour, Precision: 0.5})
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()
	var res query.SetResult
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("coordinator hung on a dropped site")
	}
	if len(res.SiteErrs) != 1 || res.SiteErrs[0].Site != 1 || res.SiteErrs[0].Err == nil {
		t.Fatalf("want one explicit error for site 1, got %+v", res.SiteErrs)
	}
	// Site 1 hosted domains 2-3 (motes 5-8): its 4 motes failed, the
	// local window's 4 still answered.
	if res.Failed != 4 {
		t.Fatalf("failed motes = %d, want 4", res.Failed)
	}
	if res.Count == 0 || res.Err != nil {
		t.Fatalf("local partials lost: %+v", res)
	}

	// The dead site stays dead: the next round fails fast, no hang.
	res2, err := co.Client().QueryOne(ctx, query.Spec{Type: query.Now, Precision: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.SiteErrs) != 1 || len(res2.Results) != 4 {
		t.Fatalf("subsequent round: %+v", res2)
	}
}

// TestClusterUnjoinedSite: from Listen on, a site that has not joined is
// a member like any other that fails every call with a typed error, the
// way a dead site does — Start reports it, Run skips it, Health reports
// it dead, a query answers with its motes Failed and a SiteErrs entry,
// and a migration to it is refused with the domain left where it was.
func TestClusterUnjoinedSite(t *testing.T) {
	co, err := Listen(NewLoopback(), "", testConfig(t, 4, 2, 4), Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx := context.Background()
	if err := co.Start(ctx); !errors.Is(err, errNotJoined) {
		t.Fatalf("Start with an unjoined site: %v", err)
	}
	if err := co.Run(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	if h := co.Health(); len(h.Sites) != 2 || !h.Sites[0].Alive || h.Sites[1].Alive {
		t.Fatalf("health before join: %+v", h)
	}
	res, err := co.Client().QueryOne(ctx, query.Spec{Type: query.Agg, Agg: query.Mean, T1: simtime.Hour, Precision: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.SiteErrs) != 1 || res.SiteErrs[0].Site != 1 || !errors.Is(res.SiteErrs[0].Err, errNotJoined) {
		t.Fatalf("want one not-joined error for site 1, got %+v", res.SiteErrs)
	}
	if res.Failed != 4 || res.Count == 0 {
		t.Fatalf("want site 1's 4 motes failed and site 0's answered: %+v", res)
	}
	if err := co.MigrateDomain(ctx, 0, 1); !errors.Is(err, errNotJoined) {
		t.Fatalf("migration to an unjoined site: %v", err)
	}
	if h := co.Health(); h.Migrations != 0 || !slices.Equal(h.Sites[0].Domains, []int{0, 1}) {
		t.Fatalf("health after refused migration: %+v", h)
	}
}

// TestClusterWiredReplicaOverTransport: with WiredFirstProxy on, a
// remote site's confirmed data rides FrameBridge over the transport into
// the coordinator's replica proxy.
func TestClusterWiredReplicaOverTransport(t *testing.T) {
	cfg := testConfig(t, 2, 2, 2)
	cfg.WiredFirstProxy = true
	co, shutdown := startCluster(t, NewLoopback(), cfg, 2)
	defer shutdown()
	ctx := context.Background()
	if err := co.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	st := co.SiteStats()[0]
	if st.RecvKind[wire.FrameBridge] == 0 {
		t.Fatal("no bridge frames crossed the transport")
	}
	if _, delivered := co.Network().Bridge().Stats(); delivered == 0 {
		t.Fatal("bridge frames arrived but were never delivered to the replica domain")
	}
}

// TestClusterErrNoMotes: an empty selection is a typed submission error,
// cluster and single-process alike.
func TestClusterErrNoMotes(t *testing.T) {
	co, shutdown := startCluster(t, NewLoopback(), testConfig(t, 2, 2, 2), 2)
	defer shutdown()
	none := query.SelectWhere(func(radio.NodeID) bool { return false })
	_, err := co.SubmitSpec(context.Background(), query.Spec{Type: query.Now, Precision: 1, Select: none})
	if !errors.Is(err, query.ErrNoMotes) {
		t.Fatalf("cluster: got %v, want ErrNoMotes", err)
	}
}

// TestClusterRejectsMismatchedDeployment: a site launched with different
// deployment parameters is refused at join time.
func TestClusterRejectsMismatchedDeployment(t *testing.T) {
	tr := NewLoopback()
	cfg := testConfig(t, 2, 2, 2)
	co, err := Listen(tr, "", cfg, Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	bad := cfg
	bad.Seed = 99
	serveErr := make(chan error, 1)
	go func() { serveErr <- Serve(context.Background(), tr, co.Addr(), bad) }()
	if err := co.AcceptSites(context.Background()); err == nil {
		t.Fatal("coordinator accepted a mismatched site")
	}
	if err := <-serveErr; err == nil {
		t.Fatal("mismatched site joined successfully")
	}
}

// TestConfigHashCoversDeployment changes one deployment-defining field
// at a time: each change must move the join fingerprint, or a site
// launched with it would join cleanly and diverge.
func TestConfigHashCoversDeployment(t *testing.T) {
	base := testConfig(t, 2, 2, 2)
	streamAll := baseline.StreamAll()
	for _, tc := range []struct {
		name string
		edit func(*core.Config)
	}{
		{"Seed", func(c *core.Config) { c.Seed++ }},
		{"Proxies", func(c *core.Config) { c.Proxies++ }},
		{"MotesPerProxy", func(c *core.Config) { c.MotesPerProxy++ }},
		{"Shards", func(c *core.Config) { c.Shards++ }},
		{"Radio", func(c *core.Config) { c.Radio.LossProb = 0.1 }},
		{"SampleInterval", func(c *core.Config) { c.SampleInterval *= 2 }},
		{"LPLInterval", func(c *core.Config) { c.LPLInterval *= 2 }},
		{"Flash", func(c *core.Config) { c.Flash.NumBlocks *= 2 }},
		{"Delta", func(c *core.Config) { c.Delta = 0.5 }},
		{"MoteSampleIntervals", func(c *core.Config) { c.MoteSampleIntervals = make([]time.Duration, 4) }},
		{"MoteDeltas", func(c *core.Config) { c.MoteDeltas = []float64{0, 0, 0, 2} }},
		{"StoreBackend", func(c *core.Config) { c.StoreBackend = "flash" }},
		{"StoreFlash", func(c *core.Config) { c.StoreFlash.NumBlocks = 64 }},
		{"StoreAging", func(c *core.Config) { c.StoreAging = "uniform" }},
		{"Preset", func(c *core.Config) { c.Preset = &streamAll }},
		{"Traces", func(c *core.Config) { c.Traces = c.Traces[:3] }},
		{"TraceValue", func(c *core.Config) {
			tr := *c.Traces[0]
			tr.Values = slices.Clone(tr.Values)
			tr.Values[7]++
			c.Traces = append([]*gen.Trace{&tr}, c.Traces[1:]...)
		}},
		{"WiredFirstProxy", func(c *core.Config) { c.WiredFirstProxy = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.edit(&cfg)
			if configHash(cfg) == configHash(base) {
				t.Errorf("changing %s leaves the config hash at %x", tc.name, configHash(base))
			}
		})
	}
}

// TestSiteWindowPartition pins the contiguous split arithmetic.
func TestSiteWindowPartition(t *testing.T) {
	for _, tc := range []struct{ shards, sites int }{{4, 2}, {5, 2}, {7, 3}, {3, 3}, {1, 1}} {
		covered := 0
		prevEnd := 0
		for s := 0; s < tc.sites; s++ {
			first, count := siteWindow(tc.shards, tc.sites, s)
			if first != prevEnd || count < 1 {
				t.Fatalf("shards=%d sites=%d site=%d: window [%d,+%d) not contiguous from %d",
					tc.shards, tc.sites, s, first, count, prevEnd)
			}
			prevEnd = first + count
			covered += count
		}
		if covered != tc.shards {
			t.Fatalf("shards=%d sites=%d: windows cover %d", tc.shards, tc.sites, covered)
		}
	}
}

// TestLoopbackAndTCPTransportBasics: frames round-trip, counters count,
// close unblocks Recv.
func TestTransportBasics(t *testing.T) {
	for name, tr := range map[string]Transport{"loopback": NewLoopback(), "tcp": TCP{}} {
		t.Run(name, func(t *testing.T) {
			lis, err := tr.Listen(clusterAddr(tr))
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			accepted := make(chan Conn, 1)
			go func() {
				c, err := lis.Accept()
				if err != nil {
					t.Error(err)
					return
				}
				accepted <- c
			}()
			client, err := tr.Dial(lis.Addr())
			if err != nil {
				t.Fatal(err)
			}
			server := <-accepted
			want := wire.Frame{Kind: wire.FrameScatter, Seq: 42, Payload: []byte{1, 2, 3}}
			if err := client.Send(want); err != nil {
				t.Fatal(err)
			}
			got, err := server.Recv()
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != want.Kind || got.Seq != want.Seq || len(got.Payload) != 3 {
				t.Fatalf("frame round-trip: %+v", got)
			}
			cs, ss := client.Stats(), server.Stats()
			if cs.SentKind[wire.FrameScatter] != 1 || ss.RecvKind[wire.FrameScatter] != 1 {
				t.Fatalf("counters: sent %+v recv %+v", cs.SentKind, ss.RecvKind)
			}
			client.Close()
			if _, err := server.Recv(); err == nil {
				t.Fatal("Recv survived peer close")
			}
			server.Close()
		})
	}
}

// TestTCPRecvBackToBack: frames sent back to back read back in order
// through one buffered reader, in both the reused-buffer and the
// fresh-buffer modes — including a frame larger than the read buffer,
// and, in fresh mode, earlier frames' payloads surviving later reads.
func TestTCPRecvBackToBack(t *testing.T) {
	frames := []wire.Frame{
		{Kind: wire.FrameAdvance, Seq: 1, Payload: []byte{1}},
		{Kind: wire.FrameScatter, Seq: 2, Payload: []byte("abc")},
		{Kind: wire.FramePartials, Seq: 300, Payload: bytes.Repeat([]byte{9}, 3*tcpReadBuffer+5)},
		{Kind: wire.FrameAdvanceAck, Seq: 301},
		{Kind: wire.FrameBridge, Seq: 1 << 40, Payload: bytes.Repeat([]byte{4}, 700)},
	}
	for _, reuse := range []bool{true, false} {
		t.Run(fmt.Sprintf("reuse=%v", reuse), func(t *testing.T) {
			lis, err := TCP{}.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer lis.Close()
			sent := make(chan error, 1)
			go func() {
				c, err := TCP{}.Dial(lis.Addr())
				if err != nil {
					sent <- err
					return
				}
				defer c.Close()
				for _, f := range frames {
					if err := c.Send(f); err != nil {
						sent <- err
						return
					}
				}
				sent <- nil
			}()
			server, err := lis.Accept()
			if err != nil {
				t.Fatal(err)
			}
			defer server.Close()
			if reuse {
				server.(RecvBufReuser).ReuseRecvBuffer()
			}
			var got []wire.Frame
			for i, want := range frames {
				f, err := server.Recv()
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if f.Kind != want.Kind || f.Seq != want.Seq || !bytes.Equal(f.Payload, want.Payload) {
					t.Fatalf("frame %d: got %v/%d/%d bytes, want %v/%d/%d bytes",
						i, f.Kind, f.Seq, len(f.Payload), want.Kind, want.Seq, len(want.Payload))
				}
				got = append(got, f)
			}
			if err := <-sent; err != nil {
				t.Fatal(err)
			}
			if !reuse {
				for i, f := range got {
					if !bytes.Equal(f.Payload, frames[i].Payload) {
						t.Fatalf("frame %d's payload changed under later reads", i)
					}
				}
			}
			if st := server.Stats(); st.Recv != uint64(len(frames)) {
				t.Fatalf("counted %d frames received, want %d", st.Recv, len(frames))
			}
		})
	}
}

// buildFailure keeps error paths honest: impossible windows are refused.
func TestClusterOptionValidation(t *testing.T) {
	cfg := testConfig(t, 2, 2, 2)
	if _, err := Listen(NewLoopback(), "", cfg, Options{Sites: 3}); err == nil {
		t.Fatal("3 sites accepted for 2 domains")
	}
	if _, err := Listen(NewLoopback(), "", cfg, Options{Sites: 0}); err == nil {
		t.Fatal("0 sites accepted")
	}
	win := cfg
	win.SiteShards = 1
	if _, err := Listen(NewLoopback(), "", win, Options{Sites: 2}); err == nil {
		t.Fatal("pre-windowed config accepted")
	}
}
