package cluster

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"presto/internal/core"
	"presto/internal/query"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// TestClusterFastCadence: a standing spec whose cadence outruns the
// advance quantum gets a lease per round instant — a lease never steps
// past a due round — so each round gathers at its instant with one
// FrameScatter/FramePartials pair per site, while delivery order, dense
// seqs, exact At cadence and per-round cleanliness all hold.
func TestClusterFastCadence(t *testing.T) {
	co, shutdown := startCluster(t, NewLoopback(), testConfig(t, 4, 2, 4), 2)
	defer shutdown()
	ctx := context.Background()
	if err := co.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}

	// Every=2s against the 10s default quantum: 40s of standing query
	// is 20 rounds, 20 leases and 20 scatter frames per site.
	start, leases := co.Now(), co.Leases()
	scatters := co.SiteStats()[0].SentKind[wire.FrameScatter]
	stream, err := co.Client().Query(ctx, query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 0.5,
		Trailing:   30 * time.Minute,
		Continuous: &query.Continuous{Every: 2 * time.Second, Until: 40 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, 40*time.Second); err != nil {
		t.Fatal(err)
	}
	var rounds []query.SetResult
	for res := range stream.Results() {
		rounds = append(rounds, res)
	}
	if len(rounds) != 20 {
		t.Fatalf("delivered %d rounds, want 20 (Until/Every)", len(rounds))
	}
	for i, r := range rounds {
		if r.Seq != i {
			t.Fatalf("round %d has seq %d — not dense in-order delivery", i, r.Seq)
		}
		if wantAt := start + simtime.Time(2*time.Second)*simtime.Time(i+1); r.At != wantAt {
			t.Fatalf("round %d at %v, want exact %v", i, r.At, wantAt)
		}
		if r.Err != nil || r.Failed != 0 || len(r.SiteErrs) != 0 {
			t.Fatalf("round %d not clean: %+v", i, r)
		}
		if r.Count == 0 {
			t.Fatalf("round %d: empty trailing window", i)
		}
	}
	if got := co.Leases() - leases; got != 20 {
		t.Fatalf("%d leases for 20 round instants, want one each", got)
	}
	for i, st := range co.SiteStats() {
		if got := st.SentKind[wire.FrameScatter] - scatters; got != 20 {
			t.Fatalf("site %d saw %d scatter frames, want one per round", i+1, got)
		}
		if got := st.SentKind[wire.FrameScatterBatch]; got != 0 {
			t.Fatalf("site %d saw %d scatter-batch frames, want every round at its own lease", i+1, got)
		}
		if got := st.RecvKind[wire.FramePartials]; got < 20 {
			t.Fatalf("site %d answered %d partials frames, want at least 20", i+1, got)
		}
	}
}

// TestPooledCodecsConcurrentSites hammers the pooled encode arenas and
// frame buffers from many concurrent connections over real sockets (the
// transport whose Send copies, so arenas recycle on the hot path). Every
// frame's decoded content is checked against what its sender encoded —
// an arena or read buffer recycled while still referenced shows up as a
// content mismatch here, or as a data race under -race.
func TestPooledCodecsConcurrentSites(t *testing.T) {
	lis, err := TCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()

	const sites = 8
	const frames = 300
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5, T1: simtime.Hour}

	expect := func(site, i int) float64 { return float64(site*100000 + i) }

	var wg sync.WaitGroup
	errs := make(chan error, 2*sites)

	// Server half: each accepted conn reuses one read buffer (the serve
	// loop contract: decode before the next Recv) and verifies payloads.
	for s := 0; s < sites; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := lis.Accept()
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			if r, ok := conn.(RecvBufReuser); ok {
				r.ReuseRecvBuffer()
			} else {
				errs <- fmt.Errorf("tcp conn does not support read-buffer reuse")
				return
			}
			// The sender's site index rides in the first frame's seq.
			site := -1
			for i := 0; i < frames; i++ {
				f, err := conn.Recv()
				if err != nil {
					errs <- fmt.Errorf("recv %d: %w", i, err)
					return
				}
				if site < 0 {
					site = int(f.Seq >> 32)
				}
				if int(f.Seq&0xffffffff) != i {
					errs <- fmt.Errorf("site %d frame %d: seq %d out of order", site, i, f.Seq)
					return
				}
				body, err := decodeReply(f)
				if err != nil {
					errs <- fmt.Errorf("site %d frame %d: %w", site, i, err)
					return
				}
				parts, err := query.DecodeRoundPartials(spec, body)
				if err != nil {
					errs <- fmt.Errorf("site %d frame %d: %w", site, i, err)
					return
				}
				want := expect(site, i)
				if len(parts) != 1 || parts[0].Domain != i%4 ||
					parts[0].Partial.Count != 1 || parts[0].Partial.Sum != want {
					errs <- fmt.Errorf("site %d frame %d corrupted: %+v (want sum %g)", site, i, parts, want)
					return
				}
			}
		}()
	}

	// Client half: each site encodes into pooled arenas, sends, and
	// returns the arena immediately — the recycle the pool test exists
	// to prove safe.
	for s := 0; s < sites; s++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			conn, err := TCP{}.Dial(lis.Addr())
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			sc, ok := conn.(SendCopier)
			if !ok || !sc.SendIsCopy() {
				errs <- fmt.Errorf("tcp conn does not copy sends; arenas must not recycle")
				return
			}
			for i := 0; i < frames; i++ {
				p := query.NewPartialFor(query.Spec{Type: query.Agg, Agg: query.Mean})
				p.Observe(expect(site, i), 0.25)
				parts := []query.RoundPartial{{Domain: i % 4, Partial: p}}
				arena := query.GetArena()
				body := append((*arena)[:0], 1)
				body = query.AppendRoundPartials(body, parts)
				err := conn.Send(wire.Frame{
					Kind: wire.FramePartials, Seq: uint64(site)<<32 | uint64(i), Payload: body,
				})
				*arena = body
				query.PutArena(arena)
				if err != nil {
					errs <- fmt.Errorf("site %d send %d: %w", site, i, err)
					return
				}
			}
		}(s)
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestClusterLeasesFollowBridge: a coordinator bounds a lease by its
// quantum only when the deployment has a wired-replica bridge, whose
// traffic crosses sites. An unwired 10-minute step with no round due is
// one lease; the same step wired is one lease per 10 s quantum. Both
// answer an AGG bit-identically to the in-process Network after the
// same steps.
func TestClusterLeasesFollowBridge(t *testing.T) {
	const warmup, step = 2 * time.Hour, 10 * time.Minute
	for _, tc := range []struct {
		name   string
		wired  bool
		leases uint64
	}{
		{"unwired", false, 1},
		{"wired", true, uint64(step / DefaultQuantum)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(t, 4, 2, 4)
			cfg.WiredFirstProxy = tc.wired

			single, err := core.Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer single.Close()
			single.Start()
			single.Run(warmup)
			single.Run(step)
			now := single.Now()
			spec := query.Spec{
				Type: query.Agg, Agg: query.Mean, Precision: 0.5,
				T0: now - 90*simtime.Minute, T1: now - 30*simtime.Minute,
			}
			ref, err := single.Client().QueryOne(context.Background(), spec)
			if err != nil || ref.Err != nil || ref.Count == 0 {
				t.Fatalf("reference aggregate unusable: %+v, %v", ref, err)
			}

			co, shutdown := startCluster(t, NewLoopback(), cfg, 2)
			defer shutdown()
			ctx := context.Background()
			if err := co.Start(ctx); err != nil {
				t.Fatal(err)
			}
			if err := co.Run(ctx, warmup); err != nil {
				t.Fatal(err)
			}
			leases := co.Leases()
			if err := co.Run(ctx, step); err != nil {
				t.Fatal(err)
			}
			if got := co.Leases() - leases; got != tc.leases {
				t.Fatalf("%v step issued %d leases, want %d", step, got, tc.leases)
			}
			if co.Now() != now {
				t.Fatalf("cluster clock %v != single-process %v", co.Now(), now)
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
		})
	}
}
