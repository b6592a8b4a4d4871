package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"presto/internal/query"
	"presto/internal/simtime"
)

// TestCheckpointDirRoundTrip: a cluster-wide checkpoint — lease instant,
// assignment, standing-stream state and every domain blob — survives
// WriteDir/LoadCheckpoint byte-for-byte.
func TestCheckpointDirRoundTrip(t *testing.T) {
	co, shutdown := startCluster(t, NewLoopback(), testConfig(t, 4, 2, 4), 2)
	defer shutdown()
	ctx := context.Background()
	if err := co.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	// An unbounded standing query so checkpoint has stream state to
	// persist; draining its delivered rounds ensures the shards are
	// quiescent before the snapshot requests land.
	stream, err := co.Client().Query(ctx, query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: time.Hour,
		Continuous: &query.Continuous{Every: 30 * time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if r := <-stream.Results(); r.Err != nil || len(r.SiteErrs) != 0 {
			t.Fatalf("round %d not clean: %+v", i, r)
		}
	}

	ck, err := co.CheckpointDomains(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ck.At != co.Now() {
		t.Fatalf("checkpoint at %v, lease clock %v", ck.At, co.Now())
	}
	if len(ck.Blobs) != 4 || len(ck.Streams) != 1 {
		t.Fatalf("checkpoint shape: %d blobs, %d streams", len(ck.Blobs), len(ck.Streams))
	}
	if st := ck.Streams[0]; st.Every != 30*simtime.Minute || st.Seq != 2 || st.Next <= ck.At {
		t.Fatalf("stream state: %+v", st)
	}
	if h := co.Health(); h.LastCheckpoint != ck.At {
		t.Fatalf("health does not report the checkpoint: %+v", h)
	}

	dir := t.TempDir()
	if err := ck.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.At != ck.At || got.ConfigHash != ck.ConfigHash || got.Quantum != ck.Quantum {
		t.Fatalf("meta differs: %+v vs %+v", got, ck)
	}
	for d := range ck.DomainSite {
		if got.DomainSite[d] != ck.DomainSite[d] {
			t.Fatalf("domain %d site %d, wrote %d", d, got.DomainSite[d], ck.DomainSite[d])
		}
		if !bytes.Equal(got.Blobs[d], ck.Blobs[d]) {
			t.Fatalf("domain %d blob differs after disk round-trip", d)
		}
	}
	gs, ws := got.Streams[0], ck.Streams[0]
	if gs.Every != ws.Every || gs.Until != ws.Until || gs.Next != ws.Next || gs.Seq != ws.Seq {
		t.Fatalf("stream state differs: %+v vs %+v", gs, ws)
	}
	// WriteDir re-indents the embedded spec; content must survive.
	var gj, wj bytes.Buffer
	if err := json.Compact(&gj, gs.SpecJSON); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wj, ws.SpecJSON); err != nil {
		t.Fatal(err)
	}
	if gj.String() != wj.String() || gj.Len() == 0 {
		t.Fatalf("spec JSON differs or empty: %q vs %q", gj.String(), wj.String())
	}
}

// TestMigrateValidation pins the refusal paths: bad domain, bad site,
// and a no-op move are typed errors, not state changes.
func TestMigrateValidation(t *testing.T) {
	co, shutdown := startCluster(t, NewLoopback(), testConfig(t, 4, 2, 4), 2)
	defer shutdown()
	ctx := context.Background()
	for _, tc := range []struct{ d, to int }{{-1, 0}, {4, 0}, {0, 2}, {0, -1}, {2, 1}} {
		if err := co.MigrateDomain(ctx, tc.d, tc.to); err == nil {
			t.Fatalf("MigrateDomain(%d, %d) accepted", tc.d, tc.to)
		}
	}
	if err := co.Rejoin(ctx); err == nil {
		t.Fatal("Rejoin without a checkpoint accepted")
	}
}

// TestClusterKillRejoinConverges is the chaos acceptance: a site killed
// mid-continuous-query is re-admitted with Rejoin, restored from the
// last checkpoint and replayed to the current lease instant — after
// which its rounds and a final one-shot aggregate are bit-identical to
// a control cluster that was never harmed.
func TestClusterKillRejoinConverges(t *testing.T) {
	ctx := context.Background()
	spec := query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: time.Hour,
		Continuous: &query.Continuous{Every: 30 * time.Minute, Until: 4 * time.Hour},
	}

	// Control: never killed. Same lease cadence as the chaos run.
	control, shutdownControl := startCluster(t, NewLoopback(), testConfig(t, 4, 2, 4), 2)
	defer shutdownControl()
	if err := control.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := control.Run(ctx, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	ctrlStream, err := control.Client().Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []time.Duration{time.Hour, time.Hour, 2 * time.Hour} {
		if err := control.Run(ctx, d); err != nil {
			t.Fatal(err)
		}
	}
	var want []query.SetResult
	for r := range ctrlStream.Results() {
		want = append(want, r)
	}
	if len(want) != 8 {
		t.Fatalf("control delivered %d rounds, want 8", len(want))
	}

	// Chaos: same deployment, but site 1 dies after round 2 and
	// re-joins two lease-hours later.
	tr := NewLoopback()
	cfg := testConfig(t, 4, 2, 4)
	co, err := Listen(tr, "", cfg, Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	siteCtx, killSite := context.WithCancel(ctx)
	firstServe := make(chan error, 1)
	go func() { firstServe <- Serve(siteCtx, tr, co.Addr(), cfg) }()
	if err := co.AcceptSites(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, 2*time.Hour); err != nil {
		t.Fatal(err)
	}
	// Checkpoint while everyone is alive: the re-join restore source.
	if _, err := co.CheckpointDomains(ctx); err != nil {
		t.Fatal(err)
	}
	stream, err := co.Client().Query(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	var got []query.SetResult
	if err := co.Run(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // rounds 0-1: collected clean before the kill
		got = append(got, <-stream.Results())
	}
	killSite()
	if err := <-firstServe; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("killed site exited with %v", err)
	}
	if err := co.Run(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // rounds 2-3: site 1 dark
		got = append(got, <-stream.Results())
	}
	if h := co.Health(); h.Sites[1].Alive {
		t.Fatal("health still reports the killed site alive")
	}

	// Restart the site process and re-admit it.
	secondServe := make(chan error, 1)
	go func() { secondServe <- Serve(ctx, tr, co.Addr(), cfg) }()
	if err := co.Rejoin(ctx); err != nil {
		t.Fatal(err)
	}
	if h := co.Health(); !h.Sites[1].Alive || h.Rejoins != 1 {
		t.Fatalf("health after re-join: %+v", h)
	}
	if err := co.Run(ctx, 2*time.Hour); err != nil { // rounds 4-7, recovered
		t.Fatal(err)
	}
	for r := range stream.Results() {
		got = append(got, r)
	}
	if len(got) != 8 {
		t.Fatalf("chaos run delivered %d rounds, want 8", len(got))
	}

	for i, w := range want {
		g := got[i]
		if g.At != w.At || g.Seq != w.Seq {
			t.Fatalf("round %d fired at %v/seq %d, control %v/%d", i, g.At, g.Seq, w.At, w.Seq)
		}
		if i >= 2 && i < 4 {
			// The dark window: explicit per-site failure, local half intact.
			if len(g.SiteErrs) != 1 || g.SiteErrs[0].Site != 1 || g.Failed != 4 {
				t.Fatalf("round %d during outage: %+v", i, g)
			}
			continue
		}
		if len(g.SiteErrs) != 0 || g.Failed != 0 {
			t.Fatalf("round %d not clean: %+v", i, g)
		}
		if g.Value != w.Value || g.ErrBound != w.ErrBound || g.Count != w.Count {
			t.Fatalf("round %d diverged after re-join: (%v ± %v, n=%d) vs control (%v ± %v, n=%d)",
				i, g.Value, g.ErrBound, g.Count, w.Value, w.ErrBound, w.Count)
		}
	}

	// Final one-shot over both windows: the re-joined site's state, not
	// just its round answers, matches the never-killed control.
	now := co.Now()
	one := query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5,
		T0: now - 3*simtime.Hour, T1: now - simtime.Hour}
	ref, err := control.Client().QueryOne(ctx, one)
	if err != nil {
		t.Fatal(err)
	}
	res, err := co.Client().QueryOne(ctx, one)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != ref.Value || res.ErrBound != ref.ErrBound || res.Count != ref.Count || len(res.SiteErrs) != 0 {
		t.Fatalf("post-rejoin aggregate (%v ± %v, n=%d) != control (%v ± %v, n=%d)",
			res.Value, res.ErrBound, res.Count, ref.Value, ref.ErrBound, ref.Count)
	}

	co.Close()
	if err := <-secondServe; err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("re-joined site exited with %v", err)
	}
}

// TestClusterRejoinAfterCancelledRejoin: a Rejoin whose ctx ends before
// any joiner arrives leaves its Accept for the next Rejoin to collect, so
// a site restarted in between is admitted by the retry instead of being
// swallowed.
func TestClusterRejoinAfterCancelledRejoin(t *testing.T) {
	ctx := context.Background()
	tr := NewLoopback()
	cfg := testConfig(t, 4, 2, 4)
	co, err := Listen(tr, "", cfg, Options{Sites: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	siteCtx, killSite := context.WithCancel(ctx)
	firstServe := make(chan error, 1)
	go func() { firstServe <- Serve(siteCtx, tr, co.Addr(), cfg) }()
	if err := co.AcceptSites(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := co.CheckpointDomains(ctx); err != nil {
		t.Fatal(err)
	}
	killSite()
	<-firstServe
	if err := co.Run(ctx, time.Hour); err != nil { // the lease finds site 1 dead
		t.Fatal(err)
	}

	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	err = co.Rejoin(short)
	cancel()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Rejoin with no joiner: %v", err)
	}
	secondServe := make(chan error, 1)
	go func() { secondServe <- Serve(ctx, tr, co.Addr(), cfg) }()
	retry, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := co.Rejoin(retry); err != nil {
		t.Fatalf("retried Rejoin: %v", err)
	}
	if h := co.Health(); !h.Sites[1].Alive || h.Rejoins != 1 {
		t.Fatalf("health after re-join: %+v", h)
	}
	co.Close()
	if err := <-secondServe; err != nil {
		t.Errorf("re-joined site exited with %v", err)
	}
}
