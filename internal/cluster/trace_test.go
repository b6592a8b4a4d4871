package cluster

import (
	"context"
	"testing"
	"time"

	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/wire"
)

// TestClusterTraceOverTCP proves the protocol-v4 trace contract on a
// real TCP cluster: a traced multi-site AGG answers identically to an
// untraced one and comes back with a routing decision for every mote —
// the remote motes' decisions having crossed the wire in the partials'
// route section — while untraced frames stay byte-identical to v3
// (zero wire overhead when tracing is off).
func TestClusterTraceOverTCP(t *testing.T) {
	const sites = 2
	co, shutdown := startCluster(t, TCP{}, testConfig(t, 4, 2, 4), sites)
	defer shutdown()
	ctx := context.Background()
	if err := co.Start(ctx); err != nil {
		t.Fatal(err)
	}
	if err := co.Run(ctx, 4*time.Hour); err != nil {
		t.Fatal(err)
	}

	spec := query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: 2 * time.Hour}
	wireBytes := func() (scatter, partials []uint64) {
		for _, st := range co.SiteStats() {
			scatter = append(scatter, st.SentKindBytes[wire.FrameScatter])
			partials = append(partials, st.RecvKindBytes[wire.FramePartials])
		}
		return
	}
	deltas := func(before, after []uint64) []uint64 {
		out := make([]uint64, len(before))
		for i := range before {
			out[i] = after[i] - before[i]
		}
		return out
	}

	// Two untraced rounds: the clock is frozen between them, so the
	// frames must cost exactly the same bytes — the v3 baseline.
	s0, p0 := wireBytes()
	ref, err := co.Client().QueryOne(ctx, spec)
	if err != nil || ref.Err != nil || ref.Count == 0 || len(ref.SiteErrs) != 0 {
		t.Fatalf("untraced aggregate unusable: %v / %+v", err, ref)
	}
	s1, p1 := wireBytes()
	if _, err := co.Client().QueryOne(ctx, spec); err != nil {
		t.Fatal(err)
	}
	s2, p2 := wireBytes()
	scatterPlain, partialsPlain := deltas(s0, s1), deltas(p0, p1)
	for i, d := range deltas(s1, s2) {
		if d != scatterPlain[i] {
			t.Fatalf("site %d: untraced scatter rounds cost %d then %d bytes — frames not deterministic", i+1, scatterPlain[i], d)
		}
	}
	for i, d := range deltas(p1, p2) {
		if d != partialsPlain[i] {
			t.Fatalf("site %d: untraced partials rounds cost %d then %d bytes", i+1, partialsPlain[i], d)
		}
	}

	// The traced round: same answer, a few extra bytes each way.
	tr := obs.NewTrace()
	res, err := co.Client().QueryOne(obs.WithTrace(ctx, tr), spec)
	if err != nil || res.Err != nil || len(res.SiteErrs) != 0 {
		t.Fatalf("traced aggregate unusable: %v / %+v", err, res)
	}
	if res.Value != ref.Value || res.ErrBound != ref.ErrBound || res.Count != ref.Count {
		t.Fatalf("tracing perturbed the answer: %+v vs %+v", res, ref)
	}
	s3, p3 := wireBytes()
	for i, d := range deltas(s2, s3) {
		extra := d - scatterPlain[i]
		if extra < 2 || extra > 11 {
			t.Fatalf("site %d: traced scatter grew by %d bytes, want the 2..11-byte trace id section", i+1, extra)
		}
	}
	for i, d := range deltas(p2, p3) {
		if d <= partialsPlain[i] {
			t.Fatalf("site %d: traced partials (%d bytes) no larger than untraced (%d) — route section missing", i+1, d, partialsPlain[i])
		}
	}

	// The merged trace names the pipeline stages...
	var haveScatter, haveMerge bool
	for _, sp := range tr.Spans() {
		haveScatter = haveScatter || sp.Name == "scatter"
		haveMerge = haveMerge || sp.Name == "merge"
	}
	if !haveScatter || !haveMerge {
		t.Fatalf("trace spans %+v lack scatter/merge", tr.Spans())
	}

	// ...and carries one routing decision per mote, each stamped with
	// the site that hosts the mote's domain — remote decisions having
	// ridden the TCP partials frame home.
	siteOfDomain := map[int]int{}
	for _, sh := range co.Health().Sites {
		for _, d := range sh.Domains {
			siteOfDomain[d] = sh.Site
		}
	}
	lay := co.Network().Layout()
	seen := map[int64]bool{}
	remote := 0
	for _, rt := range tr.Routes() {
		if rt.Kind == obs.RouteNone {
			t.Fatalf("route %+v has no decision", rt)
		}
		if seen[rt.Mote] {
			t.Fatalf("mote %d routed twice", rt.Mote)
		}
		seen[rt.Mote] = true
		if want := siteOfDomain[rt.Domain]; rt.Site != want {
			t.Fatalf("route %+v stamped site %d, but domain %d lives on site %d", rt, rt.Site, rt.Domain, want)
		}
		if rt.Site != 0 {
			remote++
		}
	}
	motes := lay.AllMotes()
	if len(seen) != len(motes) {
		t.Fatalf("trace routed %d motes, deployment has %d: %+v", len(seen), len(motes), tr.Routes())
	}
	for _, m := range motes {
		if !seen[int64(m)] {
			t.Fatalf("mote %d has no routing decision", m)
		}
	}
	if remote == 0 {
		t.Fatal("no routing decision crossed the wire from a remote site")
	}
}
