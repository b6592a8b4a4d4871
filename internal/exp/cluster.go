package exp

import (
	"context"
	"fmt"
	"time"

	"presto/internal/cluster"
	"presto/internal/core"
	"presto/internal/query"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// E15Cluster runs the same deployment two ways — all domains in one
// process, and split across cluster sites over the loopback transport
// with real frames — and checks the distributed answer is bit-identical
// to the in-process one. The table prices what distribution costs: a
// multi-site AGG is one scatter frame per site (push-down partials, not
// per-mote traffic), and the advance-lease clock keeps the sites
// coherent while a standing trailing-window mean delivers every round.
func E15Cluster(sc Scale) (*Table, error) {
	sites := sc.Sites
	if sites <= 0 {
		sites = 2
	}
	const proxies, motesPer, shards = 4, 2, 4
	if sites > shards {
		return nil, fmt.Errorf("exp: %d sites for %d domains", sites, shards)
	}
	runFor := 6 * time.Hour
	traces, err := tempTraces(sc, proxies*motesPer)
	if err != nil {
		return nil, err
	}
	mkCfg := func() core.Config {
		cfg := defaultCfg(sc)
		cfg.Proxies = proxies
		cfg.MotesPerProxy = motesPer
		cfg.Shards = shards
		cfg.Traces = traces
		return cfg
	}
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: 2 * time.Hour}
	ctx := context.Background()

	// In-process reference.
	start := time.Now()
	n, err := core.Build(mkCfg())
	if err != nil {
		return nil, err
	}
	n.Start()
	n.Run(runFor)
	ref, err := n.Client().QueryOne(ctx, spec)
	n.Close()
	if err != nil {
		return nil, err
	}
	if ref.Err != nil {
		return nil, ref.Err
	}
	singleMS := time.Since(start).Seconds() * 1000

	// The same deployment as a cluster over loopback.
	start = time.Now()
	tr := cluster.NewLoopback()
	co, err := cluster.Listen(tr, "", mkCfg(), cluster.Options{Sites: sites})
	if err != nil {
		return nil, err
	}
	defer co.Close()
	serveCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	for i := 1; i < sites; i++ {
		go func() { _ = cluster.Serve(serveCtx, tr, co.Addr(), mkCfg()) }()
	}
	if err := co.AcceptSites(ctx); err != nil {
		return nil, err
	}
	if err := co.Start(ctx); err != nil {
		return nil, err
	}
	if err := co.Run(ctx, runFor); err != nil {
		return nil, err
	}
	res, err := co.Client().QueryOne(ctx, spec)
	if err != nil {
		return nil, err
	}
	if res.Err != nil {
		return nil, res.Err
	}
	if res.Value != ref.Value || res.ErrBound != ref.ErrBound || res.Count != ref.Count {
		return nil, fmt.Errorf("exp: cluster AGG %v±%v (n=%d) not bit-identical to in-process %v±%v (n=%d)",
			res.Value, res.ErrBound, res.Count, ref.Value, ref.ErrBound, ref.Count)
	}

	// A standing trailing mean across the cluster: rounds at exact
	// instants, one scatter frame per site per round.
	stream, err := co.Client().Query(ctx, query.Spec{
		Type: query.Agg, Agg: query.Mean, Precision: 0.5, Trailing: time.Hour,
		Continuous: &query.Continuous{Every: 30 * time.Minute, Until: 2 * time.Hour},
	})
	if err != nil {
		return nil, err
	}
	if err := co.Run(ctx, 3*time.Hour); err != nil {
		return nil, err
	}
	rounds := 0
	for range stream.Results() {
		rounds++
	}
	clusterMS := time.Since(start).Seconds() * 1000

	scatter := uint64(0)
	for _, st := range co.SiteStats() {
		scatter += st.SentKind[wire.FrameScatter]
	}
	t := &Table{
		Title: "E15: Multi-process cluster vs one process — same deployment, same answers",
		Note: fmt.Sprintf("%d proxies x %d motes in %d domains; AGG(mean) over trailing 2h at t=%v; "+
			"cluster = %d processes over loopback frames, no wired-replica bridge, so each advance lease "+
			"runs to the next standing-round instant or the Run target.",
			proxies, motesPer, shards, simtime.Time(runFor), sites),
		Headers: []string{"mode", "sites", "value", "+/-bound", "count", "scatter-frames", "cont-rounds", "ms"},
	}
	t.AddRow("in-process", "1", f2(ref.Value), f2(ref.ErrBound), fmt.Sprintf("%d", ref.Count), "-", "-", fmt.Sprintf("%.1f", singleMS))
	t.AddRow("cluster", fmt.Sprintf("%d", sites), f2(res.Value), f2(res.ErrBound), fmt.Sprintf("%d", res.Count),
		fmt.Sprintf("%d", scatter), fmt.Sprintf("%d", rounds), fmt.Sprintf("%.1f", clusterMS))
	return t, nil
}
