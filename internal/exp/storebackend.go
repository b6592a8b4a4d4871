package exp

import (
	"fmt"
	"time"

	"presto/internal/core"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/simtime"
)

// E12StoreBackends compares the per-domain archival stores (the paper's
// claim that proxies keep a full archival store and answer queries from
// models plus a local archive): the same deployment and query mix runs
// once per store, reporting the answers' sources and the flash backend's
// log-structured costs — pages programmed/read, read amplification,
// compaction passes. On mem the proxy caches are the archive, so what the
// flash archive serves without touching the proxy query path, mem serves
// as cache answers.
func E12StoreBackends(sc Scale) (*Table, error) {
	t := &Table{
		Title: "E12: Store backends — archive vs model hit ratio and flash costs",
		Note:  "Same deployment and query mix per backend; archive-served = whole answer from the domain archive.",
		Headers: []string{"backend", "archive", "cache", "model", "pull", "archive hit",
			"read amp", "pages w/r", "compactions"},
	}
	for _, backend := range []string{"mem", "flash"} {
		row, err := storeBackendRow(sc, backend)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}

func storeBackendRow(sc Scale, backend string) ([]string, error) {
	motes := sc.Motes
	if motes > 4 {
		motes = 4
	}
	traces, err := tempTraces(sc, motes)
	if err != nil {
		return nil, err
	}
	cfg := defaultCfg(sc)
	cfg.Proxies = 1
	cfg.MotesPerProxy = motes
	cfg.Traces = traces
	cfg.StoreBackend = backend
	n, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	if _, err := n.Bootstrap(36*time.Hour, 48, 1.0); err != nil {
		return nil, err
	}
	n.Run(24 * time.Hour)

	// Query mix: range queries inside the streamed training window (the
	// archive covers them) and point queries in the model-driven window
	// (sparse pushes: cache/model/pull territory).
	bySource := map[proxy.Source]int{}
	rng := n.Sim.Rand()
	ids := n.MoteIDs()
	const queries = 60
	for i := 0; i < queries; i++ {
		id := ids[rng.Intn(len(ids))]
		var q query.Spec
		if i%2 == 0 {
			t0 := simtime.Time(2+rng.Intn(20)) * simtime.Hour
			q = query.Spec{Type: query.Past, T0: t0, T1: t0 + 4*simtime.Hour, Precision: 0.5}
		} else {
			at := simtime.Time(37+rng.Intn(20)) * simtime.Hour
			q = query.Spec{Type: query.Past, T0: at, T1: at, Precision: 0.5}
		}
		res, err := queryMote(n, id, q)
		if err != nil {
			return nil, err
		}
		bySource[res.Answer.Source]++
	}

	ss := n.StoreStats()
	bs := n.StoreBackendStats()
	hit := float64(ss.ArchiveServed) / float64(queries)
	return []string{
		backend,
		fmt.Sprintf("%d", bySource[proxy.FromArchive]),
		fmt.Sprintf("%d", bySource[proxy.FromCache]),
		fmt.Sprintf("%d", bySource[proxy.FromModel]),
		fmt.Sprintf("%d", bySource[proxy.FromPull]+bySource[proxy.FromTimeout]),
		f2(hit),
		f2(bs.ReadAmp()),
		fmt.Sprintf("%d/%d", bs.PagesWritten, bs.PagesRead),
		fmt.Sprintf("%d", bs.Compactions),
	}, nil
}
