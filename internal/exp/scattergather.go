package exp

import (
	"context"
	"fmt"
	"time"

	"presto/internal/core"
	"presto/internal/query"
	"presto/internal/simtime"
)

// E14ScatterGather prices a set-valued spec against the per-mote loop it
// replaces: "the mode of vibration across the building" posed as one
// N-mote query.Spec costs a single engine submission —
// each owning domain computes a partial aggregate and a merge stage
// combines them — where the loop pays one submission (and one
// client-side round trip) per mote. The table reports both at 1 and 4
// simulation domains, checking the merged answer agrees with the
// per-mote computation it replaces, and adds one continuous-spec row:
// a standing mean over all motes delivering on the simulation clock.
func E14ScatterGather(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "E14: Scatter-gather set queries — one submission vs a per-mote loop",
		Note:    "8-mote AGG(mean) over a 2h window; continuous = standing all-motes mean, one result per 30min of virtual time.",
		Headers: []string{"mode", "shards", "motes", "submissions", "value", "+/-bound", "rounds"},
	}
	for _, shards := range []int{1, 4} {
		rows, err := scatterGatherRows(sc, shards)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			t.AddRow(r...)
		}
	}
	return t, nil
}

func scatterGatherRows(sc Scale, shards int) ([][]string, error) {
	const proxies, motesPer = 4, 2
	traces, err := tempTraces(sc, proxies*motesPer)
	if err != nil {
		return nil, err
	}
	cfg := defaultCfg(sc)
	cfg.Proxies = proxies
	cfg.MotesPerProxy = motesPer
	cfg.Shards = shards
	cfg.Traces = traces
	n, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	if _, err := n.Bootstrap(36*time.Hour, 48, 1.0); err != nil {
		return nil, err
	}
	n.Run(6 * time.Hour)

	now := n.Now()
	t0, t1 := now-3*simtime.Hour, now-simtime.Hour
	ids := n.MoteIDs()

	// The loop: one single-mote spec (one engine submission) per mote,
	// the per-mote means merged by hand, weighted by observation count.
	c := n.Client()
	spec := query.Spec{Type: query.Agg, T0: t0, T1: t1, Precision: 0.5, Agg: query.Mean}
	before, _, _, _ := n.EngineStats()
	var loopVal, loopBound float64
	count := 0
	for _, id := range ids {
		one := spec
		one.Select = query.SelectMotes(id)
		res, err := c.QueryOne(context.Background(), one)
		if err != nil {
			return nil, err
		}
		if res.Err != nil {
			return nil, res.Err
		}
		loopVal += res.Value * float64(res.Count)
		loopBound += res.ErrBound * float64(res.Count)
		count += res.Count
	}
	mid, _, _, _ := n.EngineStats()
	loopVal /= float64(count)
	loopBound /= float64(count)

	// The same aggregate over all motes as one scatter-gather round.
	res, err := c.QueryOne(context.Background(), spec)
	if err != nil {
		return nil, err
	}
	after, _, _, _ := n.EngineStats()
	if res.Err != nil {
		return nil, res.Err
	}
	if d := res.Value - loopVal; d > 0.01 || d < -0.01 {
		return nil, fmt.Errorf("exp: scatter-gather mean %v disagrees with per-mote loop %v", res.Value, loopVal)
	}

	// Standing query: a continuous all-motes mean over the next 4h.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	st, err := c.Query(ctx, query.Spec{
		Type: query.Agg, T0: t0, T1: t1, Precision: 0.5, Agg: query.Mean,
		Continuous: &query.Continuous{Every: 30 * time.Minute, Until: 4 * time.Hour},
	})
	if err != nil {
		return nil, err
	}
	rounds := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range st.Results() {
			rounds++
		}
	}()
	n.Run(5 * time.Hour)
	<-done

	mk := func(mode string, subs uint64, val, bound float64, roundsCell string) []string {
		return []string{
			mode, fmt.Sprintf("%d", shards), fmt.Sprintf("%d", len(ids)),
			fmt.Sprintf("%d", subs), f2(val), f2(bound), roundsCell,
		}
	}
	return [][]string{
		mk("per-mote loop", mid-before, loopVal, loopBound, "-"),
		mk("scatter-gather", after-mid, res.Value, res.ErrBound, "-"),
		mk("continuous", uint64(rounds), res.Value, res.ErrBound, fmt.Sprintf("%d", rounds)),
	}, nil
}
