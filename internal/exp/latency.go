package exp

import (
	"fmt"
	"time"

	"presto/internal/baseline"
	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
	"presto/internal/simtime"
	"presto/internal/stats"
)

// E3QueryLatency measures the claim that proxy caching plus prediction
// gives interactive response times while direct sensor querying pays the
// duty-cycle tax on every query (Section 1: direct querying "renders the
// system unusable for interactive use due to the high latency").
//
// Three answer paths are measured on one PRESTO deployment, for several
// mote LPL intervals: cache/model answers (precision >= delta), archive
// pulls (precision < delta), and direct querying (precision 0 on a
// never-pushing mote — every query is a round trip).
func E3QueryLatency(sc Scale) (*Table, error) {
	traces, err := tempTraces(sc, 2)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "E3: Query latency by answer path vs mote duty cycle",
		Note:    "50 NOW/PAST queries per cell; cache/model answers are local, pulls pay one LPL rendezvous.",
		Headers: []string{"LPL interval", "cache/model mean", "pull mean", "pull p95", "direct mean"},
	}
	for _, lpl := range []time.Duration{500 * time.Millisecond, 2 * time.Second, 8 * time.Second} {
		cacheL, pullL, directL, err := latencyCell(sc, traces, lpl)
		if err != nil {
			return nil, err
		}
		cm := stats.Mean(cacheL)
		pm := stats.Mean(pullL)
		p95, _ := stats.Quantile(pullL, 0.95)
		dm := stats.Mean(directL)
		t.AddRow(lpl.String(),
			fmt.Sprintf("%.1f ms", cm*1000),
			fmt.Sprintf("%.0f ms", pm*1000),
			fmt.Sprintf("%.0f ms", p95*1000),
			fmt.Sprintf("%.0f ms", dm*1000))
	}
	return t, nil
}

// latencyCell returns latency samples in seconds for the three paths.
func latencyCell(sc Scale, traces []*gen.Trace, lpl time.Duration) (cacheL, pullL, directL []float64, err error) {
	preset := baseline.ModelDriven(1)
	n, err := buildNetLPL(sc, 1, &preset, traces[:1], lpl)
	if err != nil {
		return nil, nil, nil, err
	}
	defer n.Close()
	if _, err := n.Bootstrap(30*time.Hour, 48, 1.0); err != nil {
		return nil, nil, nil, err
	}
	n.Run(6 * time.Hour)
	rng := n.Sim.Rand()
	const queries = 50
	for i := 0; i < queries; i++ {
		n.Run(time.Duration(1+rng.Intn(5)) * time.Minute)
		// Cache/model path: precision >= delta.
		res, err := queryMote(n, 1, query.Spec{Type: query.Now, Precision: 1.0})
		if err != nil {
			return nil, nil, nil, err
		}
		cacheL = append(cacheL, res.Latency().Seconds())
		// Pull path: tighter than delta on a random past instant.
		past := n.Now() - simtime.Time(time.Duration(1+rng.Intn(240))*time.Minute)
		if past < 0 {
			past = 0
		}
		res, err = queryMote(n, 1, query.Spec{Type: query.Past, T0: past, T1: past, Precision: 0.05})
		if err != nil {
			return nil, nil, nil, err
		}
		pullL = append(pullL, res.Latency().Seconds())
	}

	// Direct querying on a separate never-pushing deployment.
	direct := baseline.ValueDriven(1e9)
	nd, err := buildNetLPL(sc, 1, &direct, traces[1:2], lpl)
	if err != nil {
		return nil, nil, nil, err
	}
	defer nd.Close()
	nd.Start()
	nd.Run(12 * time.Hour)
	for i := 0; i < queries; i++ {
		nd.Run(time.Duration(1+rng.Intn(5)) * time.Minute)
		res, err := queryMote(nd, 1, query.Spec{Type: query.Now, Precision: 0})
		if err != nil {
			return nil, nil, nil, err
		}
		directL = append(directL, res.Latency().Seconds())
	}
	return cacheL, pullL, directL, nil
}

// buildNetLPL builds a deployment with a specific mote LPL interval (the
// network preamble follows it, B-MAC style).
func buildNetLPL(sc Scale, motes int, preset *baseline.Preset, traces []*gen.Trace, lpl time.Duration) (*core.Network, error) {
	cfg := defaultCfg(sc)
	cfg.Proxies = 1
	cfg.MotesPerProxy = motes
	cfg.LPLInterval = lpl
	cfg.Radio.PreambleInterval = lpl
	cfg.Preset = preset
	cfg.Traces = traces
	return core.Build(cfg)
}
