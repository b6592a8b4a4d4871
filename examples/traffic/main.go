// Commuter traffic: the paper's traffic-querying scenario (§5–6) — "a
// traffic monitoring network requires a view that preserves the order in
// which moving vehicles are detected across a spatial region", served by
// the order-preserving distributed index, and "commuters can query the
// system to obtain quick responses".
//
// Six road sensors under two proxies count vehicles per 5-minute
// interval. Rush hours are predictable, so PRESTO models them; incidents
// (sudden flow collapse during rush) are pushed immediately. Proxies
// publish incident detections into the skip-graph-backed temporal index;
// the example reconstructs the cross-proxy incident timeline in global
// time order and answers commuter NOW queries from the cache/model.
//
// Run with: go run ./examples/traffic
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"presto/internal/cache"
	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/index"
	"presto/internal/query"
	"presto/internal/simtime"
)

const roadSensors = 6

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, printing to w.
func run(w io.Writer) error {
	// One independent trace per road sensor (different seeds shift
	// incident times).
	traces := make([]*gen.Trace, roadSensors)
	for i := range traces {
		c := gen.DefaultTrafficConfig()
		c.Days = 7
		c.Seed = int64(10 + i)
		c.IncidentsPerWeek = 2
		tr, err := gen.Traffic(c)
		if err != nil {
			return err
		}
		traces[i] = tr
	}

	cfg := core.DefaultConfig()
	cfg.Proxies = 2
	cfg.MotesPerProxy = roadSensors / 2
	cfg.SampleInterval = 5 * time.Minute
	cfg.Delta = 25 // vehicles-per-interval tolerance
	cfg.Traces = traces
	cfg.WiredFirstProxy = true
	net, err := core.Build(cfg)
	if err != nil {
		return err
	}
	defer net.Close()
	if _, err := net.Bootstrap(48*time.Hour, 96, 25); err != nil {
		return err
	}
	net.Run(5 * 24 * time.Hour)

	// Publish confirmed low-flow-during-rush pushes as incident
	// detections into the global temporal index.
	published := 0
	for pi, p := range net.Proxies {
		for _, moteID := range p.Motes() {
			series, _ := p.Series(moteID)
			for _, e := range series.Range(48*simtime.Hour, net.Now()) {
				hour := int(e.T.Hours()) % 24
				rush := (hour >= 7 && hour <= 9) || (hour >= 16 && hour <= 19)
				if e.Source != cache.Predicted && rush && e.V < 30 {
					if err := net.Store.Publish(index.Detection{
						T: e.T, Mote: moteID, Proxy: index.ProxyID(pi),
						Kind: "incident", Value: e.V,
					}); err != nil {
						return err
					}
					published++
				}
			}
		}
	}
	fmt.Fprintf(w, "published %d incident detections from 2 proxies\n", published)

	// Cross-proxy, time-ordered incident review.
	dets := net.Store.Detections(0, net.Now())
	fmt.Fprintf(w, "global incident timeline (%d entries, ordered across proxies):\n", len(dets))
	shown := 0
	var lastT simtime.Time = -1
	for _, d := range dets {
		if lastT >= 0 && d.T-lastT < 30*simtime.Minute {
			lastT = d.T
			continue // collapse bursts for display
		}
		lastT = d.T
		fmt.Fprintf(w, "  %9v  sensor %d (proxy %d): flow %.0f veh/5min\n", d.T, d.Mote, d.Proxy, d.Value)
		shown++
		if shown >= 8 {
			break
		}
	}

	// Commuter NOW queries: one declarative spec over the three sensors
	// on the commute — a single engine submission fans out per domain and
	// the per-mote answers come back merged in mote order.
	fmt.Fprintln(w, "\ncommuter query (current flow on 3 sensors, tolerance 25):")
	set, err := net.Client().QueryOne(context.Background(), query.Spec{
		Type: query.Now, Select: query.SelectMotes(net.MoteIDs()[:3]...), Precision: 25,
	})
	if err != nil {
		return err
	}
	for _, res := range set.Results {
		v, _ := res.Answer.Value()
		truth, _ := net.Truth(res.Query.Mote, res.Answer.DoneAt)
		fmt.Fprintf(w, "  sensor %d: %.0f veh/5min (truth %.0f) from %s in %v\n",
			res.Query.Mote, v, truth, res.Answer.Source, res.Latency())
	}

	total := net.TotalMoteEnergy()
	fmt.Fprintf(w, "\nmote energy over the week: %.2f J/day/mote\n",
		total.Total()/roadSensors/7)
	return nil
}
