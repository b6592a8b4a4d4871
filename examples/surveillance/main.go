// Surveillance: the paper's archival-query scenario (§1) — "the ability
// to retroactively 'go back' is necessary to determine, for instance, how
// an intruder broke into a building".
//
// Eight door/window sensors stream semantic events (motion intensity).
// Rare intrusion events spike the signal; model-driven push reports them
// to the proxy immediately, while routine background fluctuations stay on
// the motes. After an "incident", the operator runs a PAST postmortem
// query over the incident window at tight precision: PRESTO pulls the
// full-resolution record from the mote archives and reconstructs the
// event timeline, publishing detections into the cross-proxy temporal
// index.
//
// Run with: go run ./examples/surveillance
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"presto/internal/cache"
	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/index"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/simtime"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, printing to w.
func run(w io.Writer) error {
	// Motion-intensity workload: quiet baseline, strong rare events.
	genCfg := gen.DefaultTempConfig()
	genCfg.Sensors = 8
	genCfg.Days = 5
	genCfg.BaseC = 2 // baseline "motion units"
	genCfg.DiurnalAmpC = 1
	genCfg.SeasonalAmpC = 0
	genCfg.NoiseStd = 0.2
	genCfg.EventsPerDay = 1.5
	genCfg.EventAmpC = 15
	genCfg.EventDur = 10 * time.Minute
	traces, err := gen.Temperature(genCfg)
	if err != nil {
		return err
	}

	cfg := core.DefaultConfig()
	cfg.Proxies = 2
	cfg.MotesPerProxy = 4
	cfg.Traces = traces
	cfg.WiredFirstProxy = true
	net, err := core.Build(cfg)
	if err != nil {
		return err
	}
	defer net.Close()
	if _, err := net.Bootstrap(30*time.Hour, 48, 1.0); err != nil {
		return err
	}

	// Live alerting: a standing watch on every sensor fires the moment a
	// strong intrusion push reaches a proxy — no polling, no extra mote
	// traffic, because model-driven push already reports exactly the
	// unpredictable samples.
	alerts := 0
	var firstAlertLatency simtime.Time = -1
	for _, p := range net.Proxies {
		for _, moteID := range p.Motes() {
			if _, err := p.Watch(moteID, proxy.Above(8), func(e proxy.WatchEvent) {
				alerts++
				if firstAlertLatency < 0 {
					firstAlertLatency = e.NotificationLatency()
				}
			}); err != nil {
				return err
			}
		}
	}

	// A standing query rides alongside the watches: one continuous NOW
	// spec over all eight sensors delivers a fleet snapshot every hour of
	// virtual time (each round is a single engine submission), the kind
	// of periodic situation report a guard console renders. Bounded by
	// Until, the stream closes itself after the surveillance window.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream, err := net.Client().Query(ctx, query.Spec{
		Type: query.Now, Precision: 1.0,
		Continuous: &query.Continuous{Every: time.Hour, Until: 3 * 24 * time.Hour},
	})
	if err != nil {
		return err
	}
	snapshots := 0
	peak := 0.0
	var peakAt simtime.Time
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for snap := range stream.Results() {
			snapshots++
			for _, r := range snap.Results {
				if v, ok := r.Answer.Value(); ok && v > peak {
					peak, peakAt = v, snap.At
				}
			}
		}
	}()

	net.Run(3 * 24 * time.Hour)
	<-streamDone // the bounded stream delivers its last round and closes
	fmt.Fprintf(w, "live watch: %d alerts; first alert surfaced %v after the sample was taken\n",
		alerts, firstAlertLatency)
	fmt.Fprintf(w, "standing query: %d hourly fleet snapshots; peak intensity %.1f at %v\n",
		snapshots, peak, peakAt)

	// Every push the proxies received is a candidate detection; publish
	// the strong ones into the shared temporal index (this is what a
	// camera proxy would do with classified object events).
	published := 0
	for pi, p := range net.Proxies {
		for _, moteID := range p.Motes() {
			series, _ := p.Series(moteID)
			for _, e := range series.Range(30*simtime.Hour, net.Now()) {
				if e.Source != cache.Predicted && e.V > 8 { // confirmed + strong
					err := net.Store.Publish(index.Detection{
						T: e.T, Mote: moteID, Proxy: index.ProxyID(pi),
						Kind: "intrusion", Value: e.V,
					})
					if err != nil {
						return err
					}
					published++
				}
			}
		}
	}
	fmt.Fprintf(w, "published %d intrusion detections into the temporal index\n", published)

	// The operator scans the global, time-ordered detection stream.
	dets := net.Store.Detections(0, net.Now())
	if len(dets) == 0 {
		return errors.New("no detections recorded")
	}
	first := dets[0]
	fmt.Fprintf(w, "earliest detection: mote %d via proxy %d at %v (intensity %.1f)\n",
		first.Mote, first.Proxy, first.T, first.Value)

	// Postmortem: pull the full-resolution archive around the first
	// detection at tight precision — "how did the intruder get in?".
	t0 := first.T - 15*simtime.Minute
	if t0 < 0 {
		t0 = 0
	}
	post, err := net.Client().QueryOne(context.Background(), query.Spec{
		Type: query.Past, Select: query.SelectMotes(first.Mote),
		T0: t0, T1: first.T + 15*simtime.Minute,
		Precision: 0.05,
	})
	if err != nil {
		return err
	}
	if len(post.Results) != 1 {
		return fmt.Errorf("postmortem answered %d results (%d motes failed)", len(post.Results), post.Failed)
	}
	res := post.Results[0]
	fmt.Fprintf(w, "postmortem: %d archive samples around the incident (source=%s, latency=%v)\n",
		len(res.Answer.Entries), res.Answer.Source, res.Latency())

	// Print the reconstructed intensity timeline around the onset.
	fmt.Fprintln(w, "timeline (5-sample steps):")
	for i := 0; i < len(res.Answer.Entries); i += 5 {
		e := res.Answer.Entries[i]
		bar := strings.Repeat("#", max(0, min(int(e.V), 40)))
		fmt.Fprintf(w, "  %8v  %6.2f %s\n", e.T, e.V, bar)
	}
	return nil
}
