// Elder care: the paper's activity-monitoring scenario (§6) — "daily
// activity patterns tend to be mostly predictable, with occasional
// unpredictable events or patterns that need to be explicitly reported to
// proxies".
//
// A wearable activity sensor samples step counts every five minutes. The
// daily routine (sleep, meals, walks) trains well, so the mote stays
// almost silent; a routine break — hours of unexpected inactivity during
// the day, the signature a fall detector watches for — violates the model
// and is pushed to the proxy within one sample period. The example
// measures how quickly the anomaly surfaced and what a week of monitoring
// cost the wearable.
//
// Run with: go run ./examples/eldercare
package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"presto/internal/cache"
	"presto/internal/core"
	"presto/internal/energy"
	"presto/internal/gen"
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
	// Two weeks of activity with exactly the anomaly rate we want.
	actCfg := gen.DefaultActivityConfig()
	actCfg.Days = 14
	actCfg.AnomaliesPerWeek = 2
	trace, err := gen.Activity(actCfg)
	if err != nil {
		return err
	}
	if len(trace.Events) == 0 {
		return errors.New("no anomalies generated; try another seed")
	}

	cfg := core.DefaultConfig()
	cfg.MotesPerProxy = 1
	cfg.SampleInterval = actCfg.Interval
	cfg.Delta = 15 // steps-per-interval tolerance
	cfg.Traces = []*gen.Trace{trace}
	net, err := core.Build(cfg)
	if err != nil {
		return err
	}
	defer net.Close()

	// Train on the first three days of routine.
	if _, err := net.Bootstrap(72*time.Hour, 48, 15); err != nil {
		return err
	}
	net.Run(14*24*time.Hour - 72*time.Hour)

	// How quickly did each post-training anomaly surface at the proxy?
	p, err := net.ProxyFor(1)
	if err != nil {
		return err
	}
	series, _ := p.Series(1)
	fmt.Fprintln(w, "anomaly detection (unexpected inactivity):")
	detected := 0
	for _, ev := range trace.Events {
		start := trace.At(ev.Index)
		if start < 72*simtime.Hour {
			continue // inside the training stream
		}
		end := trace.At(ev.Index + ev.Length - 1)
		var lat simtime.Time = -1
		for _, e := range series.Range(start, end) {
			if e.Source != cache.Predicted {
				lat = e.T - start
				break
			}
		}
		if lat >= 0 {
			detected++
			fmt.Fprintf(w, "  anomaly at %v (%.0fh of inactivity): reported after %v\n",
				start, float64(ev.Length)*actCfg.Interval.Hours(), lat)
		} else {
			fmt.Fprintf(w, "  anomaly at %v: NOT detected\n", start)
		}
	}
	if detected == 0 {
		return errors.New("no anomalies detected after training")
	}

	// The caregiver checks this morning's activity level: a declarative
	// aggregate spec through the client facade.
	res, err := net.Client().QueryOne(context.Background(), query.Spec{
		Type: query.Agg, Select: query.SelectMotes(1),
		T0: net.Now() - 6*simtime.Hour, T1: net.Now(),
		Precision: 15, Agg: query.Mean,
	})
	if err == nil {
		err = res.Err
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nmean activity over the last 6h: %.1f ± %.1f steps/interval (%d samples)\n",
		res.Value, res.ErrBound, res.Count)

	// Wearable battery story.
	m, _ := net.MoteEnergy(1)
	perDay := m.Total() / 14
	fmt.Fprintf(w, "wearable energy: %.2f J/day → ~%.0f days on 2xAA\n",
		perDay, energy.Lifetime(energy.AABatteryJ, perDay, 24*time.Hour).Hours()/24)
	st, _ := net.MoteStats(1)
	fmt.Fprintf(w, "radio messages: %d pushes over %d samples (%.2f%% of samples)\n",
		st.Pushes, st.Samples, 100*float64(st.Pushes)/float64(st.Samples))
	return nil
}
