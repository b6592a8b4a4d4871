// Quickstart: the smallest useful PRESTO program.
//
// Builds a one-proxy, four-mote deployment over synthetic indoor
// temperature, bootstraps the prediction models (stream → train → switch
// to model-driven push), and poses declarative queries through the
// core.Client facade: a NOW query on one sensor, a PAST range query, and
// a building-wide aggregate over all four sensors that costs a single
// engine submission (each domain computes a partial aggregate; a merge
// stage combines them with honest error bounds).
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
	"presto/internal/simtime"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole walkthrough, printing to w.
func run(w io.Writer) error {
	ctx := context.Background()

	// 1. Synthetic workload: four co-located temperature sensors with a
	// diurnal cycle and the occasional unpredictable event.
	genCfg := gen.DefaultTempConfig()
	genCfg.Sensors = 4
	genCfg.Days = 4
	traces, err := gen.Temperature(genCfg)
	if err != nil {
		return err
	}

	// 2. Deployment: one tethered proxy managing four motes.
	cfg := core.DefaultConfig()
	cfg.MotesPerProxy = 4
	cfg.Traces = traces
	net, err := core.Build(cfg)
	if err != nil {
		return err
	}
	defer net.Close()

	// 3. Bootstrap: motes stream for 36 hours, the proxy trains a
	// seasonal-anchored model per mote and ships it with delta=1.0;
	// thereafter motes push only when the model misses by more than 1°.
	fmt.Fprintln(w, "bootstrapping (36h stream → train → model-driven push)...")
	if _, err := net.Bootstrap(36*time.Hour, 48, 1.0); err != nil {
		return err
	}

	// 4. Let the system run for another day of virtual time.
	net.Run(24 * time.Hour)
	c := net.Client()

	// 5. NOW query: "what is sensor 2 reading, within 1 degree?"
	r, err := one(c.QueryOne(ctx, query.Spec{
		Type: query.Now, Select: query.SelectMotes(2), Precision: 1.0,
	}))
	if err != nil {
		return err
	}
	v, _ := r.Answer.Value()
	truth, _ := net.Truth(2, r.Answer.DoneAt)
	fmt.Fprintf(w, "NOW  sensor 2: %.2f °C (truth %.2f) from %s in %v\n",
		v, truth, r.Answer.Source, r.Latency())

	// 6. PAST query: an hour from the model-driven period (after the
	// bootstrap stream) at 0.1-degree precision — tighter than delta, so
	// the proxy must pull from the mote's flash archive.
	t0 := net.Now() - simtime.Time(12*time.Hour)
	spec := query.Spec{
		Type: query.Past, Select: query.SelectMotes(1),
		T0: t0, T1: t0 + simtime.Hour, Precision: 0.1,
	}
	if r, err = one(c.QueryOne(ctx, spec)); err != nil {
		return err
	}
	fmt.Fprintf(w, "PAST sensor 1: %d samples from %s in %v\n",
		len(r.Answer.Entries), r.Answer.Source, r.Latency())

	// 7. The same range again now hits the refined cache.
	if r, err = one(c.QueryOne(ctx, spec)); err != nil {
		return err
	}
	fmt.Fprintf(w, "PAST again   : %d samples from %s in %v (cache refined by the pull)\n",
		len(r.Answer.Entries), r.Answer.Source, r.Latency())

	// 8. Set-valued query: the mean over the whole building for the last
	// six hours — all four motes, one engine submission, merged error
	// bound.
	agg, err := c.QueryOne(ctx, query.Spec{
		Type: query.Agg, Agg: query.Mean,
		T0: net.Now() - 6*simtime.Hour, T1: net.Now(), Precision: 1.0,
	})
	if err == nil {
		err = agg.Err
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "AGG  building mean over 6h: %.2f ± %.2f °C from %d observations (1 submission)\n",
		agg.Value, agg.ErrBound, agg.Count)

	// 9. What did all of this cost the motes?
	total := net.TotalMoteEnergy()
	days := net.Now().Hours() / 24
	fmt.Fprintf(w, "energy: %.2f J/day/mote — %s\n", total.Total()/4/days, total.String())
	return nil
}

// one unwraps the single result of a one-mote spec, failing if the query
// could not complete.
func one(res query.SetResult, err error) (query.Result, error) {
	if err == nil && len(res.Results) != 1 {
		err = fmt.Errorf("query answered %d results (%d motes failed)", len(res.Results), res.Failed)
	}
	if err != nil {
		return query.Result{}, err
	}
	return res.Results[0], nil
}
