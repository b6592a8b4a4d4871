// Weather monitoring: the paper's "environmental weather patterns ...
// highly predictable in the common case" scenario (§6).
//
// Twelve outdoor sensors run for two weeks. The example contrasts the
// energy of streaming everything against PRESTO's model-driven push at
// two precisions, then demonstrates query–sensor matching: relaxing the
// notification deadline retunes the motes' duty cycle and batching over
// the air, cutting energy further.
//
// Run with: go run ./examples/weather
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"presto/internal/baseline"
	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/predict"
	"presto/internal/query"
)

const (
	sensors = 12
	days    = 14
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole example, printing to w.
func run(w io.Writer) error {
	genCfg := gen.DefaultTempConfig()
	genCfg.Sensors = sensors
	genCfg.Days = days
	genCfg.DiurnalAmpC = 6 // outdoor swings
	genCfg.SeasonalAmpC = 3
	traces, err := gen.Temperature(genCfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "weather deployment: %d sensors, %d days\n\n", sensors, days)
	fmt.Fprintf(w, "%-28s %14s %12s\n", "policy", "J/day/mote", "msgs/day")
	fmt.Fprintf(w, "%-28s %14s %12s\n", "------", "----------", "--------")

	for _, p := range []struct {
		name     string
		preset   baseline.Preset
		delta    float64       // 0 streams: no model to train
		deadline time.Duration // > 0 matches the motes to queries that tolerate it
	}{
		// Baseline: stream everything.
		{"stream-all", baseline.StreamAll(), 0, 0},
		// PRESTO at two precisions: looser queries → bigger delta →
		// fewer pushes.
		{"PRESTO delta=0.5", baseline.ModelDriven(0.5), 0.5, 0},
		{"PRESTO delta=2.0", baseline.ModelDriven(2.0), 2.0, 0},
		// Query–sensor matching: queries tolerate an hour of latency, so
		// the planner batches pushes and slows the duty cycle.
		{"PRESTO matched (1h deadline)", baseline.ModelDriven(1.0), 1.0, time.Hour},
	} {
		j, msgs, err := measure(traces, p.preset, p.delta, p.deadline)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-28s %14.2f %12.0f\n", p.name, j, msgs)
	}

	fmt.Fprintf(w, "\nstream-all vs PRESTO: the predictable diurnal pattern means the\n")
	fmt.Fprintf(w, "proxy can answer most queries from its model, so motes mostly sleep.\n")
	return nil
}

// measure runs one collection policy over the traces and returns its
// steady-state J/day/mote and messages/day/mote, counted from the end of
// the first two days (training, for a model-driven policy).
func measure(traces []*gen.Trace, preset baseline.Preset, delta float64, deadline time.Duration) (float64, float64, error) {
	cfg := core.DefaultConfig()
	cfg.MotesPerProxy = sensors
	cfg.Preset = &preset
	cfg.Traces = traces
	net, err := core.Build(cfg)
	if err != nil {
		return 0, 0, err
	}
	defer net.Close()
	if delta == 0 {
		net.Start()
		net.Run(48 * time.Hour)
	} else if _, err := net.Bootstrap(48*time.Hour, 48, delta); err != nil {
		return 0, 0, err
	}
	if deadline > 0 {
		w := predict.Workload{ArrivalPerHour: 4, Deadline: deadline, Precision: 1.0}
		for _, id := range net.MoteIDs() {
			if _, err := net.MatchWorkload(id, w); err != nil {
				return 0, 0, err
			}
		}
		net.Run(time.Minute) // plans propagate
	}
	startJ, startMsgs := totals(net)
	startT := net.Now()
	net.Run(time.Duration(days)*24*time.Hour - time.Duration(startT))
	d := (net.Now() - startT).Hours() / 24
	endJ, endMsgs := totals(net)
	j, msgs := (endJ-startJ)/d/sensors, float64(endMsgs-startMsgs)/d/sensors
	if deadline == 0 {
		return j, msgs, nil
	}

	// Sanity: the matched fleet still answers within precision — one NOW
	// spec over every mote costs one engine submission.
	res, err := net.Client().QueryOne(context.Background(), query.Spec{Type: query.Now, Precision: 1.0})
	if err == nil && (len(res.Results) != sensors || res.Failed != 0) {
		err = fmt.Errorf("fleet query answered %d/%d motes (%d failed)", len(res.Results), sensors, res.Failed)
	}
	return j, msgs, err
}

// totals is what the fleet has spent so far: joules and radio messages.
func totals(n *core.Network) (float64, uint64) {
	var msgs uint64
	for _, id := range n.MoteIDs() {
		st, _ := n.MoteStats(id) // every id is the network's own
		msgs += st.Pushes + st.Batches + st.PullsServed
	}
	m := n.TotalMoteEnergy()
	return m.Total(), msgs
}
