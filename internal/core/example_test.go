package core_test

import (
	"context"
	"fmt"
	"math"
	"time"

	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
)

// Example shows the full PRESTO flow: build a deployment, bootstrap the
// models, and answer a NOW query locally with bounded error.
func Example() {
	genCfg := gen.DefaultTempConfig()
	genCfg.Sensors = 4
	genCfg.Days = 3
	genCfg.EventsPerDay = 0
	traces, err := gen.Temperature(genCfg)
	if err != nil {
		panic(err)
	}

	cfg := core.DefaultConfig()
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Traces = traces
	net, err := core.Build(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := net.Bootstrap(36*time.Hour, 48, 1.0); err != nil {
		panic(err)
	}
	net.Run(12 * time.Hour)

	set, err := net.Client().QueryOne(context.Background(), query.Spec{
		Type: query.Now, Select: query.SelectMotes(1), Precision: 1.0,
	})
	if err != nil {
		panic(err)
	}
	res := set.Results[0] // one result per selected mote
	v, _ := res.Answer.Value()
	truth, _ := net.Truth(1, res.Answer.DoneAt)
	fmt.Printf("answered locally: %v, within precision: %v\n",
		res.Latency() == 0, math.Abs(v-truth) <= 1.0)
	// Output: answered locally: true, within precision: true
}
