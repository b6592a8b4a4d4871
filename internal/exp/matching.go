package exp

import (
	"fmt"
	"time"

	"presto/internal/baseline"
	"presto/internal/predict"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// E8QueryMatching measures query–sensor matching (§3): translating a
// query workload's latency deadline into mote duty-cycle and batching
// parameters trades response latency for energy. For each deadline the
// planner picks an operating point; we run a day under it, measure mote
// energy and the latency of tight-precision (pull) queries, and check the
// deadline is honored.
func E8QueryMatching(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "E8: Query-sensor matching — deadline vs energy and measured latency",
		Note:    "Planner output per deadline; 20 pull queries per row; latency must stay under the deadline.",
		Headers: []string{"deadline", "LPL", "batch", "energy(J/day)", "max pull latency", "met"},
	}
	for _, deadline := range []time.Duration{2 * time.Second, 30 * time.Second, 10 * time.Minute, time.Hour} {
		row, err := matchingCell(sc, deadline)
		if err != nil {
			return nil, err
		}
		t.AddRow(row...)
	}
	return t, nil
}

func matchingCell(sc Scale, deadline time.Duration) ([]string, error) {
	traces, err := tempTraces(sc, 1)
	if err != nil {
		return nil, err
	}
	plan, err := predict.Match(predict.Workload{
		ArrivalPerHour: 10,
		Deadline:       deadline,
		Precision:      1.0,
	}, time.Minute)
	if err != nil {
		return nil, err
	}
	preset := baseline.ModelDriven(plan.Delta)
	n, err := buildNetLPL(sc, 1, &preset, traces, plan.LPLInterval)
	if err != nil {
		return nil, err
	}
	defer n.Close()
	if _, err := n.Bootstrap(36*time.Hour, 48, plan.Delta); err != nil {
		return nil, err
	}
	// Apply the full plan over the air (batching, codecs).
	if _, err := n.MatchWorkload(radio.NodeID(1), predict.Workload{
		ArrivalPerHour: 10, Deadline: deadline, Precision: 1.0,
	}); err != nil {
		return nil, err
	}
	n.Run(time.Minute)

	startEnergy, err := n.MoteEnergy(radio.NodeID(1))
	if err != nil {
		return nil, err
	}
	startJ := startEnergy.Total()
	startT := n.Now()

	// A day of operation with pull queries sprinkled in.
	var maxLatency time.Duration
	rng := n.Sim.Rand()
	for i := 0; i < 20; i++ {
		n.Run(time.Duration(30+rng.Intn(60)) * time.Minute)
		past := n.Now() - simtime.Time(time.Duration(1+rng.Intn(120))*time.Minute)
		res, err := queryMote(n, 1, query.Spec{Type: query.Past, T0: past, T1: past, Precision: 0.05})
		if err != nil {
			return nil, err
		}
		if res.Latency() > maxLatency {
			maxLatency = res.Latency()
		}
	}
	endEnergy, _ := n.MoteEnergy(radio.NodeID(1))
	elapsedDays := (n.Now() - startT).Hours() / 24
	perDay := (endEnergy.Total() - startJ) / elapsedDays

	met := "yes"
	if maxLatency > deadline {
		met = "NO"
	}
	return []string{
		deadline.String(),
		plan.LPLInterval.String(),
		plan.BatchInterval.String(),
		f2(perDay),
		fmt.Sprintf("%v", maxLatency.Round(time.Millisecond)),
		met,
	}, nil
}
