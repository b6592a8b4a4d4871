package exp

import (
	"fmt"
	"math"
	"time"

	"presto/internal/baseline"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/simtime"
)

// E6Extrapolation measures the claim that "extrapolated data can mask
// cache misses and answer queries so long as the query precision is met"
// (§3): the fraction of queries the proxy answers locally (cache hit or
// model extrapolation) as a function of push threshold delta and query
// precision, together with the observed answer error.
func E6Extrapolation(sc Scale) (*Table, error) {
	t := &Table{
		Title:   "E6: Extrapolation masks misses — local-answer rate vs delta and precision",
		Note:    "100 random past-point queries after bootstrap; local = answered without a mote pull.",
		Headers: []string{"delta", "precision", "local rate", "pulls", "max |err|", "mean |err|"},
	}
	for _, delta := range []float64{0.5, 1.0, 2.0} {
		for _, precision := range []float64{0.5, 1.0, 2.0} {
			cell, err := extrapolationCell(sc, delta, precision)
			if err != nil {
				return nil, err
			}
			t.AddRow(f2(delta), f2(precision), f2(cell.localRate),
				fmt.Sprintf("%d", cell.pulls), f2(cell.maxErr), f2(cell.meanErr))
		}
	}
	return t, nil
}

type e6Cell struct {
	localRate float64
	pulls     int
	maxErr    float64
	meanErr   float64
}

func extrapolationCell(sc Scale, delta, precision float64) (e6Cell, error) {
	traces, err := tempTraces(sc, 1)
	if err != nil {
		return e6Cell{}, err
	}
	preset := baseline.ModelDriven(delta)
	n, err := buildNet(sc, 1, &preset, traces, 0)
	if err != nil {
		return e6Cell{}, err
	}
	defer n.Close()
	if _, err := n.Bootstrap(36*time.Hour, 48, delta); err != nil {
		return e6Cell{}, err
	}
	// Observation window after bootstrap.
	n.Run(48 * time.Hour)
	tr := traces[0]
	rng := n.Sim.Rand()
	const queries = 100
	var cell e6Cell
	var errSum float64
	for i := 0; i < queries; i++ {
		// Random instant in the post-bootstrap window.
		offset := simtime.Time(36*simtime.Hour) + simtime.Time(rng.Int63n(int64(47*simtime.Hour)))
		res, err := queryMote(n, 1, query.Spec{Type: query.Past, T0: offset, T1: offset, Precision: precision})
		if err != nil {
			return e6Cell{}, err
		}
		switch res.Answer.Source {
		case proxy.FromCache, proxy.FromModel, proxy.FromArchive:
			// Answered without a mote rendezvous: cache, model
			// extrapolation, or the domain's archive backend.
			cell.localRate++
		default:
			cell.pulls++
		}
		if v, ok := res.Answer.Value(); ok {
			e := math.Abs(v - tr.Value(offset))
			errSum += e
			if e > cell.maxErr {
				cell.maxErr = e
			}
		}
	}
	cell.localRate /= queries
	cell.meanErr = errSum / queries
	return cell, nil
}
