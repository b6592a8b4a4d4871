package exp

import (
	"fmt"
	"time"

	"presto/internal/baseline"
	"presto/internal/compress"
	"presto/internal/gen"
	"presto/internal/model"
	"presto/internal/simtime"
)

// AblationModels isolates the model-family choice (A1 in All): at a
// fixed delta, how often does each model family force a push, and what is
// the proxy-side RMSE? Uses model.Evaluate directly (pure replay, no
// radio) so the comparison is exactly about predictive power.
func AblationModels(sc Scale) (*Table, error) {
	traces, err := tempTraces(sc, 1)
	if err != nil {
		return nil, err
	}
	tr := traces[0]
	recs := make([]model.Record, len(tr.Values))
	for i, v := range tr.Values {
		recs[i] = model.Record{T: tr.At(i), V: v}
	}
	half := len(recs) / 2
	train, test := recs[:half], recs[half:]
	seasonal, err := model.TrainSeasonal(train, 48, simtime.Day)
	if err != nil {
		return nil, err
	}
	anchored, err := model.TrainSeasonalAnchored(train, 48, simtime.Day)
	if err != nil {
		return nil, err
	}
	ar, err := model.TrainAR(train, 2, simtime.Minute)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:   "Ablation: model family vs push rate and proxy RMSE",
		Note:    fmt.Sprintf("delta=1.0; %d test samples; params bytes is the proxy→mote shipping cost.", len(test)),
		Headers: []string{"model", "pushes", "push rate", "proxy RMSE", "params(B)", "check cycles"},
	}
	for _, m := range []model.Model{model.ConstLast{}, seasonal, anchored, ar} {
		pushes, rmse := model.Evaluate(m, test, 1.0)
		t.AddRow(m.Name(),
			fmt.Sprintf("%d", pushes),
			f2(float64(pushes)/float64(len(test))),
			f2(rmse),
			fmt.Sprintf("%d", len(m.Marshal())),
			fmt.Sprintf("%d", m.CheckCycles()))
	}
	return t, nil
}

// AblationCompression isolates the codec choice on batched pushes: bytes
// on the wire and reconstruction error per mode at a fixed batch size.
func AblationCompression(sc Scale) (*Table, error) {
	traces, err := tempTraces(sc, 1)
	if err != nil {
		return nil, err
	}
	tr := traces[0]
	batch := tr.Values[:1024]
	t := &Table{
		Title:   "Ablation: batch codec vs wire bytes and error",
		Note:    "1024-sample batch of 1-min temperature.",
		Headers: []string{"codec", "bytes", "bytes/sample", "max |err|"},
	}
	for _, mode := range []compress.Mode{compress.Raw, compress.Delta, compress.WaveletDenoise} {
		codec := compress.Batch{Mode: mode, Quantum: 0.05, Threshold: 0.5}
		enc, err := codec.Encode(batch)
		if err != nil {
			return nil, err
		}
		dec, err := compress.Decode(enc)
		if err != nil {
			return nil, err
		}
		var maxErr float64
		for i := range batch {
			if d := abs(dec[i] - batch[i]); d > maxErr {
				maxErr = d
			}
		}
		t.AddRow(mode.String(), fmt.Sprintf("%d", len(enc)), f2(float64(len(enc))/float64(len(batch))), f2(maxErr))
	}
	return t, nil
}

// AblationRetrain isolates model staleness: a model trained once on early
// data pushes increasingly often as the seasonal drift moves away from
// the training window; periodic retraining keeps the push rate flat.
func AblationRetrain(sc Scale) (*Table, error) {
	c := gen.DefaultTempConfig()
	c.Days = sc.Days * 2
	if c.Days < 14 {
		c.Days = 14
	}
	c.Seed = sc.Seed
	c.SeasonalAmpC = 4 // strong drift to make staleness visible
	c.EventsPerDay = 0
	traces, err := gen.Temperature(c)
	if err != nil {
		return nil, err
	}
	tr := traces[0]
	recs := make([]model.Record, len(tr.Values))
	for i, v := range tr.Values {
		recs[i] = model.Record{T: tr.At(i), V: v}
	}
	perDay := 1440
	trainDays := 3

	t := &Table{
		Title:   "Ablation: retraining period vs push rate under seasonal drift",
		Note:    fmt.Sprintf("%d-day trace, 3-day training windows, delta=1.0.", c.Days),
		Headers: []string{"policy", "pushes/day (early)", "pushes/day (late)"},
	}
	// Stale: train once on days 0-2, evaluate first and last eval days.
	stale, err := model.TrainSeasonalAnchored(recs[:trainDays*perDay], 48, simtime.Day)
	if err != nil {
		return nil, err
	}
	earlyPushes, _ := model.Evaluate(stale, recs[trainDays*perDay:(trainDays+1)*perDay], 1.0)
	latePushes, _ := model.Evaluate(stale, recs[len(recs)-perDay:], 1.0)
	t.AddRow("train once", fmt.Sprintf("%d", earlyPushes), fmt.Sprintf("%d", latePushes))

	// Fresh: retrain on the 3 days preceding each eval day.
	fresh, err := model.TrainSeasonalAnchored(recs[len(recs)-(trainDays+1)*perDay:len(recs)-perDay], 48, simtime.Day)
	if err != nil {
		return nil, err
	}
	freshLate, _ := model.Evaluate(fresh, recs[len(recs)-perDay:], 1.0)
	t.AddRow("retrain daily", fmt.Sprintf("%d", earlyPushes), fmt.Sprintf("%d", freshLate))
	return t, nil
}

// AblationLPL isolates the duty-cycle trade-off: longer check intervals
// cut idle listening but lengthen every wakeup preamble a sender pays, so
// the optimum depends on traffic rate.
func AblationLPL(sc Scale) (*Table, error) {
	traces, err := tempTraces(sc, 1)
	if err != nil {
		return nil, err
	}
	tr := traces[0]
	t := &Table{
		Title:   "Ablation: LPL check interval vs mote energy at two push rates",
		Note:    "Idle listening falls with interval; per-message preamble grows with it.",
		Headers: []string{"LPL", "stream-all (J/day)", "value-driven d=2 (J/day)"},
	}
	for _, lpl := range []time.Duration{125 * time.Millisecond, 500 * time.Millisecond, 2 * time.Second, 8 * time.Second} {
		chatty, err := runEnergyPerDay(sc, baseline.StreamAll(), tr, lpl, lpl)
		if err != nil {
			return nil, err
		}
		quiet, err := runEnergyPerDay(sc, baseline.ValueDriven(2), tr, lpl, lpl)
		if err != nil {
			return nil, err
		}
		t.AddRow(lpl.String(), f2(chatty), f2(quiet))
	}
	return t, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
