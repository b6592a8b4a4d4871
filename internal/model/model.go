// Package model implements PRESTO's asymmetric prediction models.
//
// Section 3 of the paper: "we require that models be asymmetric — they can
// be hard to build at the proxy, but they must require little resources to
// verify at the sensor", and they "should effectively capture the
// statistics of the underlying physical process".
//
// The contract that makes model-driven push correct is: the proxy and the
// mote must compute the *same* prediction for time t from the *same*
// inputs — the model parameters (shipped proxy→mote) and the shared
// history of confirmed observations (values the mote pushed or the proxy
// pulled; both sides know exactly these). A mote pushes when
// |observed - Predict(t, shared)| > delta; consequently the proxy's
// estimate of any unpushed sample is within delta of the truth. All
// experiments on bounded-error caching (E4, E6) rest on this invariant,
// and TestPushContract* verify it directly.
//
// Three model families are provided, in increasing sophistication:
//
//   - ConstLast — predict the last confirmed value. With this model,
//     model-driven push degenerates to the classic value-driven (delta)
//     push baseline the paper compares against in Figure 2.
//   - Seasonal — per-bin time-of-day means plus a linear trend, the
//     "normal temperature for each hour of the day" model from Section 3.
//   - SeasonalAnchored — seasonal shape re-anchored at the last confirmed
//     observation (a SARIMA-(0,1,1)x(0,1,1)-flavoured seasonal-difference
//     model, as used in PRESTO's later full evaluation): captures both the
//     diurnal shape and the current offset from it.
//
// Training happens proxy-side (Train* functions, arbitrary cost); the
// per-sample sensor-side check is O(1) arithmetic whose cycle count is
// exposed via CheckCycles for CPU energy accounting.
package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"presto/internal/simtime"
)

// Record mirrors archive.Record to avoid a dependency cycle; the mote and
// proxy layers convert as needed.
type Record struct {
	T simtime.Time
	V float64
}

// Model is a trained predictive model.
type Model interface {
	// Name identifies the model family for reports.
	Name() string
	// Predict estimates the value at time t. shared is the suffix of
	// confirmed observations (most recent last); models that don't need
	// history ignore it. Predict must be a pure function of (params, t,
	// shared) so that mote and proxy agree.
	Predict(t simtime.Time, shared []Record) float64
	// FlatUntil returns the first instant after t at which Predict may
	// change for a fixed shared history: Predict(u, shared) is bit-equal
	// to Predict(t, shared) for every u in [t, FlatUntil(t)), and
	// FlatUntil(u) == FlatUntil(t) for each such u: a piece ends where it
	// ends whichever of its instants asks. A range answer predicts once
	// per such flat piece.
	FlatUntil(t simtime.Time) simtime.Time
	// Marshal serializes the parameters for proxy→mote transmission;
	// the byte count is charged to the radio.
	Marshal() []byte
	// CheckCycles is the CPU cost of one sensor-side check, in cycles.
	CheckCycles() uint64
}

// Wire tags for Unmarshal.
const (
	tagConstLast        = 0x10
	tagSeasonal         = 0x11
	tagSeasonalAnchored = 0x12
)

// never is the latest instant: a FlatUntil that no t reaches.
const never = simtime.Time(math.MaxInt64)

// ErrShortBuffer is returned when unmarshalling truncated parameters.
var ErrShortBuffer = errors.New("model: short parameter buffer")

// ---------------------------------------------------------------------------
// ConstLast

// ConstLast predicts the most recent confirmed value (zero if none). This
// turns model-driven push into plain value-driven push with threshold
// delta, which is exactly Figure 2's "Value-Driven Push (Delta=x)".
type ConstLast struct{}

// Name implements Model.
func (ConstLast) Name() string { return "const-last" }

// Predict implements Model.
func (ConstLast) Predict(_ simtime.Time, shared []Record) float64 {
	if len(shared) == 0 {
		return 0
	}
	return shared[len(shared)-1].V
}

// FlatUntil implements Model: the prediction never moves with t.
func (ConstLast) FlatUntil(simtime.Time) simtime.Time { return never }

// Marshal implements Model.
func (ConstLast) Marshal() []byte { return []byte{tagConstLast} }

// CheckCycles implements Model: one load and one compare-ish; call it 20
// cycles with framework overhead.
func (ConstLast) CheckCycles() uint64 { return 20 }

// ---------------------------------------------------------------------------
// Seasonal

// Seasonal predicts from per-bin means over a fixed period (time-of-day
// effects) plus a linear trend across periods (seasons).
type Seasonal struct {
	Period simtime.Time // e.g. 24h
	Bins   []float32    // per-bin mean offsets from Base
	Base   float64      // overall mean
	Trend  float64      // drift per nanosecond
}

// Name implements Model.
func (m *Seasonal) Name() string { return "seasonal" }

// bin returns the bin index for time t.
func (m *Seasonal) bin(t simtime.Time) int {
	if m.Period <= 0 || len(m.Bins) == 0 {
		return 0
	}
	phase := t % m.Period
	if phase < 0 {
		phase += m.Period
	}
	i := int(int64(phase) * int64(len(m.Bins)) / int64(m.Period))
	if i >= len(m.Bins) {
		i = len(m.Bins) - 1
	}
	return i
}

// Predict implements Model: pure function of t.
func (m *Seasonal) Predict(t simtime.Time, _ []Record) float64 {
	if len(m.Bins) == 0 {
		return m.Base
	}
	return m.Base + float64(m.Bins[m.bin(t)]) + m.Trend*float64(t)
}

// FlatUntil implements Model: without a trend the prediction holds to the
// end of t's bin (and, SeasonalAnchored's anchor being a function of the
// shared history alone, so does its prediction).
func (m *Seasonal) FlatUntil(t simtime.Time) simtime.Time {
	switch {
	case len(m.Bins) == 0:
		return never // Predict is Base alone
	case m.Trend != 0 || m.Period <= 0:
		return t + 1
	}
	// Bin i covers the phases [ceil(i·P/n), ceil((i+1)·P/n)). A bin ends
	// by the next multiple of the period, so no flat piece crosses time
	// zero, where a zero trend's product with t changes sign.
	phase := t % m.Period
	if phase < 0 {
		phase += m.Period
	}
	n, next := int64(len(m.Bins)), int64(m.bin(t))+1
	return t - phase + simtime.Time((next*int64(m.Period)+n-1)/n)
}

// Marshal implements Model. Layout: tag, u16 bins, i64 period, f64 base,
// f64 trend, then bins * f32.
func (m *Seasonal) Marshal() []byte {
	buf := make([]byte, 1+2+8+8+8+4*len(m.Bins))
	buf[0] = tagSeasonal
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(m.Bins)))
	binary.LittleEndian.PutUint64(buf[3:], uint64(m.Period))
	binary.LittleEndian.PutUint64(buf[11:], math.Float64bits(m.Base))
	binary.LittleEndian.PutUint64(buf[19:], math.Float64bits(m.Trend))
	for i, b := range m.Bins {
		binary.LittleEndian.PutUint32(buf[27+4*i:], math.Float32bits(b))
	}
	return buf
}

// CheckCycles implements Model: a modulo, a table lookup, a multiply-add
// and a compare: ~50 cycles.
func (m *Seasonal) CheckCycles() uint64 { return 50 }

// ---------------------------------------------------------------------------
// SeasonalAnchored

// SeasonalAnchored predicts the seasonal shape re-anchored at the last
// confirmed observation:
//
//	v̂(t) = S(t) + α·(v_last - S(t_last))
//
// where S is the seasonal component and α ∈ [0,1] decays the anchor's
// influence (α=1: pure level shift; α=0: pure seasonal). This captures
// "today is running 2° warmer than typical" with one parameter.
type SeasonalAnchored struct {
	Seasonal
	Alpha float64
}

// Name implements Model.
func (m *SeasonalAnchored) Name() string { return "seasonal-anchored" }

// Predict implements Model.
func (m *SeasonalAnchored) Predict(t simtime.Time, shared []Record) float64 {
	base := m.Seasonal.Predict(t, nil)
	if len(shared) == 0 {
		return base
	}
	last := shared[len(shared)-1]
	anchor := last.V - m.Seasonal.Predict(last.T, nil)
	return base + m.Alpha*anchor
}

// Marshal implements Model.
func (m *SeasonalAnchored) Marshal() []byte {
	inner := m.Seasonal.Marshal()
	buf := make([]byte, 1+8+len(inner))
	buf[0] = tagSeasonalAnchored
	binary.LittleEndian.PutUint64(buf[1:], math.Float64bits(m.Alpha))
	copy(buf[9:], inner)
	return buf
}

// CheckCycles implements Model: two seasonal evaluations plus arithmetic.
func (m *SeasonalAnchored) CheckCycles() uint64 { return 120 }

// ---------------------------------------------------------------------------
// Unmarshal

// Unmarshal reconstructs a model from its wire form. This is what a mote
// runs when the proxy ships new parameters.
func Unmarshal(buf []byte) (Model, error) {
	if len(buf) < 1 {
		return nil, ErrShortBuffer
	}
	switch buf[0] {
	case tagConstLast:
		return ConstLast{}, nil
	case tagSeasonal:
		return unmarshalSeasonal(buf)
	case tagAR:
		return unmarshalAR(buf)
	case tagSeasonalAnchored:
		if len(buf) < 9 {
			return nil, ErrShortBuffer
		}
		alpha := math.Float64frombits(binary.LittleEndian.Uint64(buf[1:]))
		inner, err := unmarshalSeasonal(buf[9:])
		if err != nil {
			return nil, err
		}
		return &SeasonalAnchored{Seasonal: *inner, Alpha: alpha}, nil
	default:
		return nil, fmt.Errorf("model: unknown tag 0x%02x", buf[0])
	}
}

func unmarshalSeasonal(buf []byte) (*Seasonal, error) {
	if len(buf) < 27 || buf[0] != tagSeasonal {
		return nil, ErrShortBuffer
	}
	nBins := int(binary.LittleEndian.Uint16(buf[1:]))
	if len(buf) < 27+4*nBins {
		return nil, ErrShortBuffer
	}
	m := &Seasonal{
		Period: simtime.Time(binary.LittleEndian.Uint64(buf[3:])),
		Base:   math.Float64frombits(binary.LittleEndian.Uint64(buf[11:])),
		Trend:  math.Float64frombits(binary.LittleEndian.Uint64(buf[19:])),
		Bins:   make([]float32, nBins),
	}
	for i := range m.Bins {
		m.Bins[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[27+4*i:]))
	}
	return m, nil
}

// ---------------------------------------------------------------------------
// Training (proxy side)

// TrainSeasonal fits a Seasonal model with the given bin count and period
// to historical records. It needs at least one record; empty bins inherit
// the global mean.
func TrainSeasonal(recs []Record, bins int, period simtime.Time) (*Seasonal, error) {
	if len(recs) == 0 {
		return nil, errors.New("model: TrainSeasonal with no records")
	}
	if bins <= 0 || bins > 1<<15 {
		return nil, fmt.Errorf("model: bin count %d out of range", bins)
	}
	if period <= 0 {
		return nil, fmt.Errorf("model: non-positive period %v", period)
	}
	m := &Seasonal{Period: period, Bins: make([]float32, bins)}
	// Detrend first: least-squares line over time.
	var sumT, sumV, sumTT, sumTV float64
	t0 := recs[0].T
	for _, r := range recs {
		ft := float64(r.T - t0)
		sumT += ft
		sumV += r.V
		sumTT += ft * ft
		sumTV += ft * r.V
	}
	n := float64(len(recs))
	denom := n*sumTT - sumT*sumT
	var trend float64
	if denom != 0 {
		trend = (n*sumTV - sumT*sumV) / denom
	}
	// Guard against trend overfitting. On a window shorter than three
	// periods the "trend" is mostly aliased diurnal shape and correlated
	// noise; extrapolating it forward makes the model drift linearly away
	// from reality (each day worse than the last), which would force the
	// mote to push constantly. Train a trend only on long windows, and
	// never let it drift more than the observed data range per period.
	window := recs[len(recs)-1].T - recs[0].T
	if window < 3*period {
		trend = 0
	} else {
		lo, hi := recs[0].V, recs[0].V
		for _, r := range recs {
			if r.V < lo {
				lo = r.V
			}
			if r.V > hi {
				hi = r.V
			}
		}
		maxTrend := (hi - lo) / float64(period)
		if trend > maxTrend {
			trend = maxTrend
		}
		if trend < -maxTrend {
			trend = -maxTrend
		}
	}
	m.Trend = trend
	m.Base = sumV / n
	// Bin residual means.
	binSum := make([]float64, bins)
	binN := make([]int, bins)
	for _, r := range recs {
		resid := r.V - m.Base - m.Trend*float64(r.T-t0)
		b := m.bin(r.T)
		binSum[b] += resid
		binN[b]++
	}
	for b := range m.Bins {
		if binN[b] > 0 {
			m.Bins[b] = float32(binSum[b] / float64(binN[b]))
		}
	}
	// Re-express the trend around absolute time zero so Predict is a pure
	// function of absolute t: Base' = Base - Trend*t0.
	m.Base -= m.Trend * float64(t0)
	return m, nil
}

// TrainSeasonalAnchored fits the seasonal component and then selects α by
// minimizing one-step-ahead squared error on the training data over a
// small grid (the parameter space is tiny; grid search is robust).
func TrainSeasonalAnchored(recs []Record, bins int, period simtime.Time) (*SeasonalAnchored, error) {
	s, err := TrainSeasonal(recs, bins, period)
	if err != nil {
		return nil, err
	}
	best, bestErr := 0.0, math.Inf(1)
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 0.9, 1.0} {
		m := &SeasonalAnchored{Seasonal: *s, Alpha: alpha}
		var ss float64
		for i := 1; i < len(recs); i++ {
			pred := m.Predict(recs[i].T, recs[i-1:i])
			d := pred - recs[i].V
			ss += d * d
		}
		if ss < bestErr {
			best, bestErr = alpha, ss
		}
	}
	return &SeasonalAnchored{Seasonal: *s, Alpha: best}, nil
}

// ---------------------------------------------------------------------------
// Evaluation helpers

// Evaluate replays a model over records as a mote would: predictions use
// only confirmed (previously pushed) observations, and a push happens when
// the prediction misses by more than delta. It returns the push count and
// the RMSE of the proxy-side view (prediction where not pushed, exact
// value where pushed).
func Evaluate(m Model, recs []Record, delta float64) (pushes int, rmse float64) {
	if len(recs) == 0 {
		return 0, 0
	}
	var shared []Record
	var ss float64
	for _, r := range recs {
		pred := m.Predict(r.T, shared)
		if math.Abs(pred-r.V) > delta {
			shared = append(shared, r)
			pushes++
			// Proxy now knows the exact value: zero error.
		} else {
			d := pred - r.V
			ss += d * d
		}
	}
	return pushes, math.Sqrt(ss / float64(len(recs)))
}
