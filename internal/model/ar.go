// AR(p) autoregressive model: the "time-series analysis techniques" the
// paper lists alongside regression for temporal phenomena (§3). AR models
// shine on short horizons (the next few samples follow the recent ones)
// and degrade gracefully to the process mean on long horizons — the
// opposite trade-off from the Seasonal family, which is why both exist
// and the A1 ablation compares them.
package model

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"presto/internal/simtime"
)

const tagAR = 0x13

// AR is an autoregressive model of order p over mean-removed values:
//
//	v̂(t) − μ = Σᵢ cᵢ · (v(t−i·Δ) − μ)
//
// where Δ is the sampling interval and the v(t−i·Δ) come from the shared
// confirmed history. When history is missing or stale the prediction
// decays toward μ by iterating the recursion, so the model never returns
// garbage on long silences.
type AR struct {
	Mean     float64
	Coef     []float64    // lag-1 first
	Interval simtime.Time // sampling interval the coefficients assume
}

// Name implements Model.
func (m *AR) Name() string { return fmt.Sprintf("ar(%d)", len(m.Coef)) }

// Predict implements Model. It seeds the recursion with the most recent
// shared observations (nearest to their expected lag slots) and iterates
// forward to time t, capping the iteration count so ancient history
// cannot make a prediction arbitrarily expensive: beyond maxIter steps
// the AR recursion has decayed to the mean anyway for any stable model.
func (m *AR) Predict(t simtime.Time, shared []Record) float64 {
	p := len(m.Coef)
	if p == 0 || m.Interval <= 0 || len(shared) == 0 {
		return m.Mean
	}
	last := shared[len(shared)-1]
	if t <= last.T {
		// Predicting at or before the anchor: the anchor itself is the
		// best shared estimate.
		return last.V
	}
	steps := int((t - last.T) / m.Interval)
	const maxIter = 4096
	if steps > maxIter {
		return m.Mean
	}
	// Seed state with the last p shared values (padded with the mean).
	state := make([]float64, p)
	for i := 0; i < p; i++ {
		idx := len(shared) - 1 - i
		if idx >= 0 {
			state[i] = shared[idx].V - m.Mean
		}
	}
	// Iterate the recursion forward.
	cur := state[0]
	for s := 0; s < steps; s++ {
		cur = 0
		for i, c := range m.Coef {
			cur += c * state[i]
		}
		copy(state[1:], state[:p-1])
		state[0] = cur
	}
	return m.Mean + cur
}

// FlatUntil implements Model: the recursion is stepped per prediction,
// so no slot shares another's.
func (m *AR) FlatUntil(t simtime.Time) simtime.Time { return t + 1 }

// Marshal implements Model. Layout: tag, u16 order, i64 interval, f64
// mean, then order * f64 coefficients.
func (m *AR) Marshal() []byte {
	buf := make([]byte, 1+2+8+8+8*len(m.Coef))
	buf[0] = tagAR
	binary.LittleEndian.PutUint16(buf[1:], uint16(len(m.Coef)))
	binary.LittleEndian.PutUint64(buf[3:], uint64(m.Interval))
	binary.LittleEndian.PutUint64(buf[11:], math.Float64bits(m.Mean))
	for i, c := range m.Coef {
		binary.LittleEndian.PutUint64(buf[19+8*i:], math.Float64bits(c))
	}
	return buf
}

// CheckCycles implements Model: p multiply-adds per step; one-step checks
// dominate in practice.
func (m *AR) CheckCycles() uint64 { return 30 + 10*uint64(len(m.Coef)) }

func unmarshalAR(buf []byte) (*AR, error) {
	if len(buf) < 19 {
		return nil, ErrShortBuffer
	}
	order := int(binary.LittleEndian.Uint16(buf[1:]))
	if len(buf) < 19+8*order {
		return nil, ErrShortBuffer
	}
	m := &AR{
		Interval: simtime.Time(binary.LittleEndian.Uint64(buf[3:])),
		Mean:     math.Float64frombits(binary.LittleEndian.Uint64(buf[11:])),
		Coef:     make([]float64, order),
	}
	for i := range m.Coef {
		m.Coef[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[19+8*i:]))
	}
	return m, nil
}

// TrainAR fits an AR(p) model by least squares (solving the Yule-Walker
// normal equations via Gaussian elimination). Records must be regularly
// spaced at interval; it needs at least 4p+8 samples for a stable fit.
func TrainAR(recs []Record, p int, interval simtime.Time) (*AR, error) {
	if p <= 0 || p > 64 {
		return nil, fmt.Errorf("model: AR order %d out of range", p)
	}
	if interval <= 0 {
		return nil, errors.New("model: AR needs a positive interval")
	}
	if len(recs) < 4*p+8 {
		return nil, fmt.Errorf("model: AR(%d) needs >= %d samples, have %d", p, 4*p+8, len(recs))
	}
	var mean float64
	for _, r := range recs {
		mean += r.V
	}
	mean /= float64(len(recs))
	x := make([]float64, len(recs))
	for i, r := range recs {
		x[i] = r.V - mean
	}
	// Normal equations A c = b with A[i][j] = Σ x[t-1-i] x[t-1-j],
	// b[i] = Σ x[t] x[t-1-i].
	a := make([][]float64, p)
	b := make([]float64, p)
	for i := range a {
		a[i] = make([]float64, p)
	}
	for t := p; t < len(x); t++ {
		for i := 0; i < p; i++ {
			b[i] += x[t] * x[t-1-i]
			for j := 0; j < p; j++ {
				a[i][j] += x[t-1-i] * x[t-1-j]
			}
		}
	}
	coef, err := solveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("model: AR fit: %w", err)
	}
	return &AR{Mean: mean, Coef: coef, Interval: interval}, nil
}

// solveLinear solves a dense symmetric system by Gaussian elimination
// with partial pivoting. Small systems only (AR order <= 64).
func solveLinear(a [][]float64, b []float64) ([]float64, error) {
	n := len(b)
	// Augment.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append(append([]float64(nil), a[i]...), b[i])
	}
	for col := 0; col < n; col++ {
		// Pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		if math.Abs(m[piv][col]) < 1e-12 {
			return nil, errors.New("singular system (constant or degenerate data)")
		}
		m[col], m[piv] = m[piv], m[col]
		// Eliminate.
		for r := col + 1; r < n; r++ {
			f := m[r][col] / m[col][col]
			for c := col; c <= n; c++ {
				m[r][c] -= f * m[col][c]
			}
		}
	}
	// Back substitution.
	out := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		sum := m[i][n]
		for j := i + 1; j < n; j++ {
			sum -= m[i][j] * out[j]
		}
		out[i] = sum / m[i][i]
	}
	return out, nil
}
