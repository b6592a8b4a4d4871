// Package mote implements the PRESTO sensor node.
//
// Section 4: "PRESTO is a proxy-centric architecture where much of the
// intelligence resides at the proxy, and the remote sensor is kept simple
// to enable efficient operation under resource constraints. Our
// contribution lies in the design of sensors that are simple, yet highly
// tunable and can be completely controlled by the proxy."
//
// Accordingly this package contains no policy: the mote samples, archives
// everything locally, checks each sample against whatever model the proxy
// last shipped, pushes on model failure, batches and compresses when told
// to, answers pull requests from its archive, and retunes its radio duty
// cycle, sampling rate and codecs on command. The same implementation
// realizes all the paper's comparison systems purely by configuration:
//
//   - stream-all  — PushAll=true, BatchInterval=0
//   - batched push (Figure 2) — PushAll=true, BatchInterval=B, codec raw/wavelet
//   - value-driven push (Figure 2) — model.ConstLast with Delta=δ
//   - PRESTO model-driven push — a trained seasonal model with Delta=δ
package mote

import (
	"fmt"
	"math"
	"time"

	"presto/internal/archive"
	"presto/internal/compress"
	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/model"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// Sampler produces the physical value observed at time t (backed by a
// generated trace in experiments).
type Sampler func(t simtime.Time) float64

// Config sets a mote's initial operating point; everything here can later
// be retuned over the air via wire.Config / wire.ModelUpdate.
type Config struct {
	ID    radio.NodeID
	Proxy radio.NodeID

	SampleInterval time.Duration
	LPLInterval    time.Duration // radio duty cycle check interval
	Flash          flash.Geometry

	// PushAll pushes every sample regardless of the model (stream-all and
	// batched-push baselines).
	PushAll bool
	// Delta is the model-failure threshold for model-driven push.
	Delta float64
	// BatchInterval batches outgoing data, flushing every interval;
	// zero pushes immediately.
	BatchInterval time.Duration
	// BatchMode selects the batch codec (raw / delta / wavelet).
	BatchMode compress.Mode
	// Quantum and Threshold parameterize the codecs.
	Quantum   float64
	Threshold float64

	// SharedHistory is the confirmed-history ring size used for model
	// predictions (both sides keep the same ring; 4 is plenty for the
	// provided models).
	SharedHistory int
}

// DefaultConfig returns a sensible mote configuration (1-minute sampling,
// 500 ms LPL, immediate model-driven push with delta 1.0).
func DefaultConfig(id, proxy radio.NodeID) Config {
	return Config{
		ID:             id,
		Proxy:          proxy,
		SampleInterval: time.Minute,
		LPLInterval:    500 * time.Millisecond,
		Flash:          flash.DefaultGeometry(),
		Delta:          1.0,
		BatchMode:      compress.Delta,
		Quantum:        0.05,
		Threshold:      0.5,
		SharedHistory:  4,
	}
}

// Mote is a simulated PRESTO sensor node.
type Mote struct {
	cfg   Config
	sim   *simtime.Simulator
	meter energy.Meter
	ep    *radio.Endpoint
	dev   *flash.Device
	store *archive.Store

	sampler Sampler
	mdl     model.Model
	shared  []model.Record

	sampleTicker *simtime.Ticker
	batchTicker  *simtime.Ticker
	// batchVals accumulates PushAll samples (regular spacing); batchRecs
	// accumulates model failures (irregular).
	batchVals  []float64
	batchStart simtime.Time
	batchRecs  []wire.Rec

	params energy.Params
	stats  Stats
	dead   bool
}

// Stats counts mote activity for experiments.
type Stats struct {
	Samples     uint64
	Checks      uint64
	Failures    uint64 // model failures (pushes or batched events)
	Pushes      uint64 // immediate push messages
	Batches     uint64 // batch messages
	PullsServed uint64
	Retunes     uint64
}

// New creates a mote attached to the medium. The mote does not sample
// until Start is called.
func New(sim *simtime.Simulator, medium *radio.Medium, params energy.Params, cfg Config, sampler Sampler) (*Mote, error) {
	if sampler == nil {
		return nil, fmt.Errorf("mote %d: nil sampler", cfg.ID)
	}
	if cfg.SampleInterval <= 0 {
		return nil, fmt.Errorf("mote %d: non-positive sample interval", cfg.ID)
	}
	if cfg.SharedHistory <= 0 {
		cfg.SharedHistory = 4
	}
	m := &Mote{cfg: cfg, sim: sim, sampler: sampler, params: params, mdl: model.ConstLast{}}
	var err error
	m.dev, err = flash.New(cfg.Flash, params, &m.meter)
	if err != nil {
		return nil, fmt.Errorf("mote %d: %w", cfg.ID, err)
	}
	m.store, err = archive.Open(m.dev)
	if err != nil {
		return nil, fmt.Errorf("mote %d: %w", cfg.ID, err)
	}
	m.ep, err = medium.Attach(cfg.ID, &m.meter, cfg.LPLInterval, m.handle)
	if err != nil {
		return nil, fmt.Errorf("mote %d: %w", cfg.ID, err)
	}
	return m, nil
}

// Start begins sampling (first sample one interval from now).
func (m *Mote) Start() {
	if m.sampleTicker != nil {
		return
	}
	m.sampleTicker = m.sim.Every(m.cfg.SampleInterval, m.sample)
	if m.cfg.BatchInterval > 0 {
		m.batchTicker = m.sim.Every(m.cfg.BatchInterval, m.flushBatch)
	}
}

// Stop halts sampling and detaches from the radio (a dead mote).
func (m *Mote) Stop() {
	if m.sampleTicker != nil {
		m.sampleTicker.Stop()
		m.sampleTicker = nil
	}
	if m.batchTicker != nil {
		m.batchTicker.Stop()
		m.batchTicker = nil
	}
	m.ep.Detach()
	m.dead = true
}

// ID returns the mote's node id.
func (m *Mote) ID() radio.NodeID { return m.cfg.ID }

// Meter exposes the mote's energy meter (read-only use expected).
// AccrueListen is applied so idle-listening is up to date.
func (m *Mote) Meter() *energy.Meter {
	m.ep.AccrueListen()
	return &m.meter
}

// Archive exposes the local store (tests and debugging).
func (m *Mote) Archive() *archive.Store { return m.store }

// Stats returns activity counters.
func (m *Mote) Stats() Stats { return m.stats }

// Model returns the currently installed model's name (for tests).
func (m *Mote) Model() string { return m.mdl.Name() }

// chargeCPU adds cycles to the CPU meter.
func (m *Mote) chargeCPU(cycles uint64) {
	m.meter.Add(energy.CPU, float64(cycles)*m.params.CPUJPerCycle)
}

// sample runs once per sample interval.
func (m *Mote) sample() {
	now := m.sim.Now()
	v := m.sampler(now)
	m.meter.Add(energy.Sensing, m.params.SenseJPerSample)
	m.stats.Samples++

	// Archive locally — storage is cheap, radio is not.
	if err := m.store.Append(archive.Record{T: now, V: v}); err != nil {
		// Out-of-order cannot happen (monotone ticker); ErrFull means the
		// aging fallback failed, which we surface by dropping.
		return
	}

	if m.cfg.PushAll {
		if m.cfg.BatchInterval > 0 {
			if len(m.batchVals) == 0 {
				m.batchStart = now
			}
			m.batchVals = append(m.batchVals, v)
		} else {
			m.pushNow(now, v)
		}
		return
	}

	// Model-driven push: check the sample against the proxy's model.
	m.stats.Checks++
	m.chargeCPU(m.mdl.CheckCycles())
	pred := m.mdl.Predict(now, m.shared)
	if math.Abs(pred-v) <= m.cfg.Delta {
		return // predictable: stay silent, save the radio
	}
	m.stats.Failures++
	if m.cfg.BatchInterval > 0 {
		m.batchRecs = append(m.batchRecs, wire.Rec{T: now, V: v})
		return
	}
	m.pushNow(now, v)
	m.noteConfirmed(model.Record{T: now, V: v})
}

// pushNow sends one observation immediately.
func (m *Mote) pushNow(t simtime.Time, v float64) {
	m.stats.Pushes++
	_ = m.ep.Send(m.cfg.Proxy, wire.KindPush, wire.EncodePush(wire.Push{T: t, V: v}))
}

// flushBatch transmits accumulated samples/events.
func (m *Mote) flushBatch() {
	if len(m.batchVals) > 0 {
		codec := compress.Batch{Mode: m.cfg.BatchMode, Quantum: m.cfg.Quantum, Threshold: m.cfg.Threshold}
		// Compression is mote-side computation: charge cycles
		// proportional to batch size (wavelet ~200 cycles/sample, delta
		// ~50, raw ~10).
		perSample := uint64(10)
		switch m.cfg.BatchMode {
		case compress.Delta:
			perSample = 50
		case compress.WaveletDenoise:
			perSample = 200
		}
		m.chargeCPU(perSample * uint64(len(m.batchVals)))
		payload, err := wire.EncodeBatch(wire.Batch{
			Start:    m.batchStart,
			Interval: simtime.Time(m.cfg.SampleInterval),
			Values:   m.batchVals,
		}, codec)
		if err == nil {
			m.stats.Batches++
			_ = m.ep.Send(m.cfg.Proxy, wire.KindBatch, payload)
		}
		m.batchVals = m.batchVals[:0]
	}
	if len(m.batchRecs) > 0 {
		payload := wire.EncodePullResp(wire.PullResp{ID: 0, Records: m.batchRecs})
		m.chargeCPU(30 * uint64(len(m.batchRecs)))
		m.stats.Batches++
		_ = m.ep.Send(m.cfg.Proxy, wire.KindEvents, payload)
		for _, r := range m.batchRecs {
			m.noteConfirmed(model.Record{T: r.T, V: r.V})
		}
		m.batchRecs = m.batchRecs[:0]
	}
}

// noteConfirmed appends to the shared confirmed-history ring, shifting
// it in place once full, so the ring's storage is allocated once.
func (m *Mote) noteConfirmed(r model.Record) {
	n := m.cfg.SharedHistory
	if n <= 0 {
		m.shared = m.shared[:0]
		return
	}
	if len(m.shared) >= n {
		m.shared = m.shared[:copy(m.shared, m.shared[len(m.shared)-n+1:])]
	}
	m.shared = append(m.shared, r)
}

// handle processes proxy → mote messages.
func (m *Mote) handle(p radio.Packet) {
	if m.dead {
		return
	}
	switch p.Kind {
	case wire.KindModelUpdate:
		mu, err := wire.DecodeModelUpdate(p.Payload)
		if err != nil {
			return
		}
		mdl, err := model.Unmarshal(mu.Params)
		if err != nil {
			return
		}
		m.chargeCPU(500) // install cost
		m.mdl = mdl
		m.cfg.Delta = mu.Delta
		m.stats.Retunes++
	case wire.KindConfig:
		c, err := wire.DecodeConfig(p.Payload)
		if err != nil {
			return
		}
		m.applyConfig(c)
		m.stats.Retunes++
	case wire.KindPullReq:
		req, err := wire.DecodePullReq(p.Payload)
		if err != nil {
			return
		}
		m.servePull(req)
	}
}

// applyConfig retunes the mote; zero fields leave settings unchanged.
func (m *Mote) applyConfig(c wire.Config) {
	if c.LPLInterval > 0 {
		m.cfg.LPLInterval = time.Duration(c.LPLInterval)
		m.ep.SetLPLInterval(m.cfg.LPLInterval)
	}
	if c.SampleInterval > 0 && time.Duration(c.SampleInterval) != m.cfg.SampleInterval {
		m.cfg.SampleInterval = time.Duration(c.SampleInterval)
		if m.sampleTicker != nil {
			m.sampleTicker.Stop()
			m.sampleTicker = m.sim.Every(m.cfg.SampleInterval, m.sample)
		}
	}
	if c.BatchMode > 0 {
		m.cfg.BatchMode = compress.Mode(c.BatchMode - 1)
	}
	if c.Quantum > 0 {
		m.cfg.Quantum = c.Quantum
	}
	if c.Threshold > 0 {
		m.cfg.Threshold = c.Threshold
	}
	switch c.StreamAll {
	case 1:
		m.cfg.PushAll = true
	case 2:
		m.cfg.PushAll = false
	}
	if c.BatchInterval > 0 || (c.BatchInterval == 0 && c.StreamAll != 0) {
		// An explicit interval retunes batching; a StreamAll change with
		// zero interval switches to immediate push.
		newInterval := time.Duration(c.BatchInterval)
		if newInterval != m.cfg.BatchInterval {
			m.flushBatch()
			m.cfg.BatchInterval = newInterval
			if m.batchTicker != nil {
				m.batchTicker.Stop()
				m.batchTicker = nil
			}
			if newInterval > 0 && m.sampleTicker != nil {
				m.batchTicker = m.sim.Every(newInterval, m.flushBatch)
			}
		}
	}
}

// servePull reads the archive and replies. Lossy responses quantize values
// to the requested quantum (cheap, bounded error q/2).
func (m *Mote) servePull(req wire.PullReq) {
	recs, err := m.store.Query(req.T0, req.T1)
	if err != nil {
		recs = nil
	}
	resp := wire.PullResp{ID: req.ID}
	m.chargeCPU(20 * uint64(len(recs)))
	for _, r := range recs {
		v := r.V
		if req.Quantum > 0 {
			v = math.Round(v/req.Quantum) * req.Quantum
		}
		resp.Records = append(resp.Records, wire.Rec{T: r.T, V: v})
	}
	if req.Quantum > 0 {
		resp.ErrBound = req.Quantum / 2
	}
	m.stats.PullsServed++
	_ = m.ep.Send(m.cfg.Proxy, wire.KindPullResp, wire.EncodePullResp(resp))
}
