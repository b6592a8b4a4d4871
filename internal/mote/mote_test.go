package mote

import (
	"math"
	"testing"
	"time"

	"presto/internal/compress"
	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/model"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// rig is a mote plus a fake proxy endpoint capturing its traffic.
type rig struct {
	sim    *simtime.Simulator
	medium *radio.Medium
	mote   *Mote
	rx     []radio.Packet
}

func newRig(t *testing.T, mutate func(*Config), sampler Sampler) *rig {
	t.Helper()
	sim := simtime.New(1)
	cfg := radio.DefaultConfig()
	cfg.LossProb = 0
	cfg.JitterMax = 0
	med, err := radio.NewMedium(sim, cfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{sim: sim, medium: med}
	if _, err := med.Attach(100, nil, 0, func(p radio.Packet) { r.rx = append(r.rx, p) }); err != nil {
		t.Fatal(err)
	}
	mc := DefaultConfig(1, 100)
	mc.Flash = flash.Geometry{PageSize: 240, PagesPerBlock: 8, NumBlocks: 32}
	if mutate != nil {
		mutate(&mc)
	}
	r.mote, err = New(sim, med, energy.DefaultParams(), mc, sampler)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func constSampler(v float64) Sampler { return func(simtime.Time) float64 { return v } }

// rampSampler increases by slope per minute.
func rampSampler(slope float64) Sampler {
	return func(t simtime.Time) float64 { return slope * t.Minutes() }
}

func TestNewValidation(t *testing.T) {
	sim := simtime.New(1)
	med, _ := radio.NewMedium(sim, radio.DefaultConfig(), energy.DefaultParams())
	cfg := DefaultConfig(1, 100)
	if _, err := New(sim, med, energy.DefaultParams(), cfg, nil); err == nil {
		t.Error("nil sampler accepted")
	}
	cfg.SampleInterval = 0
	if _, err := New(sim, med, energy.DefaultParams(), cfg, constSampler(1)); err == nil {
		t.Error("zero sample interval accepted")
	}
}

func TestSamplingAndArchiving(t *testing.T) {
	r := newRig(t, nil, constSampler(20))
	r.mote.Start()
	r.sim.RunFor(time.Hour)
	st := r.mote.Stats()
	if st.Samples != 60 {
		t.Fatalf("samples=%d, want 60", st.Samples)
	}
	recs, err := r.mote.Archive().Query(0, simtime.Hour)
	if err != nil {
		t.Fatal(err)
	}
	// Everything sampled is archived locally (pending + flushed).
	if len(recs) != 60 {
		t.Fatalf("archived %d records, want 60", len(recs))
	}
}

func TestModelDrivenPushStaysQuietOnPredictableData(t *testing.T) {
	// Constant data with ConstLast model: first sample pushes (prediction
	// from empty history = 0), everything after is within delta.
	r := newRig(t, func(c *Config) { c.Delta = 0.5 }, constSampler(20))
	r.mote.Start()
	r.sim.RunFor(2 * time.Hour)
	st := r.mote.Stats()
	if st.Pushes != 1 {
		t.Fatalf("pushes=%d, want exactly 1 (bootstrap)", st.Pushes)
	}
	if st.Checks != st.Samples {
		t.Fatalf("checks=%d samples=%d", st.Checks, st.Samples)
	}
}

func TestModelDrivenPushFiresOnChange(t *testing.T) {
	// Ramp 0.3/min with delta 1: pushes roughly every ~4 samples.
	r := newRig(t, func(c *Config) { c.Delta = 1.0 }, rampSampler(0.3))
	r.mote.Start()
	r.sim.RunFor(100*time.Minute + time.Second)
	st := r.mote.Stats()
	if st.Pushes < 20 || st.Pushes > 40 {
		t.Fatalf("pushes=%d over 100 samples of 0.3/min ramp with delta 1, want ~25-30", st.Pushes)
	}
	if len(r.rx) != int(st.Pushes) {
		t.Fatalf("proxy saw %d packets, mote sent %d", len(r.rx), st.Pushes)
	}
}

func TestPushAllImmediate(t *testing.T) {
	r := newRig(t, func(c *Config) { c.PushAll = true }, constSampler(20))
	r.mote.Start()
	r.sim.RunFor(30*time.Minute + time.Second)
	if got := len(r.rx); got != 30 {
		t.Fatalf("stream-all delivered %d, want 30", got)
	}
	for _, p := range r.rx {
		if p.Kind != wire.KindPush {
			t.Fatalf("unexpected kind %d", p.Kind)
		}
	}
}

func TestPushAllBatched(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.PushAll = true
		c.BatchInterval = 10 * time.Minute
		c.BatchMode = compress.Raw
	}, constSampler(20))
	r.mote.Start()
	r.sim.RunFor(time.Hour + time.Second)
	if got := len(r.rx); got != 6 {
		t.Fatalf("batched push sent %d messages, want 6", got)
	}
	b, err := wire.DecodeBatch(r.rx[0].Payload)
	if err != nil {
		t.Fatal(err)
	}
	// The batch ticker was armed before the sample ticker's 10-minute
	// event, so the first flush carries samples 1..9 min.
	if len(b.Values) != 9 {
		t.Fatalf("first batch has %d values, want 9", len(b.Values))
	}
	if b.Interval != simtime.Minute {
		t.Fatalf("batch interval %v", b.Interval)
	}
	for _, v := range b.Values {
		if math.Abs(v-20) > 0.01 {
			t.Fatalf("batch value %v", v)
		}
	}
}

func TestBatchedModelFailuresUseEvents(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Delta = 1.0
		c.BatchInterval = 20 * time.Minute
	}, rampSampler(0.3))
	r.mote.Start()
	r.sim.RunFor(time.Hour + time.Second)
	if len(r.rx) == 0 {
		t.Fatal("no event batches")
	}
	for _, p := range r.rx {
		if p.Kind != wire.KindEvents {
			t.Fatalf("unexpected kind %d", p.Kind)
		}
		resp, err := wire.DecodePullResp(p.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Records) == 0 {
			t.Fatal("empty event batch sent")
		}
	}
	if r.mote.Stats().Batches == 0 || r.mote.Stats().Pushes != 0 {
		t.Fatalf("stats %+v: batched mode must not push immediately", r.mote.Stats())
	}
}

func TestModelUpdateInstallsModel(t *testing.T) {
	r := newRig(t, nil, constSampler(20))
	r.mote.Start()
	seasonal := &model.Seasonal{Period: simtime.Day, Bins: make([]float32, 24), Base: 20}
	payload := wire.EncodeModelUpdate(wire.ModelUpdate{Delta: 2.5, Params: seasonal.Marshal()})
	proxyEP := mustEndpoint(t, r)
	if err := proxyEP.Send(1, wire.KindModelUpdate, payload); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(time.Minute)
	if r.mote.Model() != "seasonal" {
		t.Fatalf("model=%q after update", r.mote.Model())
	}
	if r.mote.cfg.Delta != 2.5 {
		t.Fatalf("delta=%v", r.mote.cfg.Delta)
	}
	if r.mote.Stats().Retunes != 1 {
		t.Fatalf("retunes=%d", r.mote.Stats().Retunes)
	}
}

// mustEndpoint digs the test proxy endpoint out of the rig's medium by
// sending through a fresh attachment.
func mustEndpoint(t *testing.T, r *rig) *radio.Endpoint {
	t.Helper()
	ep, err := r.medium.Attach(101, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

func TestConfigRetunes(t *testing.T) {
	r := newRig(t, nil, constSampler(20))
	r.mote.Start()
	ep := mustEndpoint(t, r)
	c := wire.Config{
		LPLInterval:    2 * simtime.Second,
		SampleInterval: 5 * simtime.Minute,
		StreamAll:      1,
	}
	if err := ep.Send(1, wire.KindConfig, wire.EncodeConfig(c)); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(time.Minute)
	if r.mote.cfg.SampleInterval != 5*time.Minute {
		t.Fatalf("sample interval %v", r.mote.cfg.SampleInterval)
	}
	if !r.mote.cfg.PushAll {
		t.Fatal("StreamAll=1 did not enable PushAll")
	}
	if r.mote.ep.LPLInterval() != 2*time.Second {
		t.Fatalf("lpl %v", r.mote.ep.LPLInterval())
	}
	// After retune, sampling continues at the new rate.
	before := r.mote.Stats().Samples
	r.sim.RunFor(30 * time.Minute)
	delta := r.mote.Stats().Samples - before
	if delta != 6 {
		t.Fatalf("%d samples in 30min at 5min interval, want 6", delta)
	}
}

func TestServePull(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Delta = 100 }, rampSampler(1))
	r.mote.Start()
	r.sim.RunFor(time.Hour)
	ep := mustEndpoint(t, r)
	var resp wire.PullResp
	got := false
	// Re-attach handler via separate listener: mote replies to its proxy
	// (node 100), so watch r.rx instead.
	req := wire.PullReq{ID: 9, T0: 10 * simtime.Minute, T1: 20 * simtime.Minute}
	if err := ep.Send(1, wire.KindPullReq, wire.EncodePullReq(req)); err != nil {
		t.Fatal(err)
	}
	r.sim.RunFor(time.Minute)
	for _, p := range r.rx {
		if p.Kind == wire.KindPullResp {
			var err error
			resp, err = wire.DecodePullResp(p.Payload)
			if err != nil {
				t.Fatal(err)
			}
			got = true
		}
	}
	if !got {
		t.Fatal("no pull response")
	}
	if resp.ID != 9 || len(resp.Records) != 11 {
		t.Fatalf("resp id=%d records=%d, want 9/11", resp.ID, len(resp.Records))
	}
	if r.mote.Stats().PullsServed != 1 {
		t.Fatalf("pulls served %d", r.mote.Stats().PullsServed)
	}
}

func TestServePullLossy(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Delta = 100 }, rampSampler(1))
	r.mote.Start()
	r.sim.RunFor(time.Hour)
	ep := mustEndpoint(t, r)
	req := wire.PullReq{ID: 5, T0: 0, T1: simtime.Hour, Quantum: 2}
	ep.Send(1, wire.KindPullReq, wire.EncodePullReq(req))
	r.sim.RunFor(time.Minute)
	for _, p := range r.rx {
		if p.Kind != wire.KindPullResp {
			continue
		}
		resp, err := wire.DecodePullResp(p.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if resp.ErrBound != 1 {
			t.Fatalf("lossy errBound %v, want quantum/2 = 1", resp.ErrBound)
		}
		for _, rec := range resp.Records {
			if rem := math.Mod(rec.V, 2); math.Abs(rem) > 0.01 && math.Abs(rem-2) > 0.01 {
				t.Fatalf("value %v not quantized to 2", rec.V)
			}
		}
		return
	}
	t.Fatal("no pull response")
}

func TestEnergyAccrual(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Delta = 0.1 }, rampSampler(1))
	r.mote.Start()
	r.sim.RunFor(6 * time.Hour)
	m := r.mote.Meter()
	if m.Get(energy.Sensing) == 0 {
		t.Error("no sensing energy")
	}
	if m.Get(energy.RadioTx) == 0 {
		t.Error("no radio tx energy (pushes happened)")
	}
	if m.Get(energy.RadioListen) == 0 {
		t.Error("no idle listening energy")
	}
	if m.Get(energy.FlashWrite) == 0 {
		t.Error("no flash write energy (archiving)")
	}
	if m.Get(energy.CPU) == 0 {
		t.Error("no cpu energy (model checks)")
	}
}

func TestStopDetaches(t *testing.T) {
	r := newRig(t, func(c *Config) { c.PushAll = true }, constSampler(1))
	r.mote.Start()
	r.sim.RunFor(5*time.Minute + time.Second) // let in-flight deliveries land
	r.mote.Stop()
	n := len(r.rx)
	r.sim.RunFor(30 * time.Minute)
	if len(r.rx) != n {
		t.Fatal("stopped mote kept transmitting")
	}
	r.mote.Stop() // idempotent
}

func TestStartIdempotent(t *testing.T) {
	r := newRig(t, nil, constSampler(1))
	r.mote.Start()
	r.mote.Start()
	r.sim.RunFor(10 * time.Minute)
	if r.mote.Stats().Samples != 10 {
		t.Fatalf("double Start double-sampled: %d", r.mote.Stats().Samples)
	}
}

// TestNoteConfirmedAllocFree: the shared-history ring shifts in place
// once full, keeping the newest SharedHistory records in order, and
// allocates nothing per confirmation.
func TestNoteConfirmedAllocFree(t *testing.T) {
	r := newRig(t, nil, constSampler(20))
	m := r.mote
	n := m.cfg.SharedHistory
	next := simtime.Time(0)
	note := func() {
		next += simtime.Minute
		m.noteConfirmed(model.Record{T: next, V: float64(next)})
	}
	for range n + 3 {
		note()
	}
	// AllocsPerRun rounds down per run: count over a hundred calls, so a
	// ring that reallocates every few confirmations shows.
	hundred := func() {
		for range 100 {
			note()
		}
	}
	if allocs := testing.AllocsPerRun(10, hundred); allocs != 0 {
		t.Fatalf("noteConfirmed allocated %.0f times per 100 calls, want 0", allocs)
	}
	if len(m.shared) != n {
		t.Fatalf("ring holds %d records, want %d", len(m.shared), n)
	}
	for i, rec := range m.shared {
		if want := next - simtime.Time(n-1-i)*simtime.Minute; rec.T != want || rec.V != float64(want) {
			t.Fatalf("ring[%d] = %+v, want T=%v", i, rec, want)
		}
	}
}
