package radio

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"presto/internal/energy"
	"presto/internal/simtime"
	"presto/internal/snap"
)

func newMedium(t *testing.T, cfg Config) (*simtime.Simulator, *Medium) {
	t.Helper()
	sim := simtime.New(1)
	m, err := NewMedium(sim, cfg, energy.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return sim, m
}

func lossless() Config {
	c := DefaultConfig()
	c.LossProb = 0
	c.JitterMax = 0
	return c
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{LossProb: -0.1},
		{LossProb: 1.0},
		{PropDelay: -time.Second},
		{MaxRetries: -1},
		{ByteTime: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	sim := simtime.New(1)
	if _, err := NewMedium(sim, Config{LossProb: -1}, energy.DefaultParams()); err == nil {
		t.Error("NewMedium accepted bad config")
	}
	if _, err := NewMedium(sim, lossless(), energy.Params{}); err == nil {
		t.Error("NewMedium accepted bad params")
	}
}

func TestDelivery(t *testing.T) {
	sim, m := newMedium(t, lossless())
	var got []Packet
	_, err := m.Attach(1, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Attach(2, nil, 0, func(p Packet) { got = append(got, p) })
	if err != nil {
		t.Fatal(err)
	}
	ep1 := m.nodes[1]
	if err := ep1.Send(2, 7, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	p := got[0]
	if p.Src != 1 || p.Dst != 2 || p.Kind != 7 || string(p.Payload) != "hello" {
		t.Fatalf("packet %+v", p)
	}
	sent, delivered, lost, _ := m.Stats()
	if sent != 1 || delivered != 1 || lost != 0 {
		t.Fatalf("stats sent=%d delivered=%d lost=%d", sent, delivered, lost)
	}
}

func TestDeliveryDelayIncludesRendezvous(t *testing.T) {
	// A mote with a long LPL interval receives messages later, on average,
	// than an always-on proxy.
	cfg := lossless()
	run := func(lpl time.Duration, seed int64) simtime.Time {
		sim := simtime.New(seed)
		m, _ := NewMedium(sim, cfg, energy.DefaultParams())
		var at simtime.Time
		m.Attach(1, nil, 0, nil)
		m.Attach(2, nil, lpl, func(Packet) { at = sim.Now() })
		m.nodes[1].Send(2, 0, []byte("x"))
		sim.Run()
		return at
	}
	var sumOn, sumDuty simtime.Time
	for seed := int64(0); seed < 20; seed++ {
		sumOn += run(0, seed)
		sumDuty += run(4*time.Second, seed)
	}
	if sumDuty <= sumOn {
		t.Fatalf("duty-cycled delivery (%v) not slower than always-on (%v)", sumDuty, sumOn)
	}
}

func TestEnergyCharges(t *testing.T) {
	cfg := lossless()
	sim, m := newMedium(t, cfg)
	var mMote, mProxy energy.Meter
	m.Attach(1, &mMote, time.Second, nil) // mote, duty-cycled
	m.Attach(2, &mProxy, 0, nil)          // proxy, always on
	payload := make([]byte, 50)

	// Mote -> proxy: no preamble (receiver always on).
	m.nodes[1].Send(2, 0, payload)
	sim.Run()
	p := energy.DefaultParams()
	wantTx := p.TxCost(50, 0)
	if got := mMote.Get(energy.RadioTx); got != wantTx {
		t.Fatalf("mote tx %g, want %g", got, wantTx)
	}
	if got := mProxy.Get(energy.RadioRx); got != p.RxCost(50) {
		t.Fatalf("proxy rx %g, want %g", got, p.RxCost(50))
	}

	// Proxy -> mote: pays the mote's preamble, which dominates.
	before := mProxy.Get(energy.RadioTx)
	m.nodes[2].Send(1, 0, payload)
	sim.Run()
	proxyTx := mProxy.Get(energy.RadioTx) - before
	if proxyTx <= wantTx {
		t.Fatalf("proxy->mote tx %g should exceed mote->proxy %g (preamble)", proxyTx, wantTx)
	}
}

func TestIdleListeningAccrual(t *testing.T) {
	sim, m := newMedium(t, lossless())
	var meter energy.Meter
	m.Attach(1, &meter, time.Second, nil)
	sim.RunFor(time.Hour)
	m.nodes[1].AccrueListen()
	p := energy.DefaultParams()
	want := p.ListenCost(time.Hour, time.Second)
	got := meter.Get(energy.RadioListen)
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("listen energy %g, want %g", got, want)
	}
	// Accruing again immediately adds nothing.
	m.nodes[1].AccrueListen()
	if meter.Get(energy.RadioListen) != got {
		t.Fatal("double accrual")
	}
}

func TestSetLPLIntervalSplitsAccrual(t *testing.T) {
	sim, m := newMedium(t, lossless())
	var meter energy.Meter
	m.Attach(1, &meter, time.Second, nil)
	sim.RunFor(30 * time.Minute)
	m.nodes[1].SetLPLInterval(2 * time.Second) // halves the idle rate
	sim.RunFor(30 * time.Minute)
	m.nodes[1].AccrueListen()
	p := energy.DefaultParams()
	want := p.ListenCost(30*time.Minute, time.Second) + p.ListenCost(30*time.Minute, 2*time.Second)
	got := meter.Get(energy.RadioListen)
	if got < want*0.999 || got > want*1.001 {
		t.Fatalf("split accrual %g, want %g", got, want)
	}
	if m.nodes[1].LPLInterval() != 2*time.Second {
		t.Fatal("interval not updated")
	}
	m.nodes[1].SetLPLInterval(-5)
	if m.nodes[1].LPLInterval() != 0 {
		t.Fatal("negative interval should clamp to 0")
	}
}

func TestLossAndRetries(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LossProb = 0.5
	cfg.MaxRetries = 2
	sim := simtime.New(42)
	m, _ := NewMedium(sim, cfg, energy.DefaultParams())
	delivered := 0
	m.Attach(1, nil, 0, nil)
	m.Attach(2, nil, 0, func(Packet) { delivered++ })
	const n = 500
	for i := 0; i < n; i++ {
		m.nodes[1].Send(2, 0, []byte("x"))
	}
	sim.Run()
	_, d, lost, retried := m.Stats()
	if int(d) != delivered {
		t.Fatalf("stats delivered %d vs handler %d", d, delivered)
	}
	if lost == 0 || retried == 0 {
		t.Fatalf("expected losses and retries at 50%% loss: lost=%d retried=%d", lost, retried)
	}
	// With 3 attempts at p=0.5, delivery prob = 1-0.5^3 = 87.5%.
	rate := float64(delivered) / n
	if rate < 0.80 || rate > 0.95 {
		t.Fatalf("delivery rate %.3f, want ~0.875", rate)
	}
}

func TestRetriesCostEnergy(t *testing.T) {
	// Sender pays per attempt: lossy sends must cost more on average.
	run := func(loss float64) float64 {
		cfg := DefaultConfig()
		cfg.LossProb = loss
		cfg.MaxRetries = 5
		sim := simtime.New(7)
		m, _ := NewMedium(sim, cfg, energy.DefaultParams())
		var meter energy.Meter
		m.Attach(1, &meter, 0, nil)
		m.Attach(2, nil, 0, nil)
		for i := 0; i < 200; i++ {
			m.nodes[1].Send(2, 0, make([]byte, 30))
		}
		sim.Run()
		return meter.Get(energy.RadioTx)
	}
	if lossy, clean := run(0.4), run(0); lossy <= clean {
		t.Fatalf("lossy tx energy %g <= clean %g", lossy, clean)
	}
}

func TestAttachErrors(t *testing.T) {
	_, m := newMedium(t, lossless())
	if _, err := m.Attach(1, nil, 0, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Attach(1, nil, 0, nil); err != ErrDuplicateNode {
		t.Fatalf("duplicate attach err=%v", err)
	}
	if err := m.nodes[1].Send(99, 0, nil); err == nil {
		t.Fatal("send to unknown node should fail")
	}
}

func TestDetach(t *testing.T) {
	sim, m := newMedium(t, lossless())
	got := 0
	m.Attach(1, nil, 0, nil)
	m.Attach(2, nil, 0, func(Packet) { got++ })
	ep2 := m.nodes[2]
	m.nodes[1].Send(2, 0, []byte("in flight"))
	ep2.Detach()
	sim.Run()
	if got != 0 {
		t.Fatal("detached endpoint received a packet")
	}
	if err := ep2.Send(1, 0, nil); err != ErrDetached {
		t.Fatalf("send from detached err=%v", err)
	}
	_, _, lost, _ := m.Stats()
	if lost != 1 {
		t.Fatalf("in-flight packet to detached node should count lost, got %d", lost)
	}
	ep2.Detach() // idempotent
}

func TestPayloadCopied(t *testing.T) {
	sim, m := newMedium(t, lossless())
	var got []byte
	m.Attach(1, nil, 0, nil)
	m.Attach(2, nil, 0, func(p Packet) { got = p.Payload })
	buf := []byte{1, 2, 3}
	m.nodes[1].Send(2, 0, buf)
	buf[0] = 99 // mutate after send
	sim.Run()
	if got[0] != 1 {
		t.Fatal("payload aliased sender's buffer")
	}
}

func TestEndpointStats(t *testing.T) {
	sim, m := newMedium(t, lossless())
	m.Attach(1, nil, 0, nil)
	m.Attach(2, nil, 0, nil)
	m.nodes[1].Send(2, 0, make([]byte, 10))
	sim.Run()
	tx, _, txB, _ := m.nodes[1].Stats()
	_, rx, _, rxB := m.nodes[2].Stats()
	if tx != 1 || rx != 1 || txB != 10 || rxB != 10 {
		t.Fatalf("stats tx=%d rx=%d txB=%d rxB=%d", tx, rx, txB, rxB)
	}
}

func TestDeterministicDelivery(t *testing.T) {
	run := func() []simtime.Time {
		sim := simtime.New(5)
		cfg := DefaultConfig()
		m, _ := NewMedium(sim, cfg, energy.DefaultParams())
		var times []simtime.Time
		m.Attach(1, nil, 0, nil)
		m.Attach(2, nil, 500*time.Millisecond, func(Packet) { times = append(times, sim.Now()) })
		for i := 0; i < 50; i++ {
			m.nodes[1].Send(2, 0, make([]byte, i))
		}
		sim.Run()
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged: %d vs %d deliveries", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v", i, a[i], b[i])
		}
	}
}

func TestMediumRestoreRejectsHugeCount(t *testing.T) {
	// A block whose flight count claims 2^62 elements must be refused as
	// corrupt before anything is sized by it.
	_, m := newMedium(t, lossless())
	var e snap.Enc
	for i := 0; i < 4; i++ {
		e.U64(0) // sent, delivered, lost, retried
	}
	e.Uvarint(0)
	e.Uvarint(1 << 62)
	var buf bytes.Buffer
	if err := snap.WriteBlock(&buf, snap.TagMedium, e.Data()); err != nil {
		t.Fatal(err)
	}
	if err := m.Restore(&buf); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("Restore = %v, want an error wrapping snap.ErrCorrupt", err)
	}
}

func TestSnapshotLaunchOrderAcrossSlotReuse(t *testing.T) {
	sim, m := newMedium(t, lossless())
	var landed []byte
	m.Attach(1, nil, 0, nil)
	m.Attach(2, nil, 0, func(p Packet) { landed = append(landed, p.Payload[0]) })
	src := m.nodes[1]
	// Serialization time grows with payload size: 'b' lands first.
	src.Send(2, 0, bytes.Repeat([]byte{'a'}, 100))
	src.Send(2, 0, []byte{'b'})
	src.Send(2, 0, bytes.Repeat([]byte{'c'}, 100))
	for len(landed) == 0 {
		sim.Step()
	}
	if string(landed) != "b" {
		t.Fatalf("landed %q first, want b", landed)
	}
	src.Send(2, 0, bytes.Repeat([]byte{'d'}, 100))
	if m.flights.slots[1].msg.Payload[0] != 'd' {
		t.Fatal("the fourth flight did not reuse the landed flight's slot")
	}

	var a bytes.Buffer
	if err := m.Snapshot(&a); err != nil {
		t.Fatal(err)
	}
	sim2, m2 := newMedium(t, lossless())
	m2.Attach(1, nil, 0, nil)
	var order []byte
	m2.Attach(2, nil, 0, func(p Packet) { order = append(order, p.Payload[0]) })
	if err := m2.Restore(bytes.NewReader(a.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, fl := range m2.flights.slots {
		if want := "acd"[i]; fl.msg.Payload[0] != want {
			t.Fatalf("restored flight %d carries %q, want %q (launch order)", i, fl.msg.Payload[0], want)
		}
	}
	var b bytes.Buffer
	if err := m2.Snapshot(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot → restore → snapshot changed the bytes")
	}
	sim2.Run()
	if string(order) != "acd" {
		t.Fatalf("restored flights landed %q, want acd", order)
	}
}

func TestSendDeliverAllocs(t *testing.T) {
	sim, m := newMedium(t, lossless())
	m.Attach(1, nil, 0, nil)
	m.Attach(2, nil, 0, func(Packet) {})
	src := m.nodes[1]
	payload := make([]byte, 16)
	src.Send(2, 0, payload)
	sim.Run()
	const frames = 1000
	per := testing.AllocsPerRun(10, func() {
		for i := 0; i < frames; i++ {
			src.Send(2, 0, payload)
			sim.Run()
		}
	}) / frames
	if per > 0.05 {
		t.Fatalf("a small-payload send and delivery allocates %.3f objects per frame, want ≤ 0.05", per)
	}
}
