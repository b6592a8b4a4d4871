package model

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"testing"

	"presto/internal/gen"
	"presto/internal/simtime"
)

// tempRecords converts a generated trace to model records.
func tempRecords(t *testing.T, cfg gen.TempConfig) []Record {
	t.Helper()
	traces, err := gen.Temperature(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := traces[0]
	recs := make([]Record, len(tr.Values))
	for i, v := range tr.Values {
		recs[i] = Record{T: tr.At(i), V: v}
	}
	return recs
}

func cleanTempConfig() gen.TempConfig {
	c := gen.DefaultTempConfig()
	c.EventsPerDay = 0
	c.NoiseStd = 0.05
	c.SeasonalAmpC = 0
	return c
}

func TestConstLast(t *testing.T) {
	m := ConstLast{}
	if m.Predict(simtime.Hour, nil) != 0 {
		t.Error("empty history should predict 0")
	}
	shared := []Record{{T: 0, V: 5}, {T: simtime.Minute, V: 7}}
	if m.Predict(simtime.Hour, shared) != 7 {
		t.Error("should predict last shared value")
	}
	if m.Name() != "const-last" || m.CheckCycles() == 0 {
		t.Error("metadata wrong")
	}
}

func TestSeasonalBinning(t *testing.T) {
	m := &Seasonal{Period: simtime.Day, Bins: make([]float32, 24)}
	for h := 0; h < 24; h++ {
		m.Bins[h] = float32(h)
	}
	// 13:30 falls in bin 13 regardless of day.
	for day := 0; day < 3; day++ {
		tt := simtime.Time(day)*simtime.Day + 13*simtime.Hour + 30*simtime.Minute
		if got := m.Predict(tt, nil); got != 13 {
			t.Fatalf("day %d 13:30 predicted %v, want 13", day, got)
		}
	}
	// Degenerate model predicts base.
	deg := &Seasonal{Base: 9}
	if deg.Predict(simtime.Hour, nil) != 9 {
		t.Error("no-bin model should predict Base")
	}
}

func TestTrainSeasonalRecoversDiurnal(t *testing.T) {
	recs := tempRecords(t, cleanTempConfig())
	m, err := TrainSeasonal(recs, 48, simtime.Day)
	if err != nil {
		t.Fatal(err)
	}
	// Model should track the signal closely: RMSE of pure prediction.
	var ss float64
	for _, r := range recs {
		d := m.Predict(r.T, nil) - r.V
		ss += d * d
	}
	rmse := math.Sqrt(ss / float64(len(recs)))
	if rmse > 0.6 {
		t.Fatalf("seasonal model RMSE %.3f on clean diurnal data, want < 0.6", rmse)
	}
}

func TestTrainSeasonalErrors(t *testing.T) {
	if _, err := TrainSeasonal(nil, 24, simtime.Day); err == nil {
		t.Error("no records accepted")
	}
	recs := []Record{{T: 0, V: 1}}
	if _, err := TrainSeasonal(recs, 0, simtime.Day); err == nil {
		t.Error("zero bins accepted")
	}
	if _, err := TrainSeasonal(recs, 24, 0); err == nil {
		t.Error("zero period accepted")
	}
}

func TestTrainSeasonalEmptyBinsFallBack(t *testing.T) {
	// All records in one hour: other bins should predict Base, not 0-junk.
	var recs []Record
	for i := 0; i < 60; i++ {
		recs = append(recs, Record{T: simtime.Time(i) * simtime.Minute, V: 20})
	}
	m, err := TrainSeasonal(recs, 24, simtime.Day)
	if err != nil {
		t.Fatal(err)
	}
	got := m.Predict(12*simtime.Hour, nil)
	if math.Abs(got-20) > 1 {
		t.Fatalf("empty-bin prediction %v, want ~20", got)
	}
}

func TestSeasonalAnchoredTracksOffset(t *testing.T) {
	recs := tempRecords(t, cleanTempConfig())
	m, err := TrainSeasonalAnchored(recs, 48, simtime.Day)
	if err != nil {
		t.Fatal(err)
	}
	// Feed an observation 3 degrees above seasonal; prediction shortly
	// after should lift by about alpha*3.
	tt := 10 * simtime.Day
	seasonal := m.Seasonal.Predict(tt, nil)
	anchor := []Record{{T: tt, V: seasonal + 3}}
	got := m.Predict(tt+simtime.Minute, anchor)
	lift := got - m.Seasonal.Predict(tt+simtime.Minute, nil)
	if lift < 0.5*m.Alpha*3-0.2 || lift > m.Alpha*3+0.2 {
		t.Fatalf("anchored lift %.3f with alpha %.2f", lift, m.Alpha)
	}
	// With no shared history it degrades to the seasonal prediction.
	if m.Predict(tt, nil) != seasonal {
		t.Error("no-history prediction should equal seasonal")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	recs := tempRecords(t, cleanTempConfig())
	seasonal, _ := TrainSeasonal(recs, 24, simtime.Day)
	anchored, _ := TrainSeasonalAnchored(recs, 24, simtime.Day)
	models := []Model{ConstLast{}, seasonal, anchored}
	shared := []Record{{T: 5 * simtime.Hour, V: 23.5}}
	for _, m := range models {
		buf := m.Marshal()
		got, err := Unmarshal(buf)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		if got.Name() != m.Name() {
			t.Fatalf("round-trip changed family: %s -> %s", m.Name(), got.Name())
		}
		for _, tt := range []simtime.Time{0, simtime.Hour, 3 * simtime.Day} {
			a, b := m.Predict(tt, shared), got.Predict(tt, shared)
			if math.Abs(a-b) > 1e-5 {
				t.Fatalf("%s: prediction diverged after round-trip: %v vs %v", m.Name(), a, b)
			}
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err != ErrShortBuffer {
		t.Error("empty buffer")
	}
	if _, err := Unmarshal([]byte{0x77}); err == nil {
		t.Error("unknown tag accepted")
	}
	if _, err := Unmarshal([]byte{tagSeasonal, 1}); err != ErrShortBuffer {
		t.Error("short seasonal accepted")
	}
	if _, err := Unmarshal([]byte{tagSeasonalAnchored, 1, 2}); err != ErrShortBuffer {
		t.Error("short anchored accepted")
	}
	// Seasonal claiming more bins than present.
	m := &Seasonal{Period: simtime.Day, Bins: make([]float32, 8)}
	buf := m.Marshal()
	buf[1] = 200 // claim 200 bins
	if _, err := Unmarshal(buf); err == nil {
		t.Error("bin overflow accepted")
	}
}

// TestPushContract verifies the core invariant: when a mote pushes on
// model failure with threshold delta, the proxy-side reconstruction error
// never exceeds delta at any sample.
func TestPushContract(t *testing.T) {
	cfg := gen.DefaultTempConfig()
	cfg.EventsPerDay = 1 // include unpredictable events
	recs := tempRecords(t, cfg)
	train := recs[:len(recs)/2]
	test := recs[len(recs)/2:]
	seasonal, _ := TrainSeasonal(train, 48, simtime.Day)
	anchored, _ := TrainSeasonalAnchored(train, 48, simtime.Day)
	for _, m := range []Model{ConstLast{}, seasonal, anchored} {
		for _, delta := range []float64{0.5, 1, 2} {
			var shared []Record
			for _, r := range test {
				pred := m.Predict(r.T, shared)
				proxyView := pred
				if math.Abs(pred-r.V) > delta {
					shared = append(shared, r)
					proxyView = r.V
				}
				if err := math.Abs(proxyView - r.V); err > delta {
					t.Fatalf("%s delta=%v: proxy error %.3f exceeds delta", m.Name(), delta, err)
				}
			}
		}
	}
}

// TestModelOrderingOnPredictableData: better models push less at the same
// delta on diurnal data. This is the energy argument of the whole paper.
func TestModelOrderingOnPredictableData(t *testing.T) {
	cfg := gen.DefaultTempConfig()
	cfg.Days = 14
	cfg.EventsPerDay = 0.25
	recs := tempRecords(t, cfg)
	train := recs[:len(recs)/2]
	test := recs[len(recs)/2:]
	seasonal, _ := TrainSeasonal(train, 48, simtime.Day)
	anchored, _ := TrainSeasonalAnchored(train, 48, simtime.Day)
	delta := 1.0
	pushesConst, _ := Evaluate(ConstLast{}, test, delta)
	pushesSeasonal, _ := Evaluate(seasonal, test, delta)
	pushesAnchored, _ := Evaluate(anchored, test, delta)
	if pushesAnchored > pushesConst {
		t.Fatalf("anchored model pushed more (%d) than const-last (%d) on predictable data", pushesAnchored, pushesConst)
	}
	t.Logf("pushes const=%d seasonal=%d anchored=%d over %d samples", pushesConst, pushesSeasonal, pushesAnchored, len(test))
	if pushesAnchored == 0 {
		t.Fatal("suspicious: zero pushes with events injected")
	}
}

func TestEvaluateRMSEBounded(t *testing.T) {
	recs := tempRecords(t, cleanTempConfig())
	m, _ := TrainSeasonal(recs[:len(recs)/2], 48, simtime.Day)
	delta := 1.0
	_, rmse := Evaluate(m, recs[len(recs)/2:], delta)
	if rmse > delta {
		t.Fatalf("proxy RMSE %.3f exceeds delta %.3f", rmse, delta)
	}
	if p, r := Evaluate(m, nil, delta); p != 0 || r != 0 {
		t.Error("empty Evaluate should be zero")
	}
}

func TestMarshalSizeSmall(t *testing.T) {
	// Model parameters must be small enough that shipping them to a mote
	// is cheap: a 48-bin model should fit well under 300 bytes.
	recs := tempRecords(t, cleanTempConfig())
	m, _ := TrainSeasonalAnchored(recs, 48, simtime.Day)
	if n := len(m.Marshal()); n > 300 {
		t.Fatalf("anchored model wire size %d bytes, want <= 300", n)
	}
}

func TestSeasonalNegativeTimePhase(t *testing.T) {
	m := &Seasonal{Period: simtime.Day, Bins: make([]float32, 24)}
	m.Bins[0] = 5
	// Negative time should not panic and should land in a valid bin.
	_ = m.Predict(-3*simtime.Hour, nil)
}

func BenchmarkTrainSeasonal(b *testing.B) {
	cfg := cleanTempConfig()
	traces, _ := gen.Temperature(cfg)
	tr := traces[0]
	recs := make([]Record, len(tr.Values))
	for i, v := range tr.Values {
		recs[i] = Record{T: tr.At(i), V: v}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TrainSeasonal(recs, 48, simtime.Day); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictAnchored(b *testing.B) {
	m := &SeasonalAnchored{Seasonal: Seasonal{Period: simtime.Day, Bins: make([]float32, 48), Base: 20}, Alpha: 0.8}
	shared := []Record{{T: simtime.Hour, V: 21}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Predict(simtime.Time(i)*simtime.Minute, shared)
	}
}

// randomModel draws one model of each family in turn: a ConstLast, a
// Seasonal and a SeasonalAnchored with random bins over a random period
// (trend zero or not), and an AR.
func randomModel(rng *rand.Rand, i int) Model {
	s := Seasonal{
		Period: []simtime.Time{simtime.Day, 2 * simtime.Hour, 7*simtime.Minute + 3}[rng.Intn(3)],
		Bins:   make([]float32, 1+rng.Intn(48)),
		Base:   rng.NormFloat64() * 20,
	}
	for b := range s.Bins {
		s.Bins[b] = float32(rng.NormFloat64())
	}
	if rng.Intn(2) == 0 {
		s.Trend = rng.NormFloat64() * 1e-12
	}
	switch i % 4 {
	case 0:
		return ConstLast{}
	case 1:
		return &s
	case 2:
		return &SeasonalAnchored{Seasonal: s, Alpha: rng.Float64()}
	default:
		return &AR{Mean: 20, Coef: []float64{0.6, 0.3}, Interval: simtime.Minute}
	}
}

// TestFlatUntilHoldsPrediction checks every model's FlatUntil against
// Predict: for random shared histories, the prediction is bit-equal at
// every instant of [t, FlatUntil(t)) it samples — t, the instant before
// the cut, and random points — with t on either side of time zero, and
// FlatUntil names the same end from each of them.
func TestFlatUntilHoldsPrediction(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		m := randomModel(rng, i)
		var shared []Record
		for range rng.Intn(4) {
			shared = append(shared, Record{T: simtime.Time(rng.Int63n(int64(3 * simtime.Day))), V: rng.NormFloat64() * 10})
		}
		slices.SortFunc(shared, func(a, b Record) int { return cmp.Compare(a.T, b.T) })
		at := simtime.Time(rng.Int63n(int64(4*simtime.Day))) - simtime.Day
		end := m.FlatUntil(at)
		if end <= at {
			t.Fatalf("%s: FlatUntil(%d) = %d, not after it", m.Name(), at, end)
		}
		want := math.Float64bits(m.Predict(at, shared))
		probes, span := []simtime.Time{at}, 3*simtime.Day
		if end != never {
			probes, span = append(probes, end-1), min(span, end-at)
		}
		for range 16 {
			probes = append(probes, at+simtime.Time(rng.Int63n(int64(span))))
		}
		for _, u := range probes {
			if got := math.Float64bits(m.Predict(u, shared)); got != want {
				t.Fatalf("%s: Predict(%d) = %v but Predict(%d) = %v, inside FlatUntil = %d",
					m.Name(), u, math.Float64frombits(got), at, math.Float64frombits(want), end)
			}
			if got := m.FlatUntil(u); got != end {
				t.Fatalf("%s: FlatUntil(%d) = %d but FlatUntil(%d) = %d, inside its piece", m.Name(), u, got, at, end)
			}
		}
	}
}

// TestFlatUntilCutsAtBins pins where the seasonal family's flat pieces
// end: at the next bin edge without a trend, at the next instant with
// one, never for ConstLast.
func TestFlatUntilCutsAtBins(t *testing.T) {
	s := &Seasonal{Period: simtime.Day, Bins: make([]float32, 48)}
	for _, c := range []struct{ at, want simtime.Time }{
		{0, 30 * simtime.Minute},
		{29 * simtime.Minute, 30 * simtime.Minute},
		{30 * simtime.Minute, simtime.Hour},
		{simtime.Day - 1, simtime.Day},
		{-simtime.Day + 31*simtime.Minute, -simtime.Day + simtime.Hour},
		{-simtime.Minute, 0},
	} {
		if got := s.FlatUntil(c.at); got != c.want {
			t.Errorf("FlatUntil(%v) = %v, want %v", c.at, got, c.want)
		}
	}
	a := &SeasonalAnchored{Seasonal: *s, Alpha: 0.5}
	if got := a.FlatUntil(45 * simtime.Minute); got != simtime.Hour {
		t.Errorf("anchored FlatUntil = %v, want the bin edge", got)
	}
	s.Trend = 1e-12
	if got := s.FlatUntil(simtime.Minute); got != simtime.Minute+1 {
		t.Errorf("trended FlatUntil = %v, want the next instant", got)
	}
	if got := (ConstLast{}).FlatUntil(simtime.Minute); got != never {
		t.Errorf("ConstLast FlatUntil = %v, want never", got)
	}
}
