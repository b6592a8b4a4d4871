package scenario

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"sort"
	"time"

	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// Scenario is a generated instance of a Spec: the complete deployment
// config (traces attached, ready for core.Build or cluster.Listen/Serve),
// the per-mote sensor-kind assignment, and the query-arrival schedule.
// Every field is a pure function of the Spec — Generate twice, get the
// same bytes.
type Scenario struct {
	Spec   Spec
	Config core.Config
	// Kinds records which mix kind each global mote index was assigned.
	Kinds []string
	// Arrivals is the workload schedule, ascending in At.
	Arrivals []Arrival
}

// Arrival is one scheduled query: when (offset from workload start), by
// whom, and what. Loose marks the paired looser-precision re-ask of the
// preceding tight arrival. SpecJSON is the encoded wire form (what
// presto-load POSTs).
type Arrival struct {
	At       time.Duration
	Tenant   string
	Loose    bool
	Spec     query.Spec
	SpecJSON []byte
}

// subSeed derives a deterministic child seed for one named generation
// component, so adding a component never perturbs the others' streams.
func subSeed(seed int64, label string) int64 {
	h := fnv.New64a()
	io.WriteString(h, label)
	return seed ^ int64(h.Sum64())
}

// Generate materializes a spec: assign sensor kinds, synthesize (or
// replay) every trace, inject the environment's correlated regional
// events, assemble the core.Config, and lay out the arrival schedule.
func Generate(spec Spec) (*Scenario, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := spec.Deployment
	motes := d.Motes()

	// Sensor-kind assignment: seeded weighted draw per mote. An empty mix
	// means an all-temperature fleet.
	mix := d.Mix
	if len(mix) == 0 {
		mix = []SensorMix{{Kind: "temp", Weight: 1}}
	}
	var totalW float64
	for _, m := range mix {
		totalW += m.Weight
	}
	mixRng := rand.New(rand.NewSource(subSeed(spec.Seed, "mix")))
	assign := make([]int, motes)     // mote -> mix index
	byMix := make([][]int, len(mix)) // mix index -> motes, ascending
	kinds := make([]string, motes)
	for mi := 0; mi < motes; mi++ {
		r := mixRng.Float64() * totalW
		k := 0
		for r >= mix[k].Weight && k < len(mix)-1 {
			r -= mix[k].Weight
			k++
		}
		assign[mi] = k
		byMix[k] = append(byMix[k], mi)
		kinds[mi] = mix[k].Kind
	}

	// Trace synthesis per mix population, then distributed back to the
	// motes in fleet order.
	traces := make([]*gen.Trace, motes)
	for k, m := range mix {
		group := byMix[k]
		if len(group) == 0 {
			continue
		}
		interval := d.sampleInterval()
		if m.SampleInterval > 0 {
			interval = time.Duration(m.SampleInterval)
		}
		seed := subSeed(spec.Seed, fmt.Sprintf("trace:%s:%d", m.Kind, k))
		switch m.Kind {
		case "temp":
			c := gen.DefaultTempConfig()
			c.Sensors = len(group)
			c.Days = d.Days
			c.Interval = interval
			c.Seed = seed
			trs, err := gen.Temperature(c)
			if err != nil {
				return nil, err
			}
			for i, mi := range group {
				traces[mi] = trs[i]
			}
		case "activity":
			for i, mi := range group {
				c := gen.DefaultActivityConfig()
				c.Days = d.Days
				c.Interval = interval
				c.Seed = seed + int64(i)
				tr, err := gen.Activity(c)
				if err != nil {
					return nil, err
				}
				traces[mi] = tr
			}
		case "traffic":
			for i, mi := range group {
				c := gen.DefaultTrafficConfig()
				c.Days = d.Days
				c.Interval = interval
				c.Seed = seed + int64(i)
				tr, err := gen.Traffic(c)
				if err != nil {
					return nil, err
				}
				traces[mi] = tr
			}
		case "csv":
			f, err := os.Open(m.Path)
			if err != nil {
				return nil, fmt.Errorf("scenario %q: mix %d: %w", spec.Name, k, err)
			}
			master, err := gen.FromCSV(f, m.Column, interval)
			f.Close()
			if err != nil {
				return nil, fmt.Errorf("scenario %q: mix %d (%s): %w", spec.Name, k, m.Path, err)
			}
			for _, mi := range group {
				// Each mote owns a copy: regional-event injection mutates
				// values, and shared storage would double-apply.
				cp := &gen.Trace{
					Start:    master.Start,
					Interval: master.Interval,
					Values:   append([]float64(nil), master.Values...),
					Events:   append([]gen.EventMark(nil), master.Events...),
				}
				traces[mi] = cp
			}
		}
	}

	// Correlated regional events: consecutive RegionProxies-sized proxy
	// groups take simultaneous excursions across all their sensors.
	if reg := spec.Environment.Regional; reg.EventsPerDay > 0 {
		var regions [][]int
		for p0 := 0; p0 < d.Proxies; p0 += reg.RegionProxies {
			p1 := p0 + reg.RegionProxies
			if p1 > d.Proxies {
				p1 = d.Proxies
			}
			var members []int
			for mi := p0 * d.MotesPerProxy; mi < p1*d.MotesPerProxy; mi++ {
				members = append(members, mi)
			}
			regions = append(regions, members)
		}
		err := gen.InjectRegionalEvents(traces, regions, gen.RegionalConfig{
			EventsPerDay: reg.EventsPerDay,
			Days:         d.Days,
			Amp:          reg.Amp,
			Dur:          time.Duration(reg.Duration),
			Seed:         subSeed(spec.Seed, "regional"),
		})
		if err != nil {
			return nil, err
		}
	}

	// Per-mote cadence/threshold overrides, only when some mix sets one.
	var moteIntervals []time.Duration
	var moteDeltas []float64
	for _, m := range mix {
		if m.SampleInterval > 0 {
			moteIntervals = make([]time.Duration, motes)
		}
		if m.Delta > 0 {
			moteDeltas = make([]float64, motes)
		}
	}
	for mi := 0; mi < motes; mi++ {
		m := mix[assign[mi]]
		if moteIntervals != nil && m.SampleInterval > 0 {
			moteIntervals[mi] = time.Duration(m.SampleInterval)
		}
		if moteDeltas != nil && m.Delta > 0 {
			moteDeltas[mi] = m.Delta
		}
	}

	cfg := core.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Proxies = d.Proxies
	cfg.MotesPerProxy = d.MotesPerProxy
	cfg.Shards = d.Shards
	cfg.SampleInterval = d.sampleInterval()
	cfg.Delta = d.delta()
	cfg.MoteSampleIntervals = moteIntervals
	cfg.MoteDeltas = moteDeltas
	cfg.Radio.LossProb = spec.Environment.RadioLoss
	cfg.StoreBackend = d.Store
	cfg.StoreAging = d.Aging
	cfg.WiredFirstProxy = d.Wired
	cfg.Traces = traces
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	arrivals, err := GenerateWorkload(spec)
	if err != nil {
		return nil, err
	}
	return &Scenario{Spec: spec, Config: cfg, Kinds: kinds, Arrivals: arrivals}, nil
}

// GenerateWorkload lays out the query-arrival schedule alone — no trace
// synthesis, so a load generator can derive the exact schedule a
// deployment was generated with without paying for (or having access to)
// the trace files.
//
// Arrivals are a nonhomogeneous Poisson process via thinning: the
// baseline rate is modulated by a diurnal cosine peaking at PeakHour,
// and Poisson-arriving bursts overlay (BurstFactor-1)x the base rate for
// BurstDur. Each arrival draws a weighted template, a tenant, and (for
// subset templates) one of the overlapping mote cohorts; arrivals whose
// template names a LoosePrecision may be re-asked moments later at the
// looser precision, possibly by a different tenant.
func GenerateWorkload(spec Spec) ([]Arrival, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	w := spec.Workload
	if len(w.Templates) == 0 {
		return nil, nil
	}
	horizon := w.horizon()

	// The time base: diurnal thinning for the baseline stream.
	rate := func(t time.Duration) float64 {
		hours := t.Hours()
		return w.BaseQPS * (1 + w.DiurnalAmp*math.Cos(2*math.Pi*(hours-w.PeakHour)/24))
	}
	arrRng := rand.New(rand.NewSource(subSeed(spec.Seed, "arrivals")))
	lambdaMax := w.BaseQPS * (1 + w.DiurnalAmp)
	var ats []time.Duration
	for t := time.Duration(0); ; {
		t += time.Duration(arrRng.ExpFloat64() / lambdaMax * float64(time.Second))
		if t >= horizon {
			break
		}
		if arrRng.Float64()*lambdaMax <= rate(t) {
			ats = append(ats, t)
		}
	}
	// Burst overlays: extra homogeneous arrivals inside each burst window.
	if w.BurstsPerDay > 0 {
		days := horizon.Hours() / 24
		bursts := poissonCount(arrRng, w.BurstsPerDay*days)
		extra := (w.BurstFactor - 1) * w.BaseQPS
		for b := 0; b < bursts; b++ {
			start := time.Duration(arrRng.Int63n(int64(horizon)))
			end := start + time.Duration(w.BurstDur)
			if end > horizon {
				end = horizon
			}
			for t := start; ; {
				t += time.Duration(arrRng.ExpFloat64() / extra * float64(time.Second))
				if t >= end {
					break
				}
				ats = append(ats, t)
			}
		}
		sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	}

	// Who asks what: tenant, template and cohort per arrival, plus the
	// paired loose re-asks.
	total := spec.Deployment.Motes()
	var weightSum float64
	for _, tpl := range w.Templates {
		weightSum += tpl.Weight
	}
	askRng := rand.New(rand.NewSource(subSeed(spec.Seed, "assign")))
	var out []Arrival
	for _, at := range ats {
		r := askRng.Float64() * weightSum
		k := 0
		for r >= w.Templates[k].Weight && k < len(w.Templates)-1 {
			r -= w.Templates[k].Weight
			k++
		}
		tpl := w.Templates[k]
		cohort := 0
		if tpl.Motes > 0 {
			cohort = askRng.Intn(w.cohorts())
		}
		tenant := fmt.Sprintf("tenant-%02d", askRng.Intn(w.Tenants))
		a, err := makeArrival(at, tenant, tpl, false, total, cohort, w.cohorts())
		if err != nil {
			return nil, fmt.Errorf("scenario %q: template %d: %w", spec.Name, k, err)
		}
		out = append(out, a)
		if tpl.LoosePrecision > 0 && askRng.Float64() < w.PairLoose {
			// The re-ask lands seconds later, often from another tenant:
			// the semantic cache should serve it from the tight answer.
			delay := time.Duration(1+askRng.Intn(30)) * time.Second
			tenant2 := fmt.Sprintf("tenant-%02d", askRng.Intn(w.Tenants))
			a2, err := makeArrival(at+delay, tenant2, tpl, true, total, cohort, w.cohorts())
			if err != nil {
				return nil, fmt.Errorf("scenario %q: template %d (loose): %w", spec.Name, k, err)
			}
			out = append(out, a2)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out, nil
}

// makeArrival binds a template to a concrete, validated query.Spec.
func makeArrival(at time.Duration, tenant string, tpl QueryTemplate, loose bool, total, cohort, cohorts int) (Arrival, error) {
	typ, err := query.ParseType(tpl.Type)
	if err != nil {
		return Arrival{}, err
	}
	s := query.Spec{
		Type:         typ,
		T0:           simtime.Time(tpl.T0),
		T1:           simtime.Time(tpl.T1),
		Trailing:     time.Duration(tpl.Trailing),
		Precision:    tpl.Precision,
		MaxStaleness: time.Duration(tpl.MaxStaleness),
	}
	if loose {
		s.Precision = tpl.LoosePrecision
	}
	if typ == query.Agg {
		if s.Agg, err = query.ParseAggKind(tpl.Agg); err != nil {
			return Arrival{}, err
		}
	}
	if tpl.Motes > 0 && tpl.Motes < total {
		// Overlapping cohorts: evenly spread windows of tpl.Motes motes
		// whose starts straddle the fleet, so distinct tenants ask about
		// intersecting slices.
		start := 0
		if cohorts > 1 {
			start = cohort * (total - tpl.Motes) / (cohorts - 1)
		}
		ids := make([]radio.NodeID, tpl.Motes)
		for i := range ids {
			ids[i] = radio.NodeID(1 + start + i)
		}
		s.Select = query.SelectMotes(ids...)
	}
	js, err := query.EncodeSpecJSON(s)
	if err != nil {
		return Arrival{}, err
	}
	return Arrival{At: at, Tenant: tenant, Loose: loose, Spec: s, SpecJSON: js}, nil
}

// poissonCount draws from Poisson(lambda) via Knuth's method.
func poissonCount(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

// ---------------------------------------------------------------------------
// Digests

// DeploymentDigest fingerprints the generated deployment: the config
// scalars, the per-mote kind/cadence/threshold assignment, and every
// sample and event mark of every trace. Two runs of the same spec must
// produce the same hex string; two different deployments must not.
func (s *Scenario) DeploymentDigest() string {
	h := sha256.New()
	cfg := s.Config
	fmt.Fprintf(h, "%s|%d|%d|%d|%d|%v|%g|%q|%q|%t|%g",
		s.Spec.Name, cfg.Seed, cfg.Proxies, cfg.MotesPerProxy, cfg.Shards,
		cfg.SampleInterval, cfg.Delta, cfg.StoreBackend, cfg.StoreAging,
		cfg.WiredFirstProxy, cfg.Radio.LossProb)
	for _, k := range s.Kinds {
		io.WriteString(h, "|"+k)
	}
	for _, d := range cfg.MoteSampleIntervals {
		fmt.Fprintf(h, "|%d", d)
	}
	var buf [8]byte
	for _, d := range cfg.MoteDeltas {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(d))
		h.Write(buf[:])
	}
	for _, tr := range cfg.Traces {
		fmt.Fprintf(h, "|%d|%v|%d|%d", tr.Start, tr.Interval, len(tr.Values), len(tr.Events))
		for _, v := range tr.Values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
		for _, e := range tr.Events {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(e.Peak))
			fmt.Fprintf(h, "|%d|%d|", e.Index, e.Length)
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// WorkloadDigest fingerprints the arrival schedule: instant, tenant,
// pairing flag and the full wire form of every spec.
func (s *Scenario) WorkloadDigest() string {
	h := sha256.New()
	var buf [8]byte
	for _, a := range s.Arrivals {
		binary.LittleEndian.PutUint64(buf[:], uint64(a.At))
		h.Write(buf[:])
		io.WriteString(h, a.Tenant)
		if a.Loose {
			io.WriteString(h, "|loose|")
		}
		h.Write(a.SpecJSON)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Totals counts what the scenario generated: trace samples, regional and
// per-sensor event excursions, and loose-paired arrivals.
func (s *Scenario) Totals() (samples, events, loose int) {
	for _, tr := range s.Config.Traces {
		samples += len(tr.Values)
		events += len(tr.Events)
	}
	for _, a := range s.Arrivals {
		if a.Loose {
			loose++
		}
	}
	return samples, events, loose
}

// Digest combines the deployment and workload fingerprints.
func (s *Scenario) Digest() string {
	h := sha256.New()
	io.WriteString(h, s.DeploymentDigest())
	io.WriteString(h, s.WorkloadDigest())
	return fmt.Sprintf("%x", h.Sum(nil))
}
