// Package scenario turns one declarative, seeded Spec into a complete
// PRESTO evaluation: a parameterized deployment (up to city scale —
// 10⁴–10⁶ motes across cluster sites, heterogeneous sensor mixes built
// on internal/gen traces and CSV replay), a workload model (diurnal +
// bursty query arrival across many tenants, overlapping trailing
// aggregates at paired tight/loose precisions), and an environment model
// (correlated regional events injected into the traces, lossy radio, and
// a churn schedule of site kills, re-joins and domain migrations riding
// the elastic cluster seam).
//
// Everything derives from Spec.Seed: generating the same spec twice
// yields byte-identical traces, deployment config and query-arrival
// schedule, so a scenario is a reproducible experiment, not a dice roll.
// Specs round-trip through JSON (cmd/presto-scenario authors and checks
// them; cmd/prestod -scenario boots one; cmd/presto-load -scenario
// replays its arrival process against a serving tier).
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"presto/internal/query"
)

// Spec is the single declarative description of a scenario.
type Spec struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`

	Deployment  Deployment  `json:"deployment"`
	Workload    Workload    `json:"workload"`
	Environment Environment `json:"environment"`
}

// Deployment shapes the physical system: partition, scale, store and the
// sensor mix. Proxies x MotesPerProxy is the fleet size; Shards the
// simulation-domain count; Sites how many cluster processes host those
// domains (1 = a single in-process deployment).
type Deployment struct {
	Proxies       int `json:"proxies"`
	MotesPerProxy int `json:"motes_per_proxy"`
	Shards        int `json:"shards"`
	Sites         int `json:"sites"`
	Days          int `json:"days"`

	// SampleInterval is the fleet-wide default cadence; mixes may
	// override it per sensor kind. Zero means one minute.
	SampleInterval query.Dur `json:"sample_interval,omitempty"`
	// Delta is the fleet-wide model-push threshold; mixes may override.
	// Zero means 1.0.
	Delta float64 `json:"delta,omitempty"`

	// Store is the per-domain archive: "" or "mem" (the proxy caches) or
	// "flash" (a flash archive backend behind them); see
	// core.Config.StoreBackend.
	Store string `json:"store,omitempty"`
	Aging string `json:"aging,omitempty"` // flash aging policy
	Wired bool   `json:"wired,omitempty"` // proxy 0 is the wired replica

	// Mix partitions the fleet into sensor kinds by weight. Empty means
	// all-temperature.
	Mix []SensorMix `json:"mix,omitempty"`
}

// SensorMix is one sensor population: a kind ("temp", "activity",
// "traffic" or "csv" replay), its share of the fleet, and optional
// per-kind cadence/threshold overrides (a traffic counter pushes on
// vehicle counts, not tenths of a degree).
type SensorMix struct {
	Kind   string  `json:"kind"`
	Weight float64 `json:"weight"`

	SampleInterval query.Dur `json:"sample_interval,omitempty"`
	Delta          float64   `json:"delta,omitempty"`

	// Path/Column select the value column of a CSV file for kind "csv"
	// (what presto-scenario -traces writes reads back in directly, value
	// in column 1).
	Path   string `json:"path,omitempty"`
	Column int    `json:"column,omitempty"`
}

// Workload is the query-arrival model: a nonhomogeneous Poisson process
// (diurnal baseline modulation plus Poisson burst overlays) over a
// horizon, spread across tenants, drawing specs from weighted templates.
type Workload struct {
	Tenants int `json:"tenants"`

	// BaseQPS is the mean arrival rate (per second of scenario time) at
	// the diurnal baseline.
	BaseQPS float64 `json:"base_qps"`
	// DiurnalAmp in [0,1] scales the day/night swing: the rate peaks at
	// BaseQPS*(1+amp) around PeakHour and troughs opposite it.
	DiurnalAmp float64 `json:"diurnal_amp,omitempty"`
	PeakHour   float64 `json:"peak_hour,omitempty"`

	// Bursts: Poisson-arriving load spikes that multiply the base rate by
	// BurstFactor for BurstDur.
	BurstsPerDay float64   `json:"bursts_per_day,omitempty"`
	BurstFactor  float64   `json:"burst_factor,omitempty"`
	BurstDur     query.Dur `json:"burst_duration,omitempty"`

	// Horizon is the schedule length. Zero means 24h.
	Horizon query.Dur `json:"horizon,omitempty"`

	// PairLoose is the probability that an arrival whose template names a
	// LoosePrecision is immediately re-asked at that looser precision (by
	// a possibly different tenant) — the semantic answer cache's bread
	// and butter.
	PairLoose float64 `json:"pair_loose,omitempty"`

	// Cohorts is how many overlapping mote subsets templates with a Motes
	// size draw from (0 means 4): distinct tenants asking about
	// overlapping slices of the fleet.
	Cohorts int `json:"cohorts,omitempty"`

	Templates []QueryTemplate `json:"templates"`
}

// QueryTemplate is one weighted question shape. Trailing windows resolve
// at submission time; T0/T1 are absolute offsets from the scenario
// start for PAST/fixed-window aggregates.
type QueryTemplate struct {
	Weight float64 `json:"weight"`
	Type   string  `json:"type"`          // now | past | agg
	Agg    string  `json:"agg,omitempty"` // min | max | mean | mode

	Trailing query.Dur `json:"trailing,omitempty"`
	T0       query.Dur `json:"t0,omitempty"`
	T1       query.Dur `json:"t1,omitempty"`

	Precision      float64   `json:"precision"`
	LoosePrecision float64   `json:"loose_precision,omitempty"`
	MaxStaleness   query.Dur `json:"max_staleness,omitempty"`

	// Motes is the cohort size the spec selects (0 = the whole fleet).
	Motes int `json:"motes,omitempty"`
}

// Environment is what the world does to the deployment: radio loss,
// correlated regional events, and the churn schedule.
type Environment struct {
	// RadioLoss is the per-transmission loss probability.
	RadioLoss float64  `json:"radio_loss,omitempty"`
	Regional  Regional `json:"regional,omitempty"`

	// Churn is the scheduled elasticity chaos, sorted by At.
	Churn []ChurnAction `json:"churn,omitempty"`
}

// Regional parameterizes correlated regional events: every
// RegionProxies consecutive proxies form a region, and each region takes
// Poisson(EventsPerDay*Days) simultaneous excursions of mean peak Amp
// and mean duration Duration across all its sensors.
type Regional struct {
	EventsPerDay  float64   `json:"events_per_day,omitempty"`
	RegionProxies int       `json:"region_proxies,omitempty"`
	Amp           float64   `json:"amp,omitempty"`
	Duration      query.Dur `json:"duration,omitempty"`
}

// ChurnAction is one scheduled elasticity event, At of virtual time
// after the churn run begins: "kill" cancels a site process, "rejoin"
// restarts and re-admits it (restored from the automatic pre-kill
// checkpoint), "migrate" moves Domain to site To live.
type ChurnAction struct {
	At     query.Dur `json:"at"`
	Op     string    `json:"op"` // kill | rejoin | migrate
	Site   int       `json:"site,omitempty"`
	Domain int       `json:"domain,omitempty"`
	To     int       `json:"to,omitempty"`
}

// Motes returns the fleet size.
func (d Deployment) Motes() int { return d.Proxies * d.MotesPerProxy }

// sampleInterval resolves the deployment default cadence.
func (d Deployment) sampleInterval() time.Duration {
	if d.SampleInterval > 0 {
		return time.Duration(d.SampleInterval)
	}
	return time.Minute
}

// delta resolves the deployment default push threshold.
func (d Deployment) delta() float64 {
	if d.Delta > 0 {
		return d.Delta
	}
	return 1.0
}

// horizon resolves the workload schedule length.
func (w Workload) horizon() time.Duration {
	if w.Horizon > 0 {
		return time.Duration(w.Horizon)
	}
	return 24 * time.Hour
}

// cohorts resolves the overlapping-subset count.
func (w Workload) cohorts() int {
	if w.Cohorts > 0 {
		return w.Cohorts
	}
	return 4
}

// Validate reports specification errors before any generation work.
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	d := s.Deployment
	if d.Proxies <= 0 || d.MotesPerProxy <= 0 {
		return fmt.Errorf("scenario %q: need positive proxies (%d) and motes per proxy (%d)", s.Name, d.Proxies, d.MotesPerProxy)
	}
	if d.Days <= 0 {
		return fmt.Errorf("scenario %q: need positive days, got %d", s.Name, d.Days)
	}
	shards := d.Shards
	if shards <= 0 {
		shards = 1
	}
	if d.Sites > shards {
		return fmt.Errorf("scenario %q: %d sites for %d domains", s.Name, d.Sites, shards)
	}
	var weight float64
	for i, m := range d.Mix {
		switch m.Kind {
		case "temp", "activity", "traffic":
		case "csv":
			if m.Path == "" {
				return fmt.Errorf("scenario %q: mix %d replays csv without a path", s.Name, i)
			}
		default:
			return fmt.Errorf("scenario %q: mix %d has unknown kind %q (want temp, activity, traffic or csv)", s.Name, i, m.Kind)
		}
		if m.Weight <= 0 {
			return fmt.Errorf("scenario %q: mix %d (%s) needs a positive weight", s.Name, i, m.Kind)
		}
		weight += m.Weight
	}
	_ = weight // weights normalize; any positive total is fine

	w := s.Workload
	if len(w.Templates) > 0 {
		if w.Tenants <= 0 {
			return fmt.Errorf("scenario %q: workload needs positive tenants", s.Name)
		}
		if w.BaseQPS <= 0 {
			return fmt.Errorf("scenario %q: workload needs positive base_qps", s.Name)
		}
		if w.DiurnalAmp < 0 || w.DiurnalAmp > 1 {
			return fmt.Errorf("scenario %q: diurnal_amp %g outside [0,1]", s.Name, w.DiurnalAmp)
		}
		if w.PairLoose < 0 || w.PairLoose > 1 {
			return fmt.Errorf("scenario %q: pair_loose %g outside [0,1]", s.Name, w.PairLoose)
		}
		if w.BurstsPerDay > 0 && (w.BurstFactor <= 1 || w.BurstDur <= 0) {
			return fmt.Errorf("scenario %q: bursts need burst_factor > 1 and a positive burst_duration", s.Name)
		}
		for i, tpl := range w.Templates {
			if tpl.Weight <= 0 {
				return fmt.Errorf("scenario %q: template %d needs a positive weight", s.Name, i)
			}
			if _, err := query.ParseType(tpl.Type); err != nil {
				return fmt.Errorf("scenario %q: template %d: %w", s.Name, i, err)
			}
			if tpl.Type == "agg" {
				if _, err := query.ParseAggKind(tpl.Agg); err != nil {
					return fmt.Errorf("scenario %q: template %d: %w", s.Name, i, err)
				}
			}
			if tpl.Precision <= 0 {
				return fmt.Errorf("scenario %q: template %d needs a positive precision", s.Name, i)
			}
			if tpl.LoosePrecision != 0 && tpl.LoosePrecision <= tpl.Precision {
				return fmt.Errorf("scenario %q: template %d loose precision %g not looser than %g",
					s.Name, i, tpl.LoosePrecision, tpl.Precision)
			}
			if tpl.Motes < 0 || tpl.Motes > d.Motes() {
				return fmt.Errorf("scenario %q: template %d selects %d of %d motes", s.Name, i, tpl.Motes, d.Motes())
			}
		}
	}

	e := s.Environment
	if e.RadioLoss < 0 || e.RadioLoss >= 1 {
		return fmt.Errorf("scenario %q: radio_loss %g outside [0,1)", s.Name, e.RadioLoss)
	}
	if e.Regional.EventsPerDay > 0 && e.Regional.RegionProxies <= 0 {
		return fmt.Errorf("scenario %q: regional events need region_proxies", s.Name)
	}
	sites := d.Sites
	if sites <= 0 {
		sites = 1
	}
	last := query.Dur(0)
	for i, a := range e.Churn {
		if a.At < last {
			return fmt.Errorf("scenario %q: churn action %d at %v out of order", s.Name, i, time.Duration(a.At))
		}
		last = a.At
		switch a.Op {
		case "kill", "rejoin":
			// Site 0 is the coordinator; it cannot leave.
			if a.Site < 1 || a.Site >= sites {
				return fmt.Errorf("scenario %q: churn action %d %ss site %d of %d", s.Name, i, a.Op, a.Site, sites)
			}
		case "migrate":
			if a.Domain < 0 || a.Domain >= shards {
				return fmt.Errorf("scenario %q: churn action %d migrates domain %d of %d", s.Name, i, a.Domain, shards)
			}
			if a.To < 0 || a.To >= sites {
				return fmt.Errorf("scenario %q: churn action %d migrates to site %d of %d", s.Name, i, a.To, sites)
			}
		default:
			return fmt.Errorf("scenario %q: churn action %d has unknown op %q (want kill, rejoin or migrate)", s.Name, i, a.Op)
		}
	}
	return nil
}

// EncodeJSON renders the spec as indented JSON (the authoring format).
func (s Spec) EncodeJSON() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return json.MarshalIndent(s, "", "  ")
}

// DecodeJSON parses and validates a spec. Unknown fields are rejected —
// a typoed knob must not silently become a default.
func DecodeJSON(b []byte) (Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("scenario: bad spec JSON: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// LoadFile reads a spec from a JSON file.
func LoadFile(path string) (Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %w", err)
	}
	s, err := DecodeJSON(b)
	if err != nil {
		return Spec{}, fmt.Errorf("scenario: %s: %w", path, err)
	}
	return s, nil
}

// Load resolves a command's -scenario value: an existing JSON file wins,
// otherwise the value names a built-in preset.
func Load(v string) (Spec, error) {
	if _, err := os.Stat(v); err == nil {
		return LoadFile(v)
	}
	return Preset(v)
}
