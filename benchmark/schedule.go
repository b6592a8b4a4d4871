package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"time"

	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/scenario"
	"presto/internal/simtime"
)

// step is how far every stepping workload advances the virtual clock
// between op batches.
const step = 10 * time.Minute

// op is one scheduled operation: a spec template plus how its window
// binds to the virtual clock at the moment it is posed. The program
// under test sees only the bound spec (or its JSON body).
type op struct {
	Kind string
	Spec query.Spec
	// Ago > 0 slides a PAST/AGG window so it ends Ago before now; Spec.T1
	// then holds the window length. History in [0,1) places the window
	// start at that fraction of the history so far. Both zero: the spec
	// is posed as generated (fixed window, trailing or NOW).
	Ago     time.Duration
	History float64
	// Body is the JSON wire form of a spec that needs no binding (HTTP
	// workloads pose fixed specs only).
	Body []byte
	// Plants is the index of the op whose miss plants the cache entry
	// this op must hit (serve_hot); -1 elsewhere.
	Plants int
}

// bind resolves the op's window against the harness's virtual clock.
func (o op) bind(now simtime.Time) query.Spec {
	s := o.Spec
	switch {
	case o.Ago > 0:
		length := s.T1
		s.T1 = now - simtime.Time(o.Ago)
		s.T0 = max(s.T1-length, 0)
	case o.History > 0:
		length := s.T1
		s.T0 = simtime.Time(o.History * float64(max(now-length, 0)))
		// Whole minutes keep the slot grid aligned with the samples.
		s.T0 -= s.T0 % simtime.Minute
		s.T1 = s.T0 + length
	}
	return s
}

// schedule is a workload's seeded op list. Ops repeat cyclically when a
// timed pass outlasts the list; stepping workloads run PerStep ops after
// each clock advance.
type schedule struct {
	Ops      []op
	PerStep  int
	Warm     []op         // posed once during set-up, before the first timed op
	Standing []query.Spec // continuous specs held open for the whole pass
}

// digest fingerprints the first n ops (the fixed prefix a traced pass
// runs) plus the warm-up and standing specs: same seed, same digest.
func (s *schedule) digest(n int) string {
	h := sha256.New()
	put := func(o op) {
		js, err := query.EncodeSpecJSON(o.Spec)
		if err != nil {
			panic(fmt.Sprintf("schedule: unencodable %s spec: %v", o.Kind, err))
		}
		fmt.Fprintf(h, "%s|%s|%d|%.9f|%d\n", o.Kind, js, o.Ago, o.History, o.Plants)
	}
	for _, o := range s.Warm {
		put(o)
	}
	for i := 0; i < n; i++ {
		put(s.Ops[i%len(s.Ops)])
	}
	for _, sp := range s.Standing {
		put(op{Kind: "standing", Spec: sp})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// encodeBodies fills in the JSON wire form of every op (HTTP workloads).
func encodeBodies(ops []op) {
	for i := range ops {
		js, err := query.EncodeSpecJSON(ops[i].Spec)
		if err != nil {
			panic(fmt.Sprintf("schedule: unencodable %s spec: %v", ops[i].Kind, err))
		}
		ops[i].Body = js
	}
}

// targets draws the three fleet shapes the scatter workloads rotate:
// every mote, the motes of one domain, and a handful spread over all
// domains (d.Shards divides d.Proxies in every benchmark deployment).
type targets struct {
	d       scenario.Deployment
	perDom  int
	domains int
}

func newTargets(d scenario.Deployment) targets {
	return targets{d: d, perDom: d.Motes() / d.Shards, domains: d.Shards}
}

func (t targets) domain(k int) query.Selector {
	ids := make([]radio.NodeID, t.perDom)
	for i := range ids {
		ids[i] = radio.NodeID(1 + (k%t.domains)*t.perDom + i)
	}
	return query.SelectMotes(ids...)
}

// spread picks two motes from each domain.
func (t targets) spread(rng *rand.Rand) query.Selector {
	ids := make([]radio.NodeID, 0, 2*t.domains)
	for dom := 0; dom < t.domains; dom++ {
		a := rng.Intn(t.perDom - 1)
		b := a + 1 + rng.Intn(t.perDom-1-a)
		ids = append(ids, radio.NodeID(1+dom*t.perDom+a), radio.NodeID(1+dom*t.perDom+b))
	}
	return query.SelectMotes(ids...)
}

func (t targets) one(rng *rand.Rand) query.Selector {
	return query.SelectMotes(radio.NodeID(1 + rng.Intn(t.d.Motes())))
}

var aggKinds = []query.AggKind{query.Mean, query.Max, query.Min}

// hours draws a whole number of minutes in [lo, hi) hours.
func hours(rng *rand.Rand, lo, hi int) simtime.Time {
	return simtime.Time(lo*60+rng.Intn((hi-lo)*60)) * simtime.Minute
}

// run picks n consecutive motes starting anywhere in the fleet.
func (t targets) run(rng *rand.Rand, n int) query.Selector {
	start := rng.Intn(t.d.Motes() - n + 1)
	ids := make([]radio.NodeID, n)
	for i := range ids {
		ids[i] = radio.NodeID(1 + start + i)
	}
	return query.SelectMotes(ids...)
}

// serveHotSchedule builds 512 distinct questions as 256 tight/loose
// pairs: fixed-window AGG, trailing AGG and NOW over mote subsets. The
// loose ask of a pair shares its tight ask's cache key, so with the
// clock parked every op after the warm-up cycle is a semantic-cache hit.
// Tight precision equals the push threshold: the proxies answer from
// cache and model, never from a mote. Which kind and how many motes each
// pair asks about is fixed by its index, so the seed moves windows and
// mote choices but not the mix of response sizes.
func serveHotSchedule(rng *rand.Rand, d scenario.Deployment, parkedAt simtime.Time) *schedule {
	const pairs = 256
	tg := newTargets(d)
	seen := map[string]bool{}
	var ops []op
	for len(ops) < 2*pairs {
		p := len(ops) / 2
		var s query.Spec
		kind := ""
		switch k := p % 5; {
		case k < 2:
			kind = "agg_fixed"
			t0 := hours(rng, 1, int(parkedAt/simtime.Hour)-8)
			s = query.Spec{Type: query.Agg, Agg: aggKinds[p%3], T0: t0, T1: t0 + hours(rng, 1, 6)}
		case k < 4:
			kind = "agg_trailing"
			s = query.Spec{Type: query.Agg, Agg: aggKinds[p%3], Trailing: time.Duration(hours(rng, 1, 12))}
		default:
			kind = "now"
			s = query.Spec{Type: query.Now}
		}
		switch sel := p / 5 % 3; {
		case s.Type == query.Now && p/5%2 == 0:
			s.Select = tg.run(rng, tg.perDom)
		case s.Type == query.Now, sel == 2:
			s.Select = tg.spread(rng)
		case sel == 1:
			s.Select = tg.domain(rng.Intn(tg.domains))
		}
		s.Precision = d.Delta
		js, _ := query.EncodeSpecJSON(s)
		if seen[string(js)] {
			continue
		}
		seen[string(js)] = true
		loose := s
		loose.Precision = d.Delta * float64(2+p%3)
		ops = append(ops,
			op{Kind: kind + "_tight", Spec: s, Plants: len(ops)},
			op{Kind: kind + "_loose", Spec: loose, Plants: len(ops)})
	}
	encodeBodies(ops)
	return &schedule{Ops: ops, Warm: ops}
}

// fleetScatterSchedule builds never-repeated fixed-window AGGs rotating
// the three target shapes. There are three times as many distinct keys
// as the serve cache holds, so every op misses, inserts and evicts. The
// warm-up fills the cache to capacity with cheap single-mote answers the
// timed ops never ask for.
func fleetScatterSchedule(rng *rand.Rand, d scenario.Deployment, parkedAt simtime.Time, cacheEntries int) *schedule {
	tg := newTargets(d)
	n := 3 * cacheEntries
	// Distinct window starts: a seeded permutation of a one-second grid.
	latest := parkedAt - 8*simtime.Hour
	grid := int((latest - simtime.Hour) / simtime.Second)
	ops := make([]op, n)
	for i, slot := range rng.Perm(grid)[:n] {
		t0 := simtime.Hour + simtime.Time(slot)*simtime.Second
		s := query.Spec{Type: query.Agg, Agg: aggKinds[i%3], T0: t0, T1: t0 + hours(rng, 2, 6), Precision: 2 * d.Delta}
		kind := ""
		switch i % 3 {
		case 0:
			kind = "agg_fleet"
		case 1:
			kind = "agg_domain"
			s.Select = tg.domain(i / 3)
		default:
			kind = "agg_spread"
			s.Select = tg.spread(rng)
		}
		ops[i] = op{Kind: kind, Spec: s, Plants: -1}
	}
	warm := make([]op, cacheEntries)
	for i := range warm {
		t0 := simtime.Hour + simtime.Time(i)*simtime.Second
		warm[i] = op{Kind: "warm_fill", Plants: -1, Spec: query.Spec{
			Type: query.Agg, Agg: query.Mean, Select: tg.one(rng),
			T0: t0, T1: t0 + 10*simtime.Minute, Precision: 2 * d.Delta,
		}}
	}
	encodeBodies(ops)
	encodeBodies(warm)
	return &schedule{Ops: ops, Warm: warm}
}

// flashAgingSchedule reads the aging archive while it is being written:
// eight ops after every clock step, PAST on one mote and AGG over a domain
// or a spread, over windows drawn from the oldest, middle and newest
// thirds of the history so far, at a precision on either side of the
// aged tiers' widened bounds.
func flashAgingSchedule(rng *rand.Rand, d scenario.Deployment) *schedule {
	tg := newTargets(d)
	const n = 4096
	thirds := []string{"old", "mid", "new"}
	ops := make([]op, n)
	for i := range ops {
		third := i / 2 % 3
		s := query.Spec{T1: hours(rng, 1, 4), Precision: 0.25}
		if i/4%2 == 0 {
			s.Precision = 8
		}
		kind := ""
		switch i % 4 {
		case 0, 2:
			kind, s.Type, s.Select = "past_one_", query.Past, tg.one(rng)
		case 1:
			kind, s.Type, s.Agg, s.Select = "agg_domain_", query.Agg, aggKinds[i/4%3], tg.domain(rng.Intn(tg.domains))
		default:
			kind, s.Type, s.Agg, s.Select = "agg_spread_", query.Agg, aggKinds[i/4%3], tg.spread(rng)
		}
		// The newest third ends at the present: its tail is still raw.
		frac := (float64(third) + rng.Float64()) / 3
		if third == 2 {
			frac = 0.85 + 0.15*rng.Float64()
		}
		ops[i] = op{Kind: kind + thirds[third], Spec: s, History: max(frac, 1e-9), Plants: -1}
	}
	return &schedule{Ops: ops, PerStep: 8}
}

// liveMixedSchedule is the paper's mix on a live clock: after every step
// a NOW on one mote — alternately under a 30 s staleness bound (forces a
// rendezvous) and unbounded (the wired replica may serve it) — a loose
// fleet NOW (model or cache), a tight-precision PAST on one mote (pulls
// the mote's archive) and a trailing fleet AGG, twice over, with four
// standing specs firing every step.
func liveMixedSchedule(rng *rand.Rand, d scenario.Deployment) *schedule {
	tg := newTargets(d)
	const n = 4096
	ops := make([]op, n)
	for i := range ops {
		var o op
		switch i % 4 {
		case 0:
			o = op{Kind: "now_fresh_one", Spec: query.Spec{Type: query.Now, Select: tg.one(rng),
				Precision: 2 * d.Delta, MaxStaleness: 30 * time.Second}}
			if i%8 == 4 {
				o.Kind, o.Spec.MaxStaleness = "now_loose_one", 0
			}
		case 1:
			o = op{Kind: "now_fleet", Spec: query.Spec{Type: query.Now, Precision: 2 * d.Delta}}
		case 2:
			o = op{Kind: "past_tight_one", Ago: time.Duration(hours(rng, 1, 6)), Spec: query.Spec{Type: query.Past,
				Select: tg.one(rng), T1: simtime.Time(10+rng.Intn(50)) * simtime.Minute, Precision: d.Delta / 4}}
		default:
			o = op{Kind: "agg_trailing_fleet", Spec: query.Spec{Type: query.Agg, Agg: aggKinds[rng.Intn(3)],
				Trailing: time.Duration(hours(rng, 1, 4)), Precision: 2 * d.Delta}}
		}
		o.Plants = -1
		ops[i] = o
	}
	every := &query.Continuous{Every: step}
	standing := []query.Spec{
		{Type: query.Now, Precision: 2 * d.Delta, Continuous: every},
		{Type: query.Agg, Agg: query.Mean, Trailing: time.Hour, Precision: 2 * d.Delta, Continuous: every},
		{Type: query.Agg, Agg: query.Max, Trailing: 2 * time.Hour, Select: tg.domain(1), Precision: 2 * d.Delta, Continuous: every},
		{Type: query.Now, Select: tg.spread(rng), Precision: 2 * d.Delta, Continuous: every},
	}
	return &schedule{Ops: ops, PerStep: 8, Standing: standing}
}

// clusterSchedule rotates trailing fleet AGGs (mean and max over 1-5 h)
// and fleet NOW at a loose precision, sixteen ops per lease step: no op
// wakes a mote, so the cluster protocol is what is timed.
func clusterSchedule(rng *rand.Rand, d scenario.Deployment) *schedule {
	const n = 4096
	ops := make([]op, n)
	for i := range ops {
		switch i % 4 {
		case 3:
			ops[i] = op{Kind: "now_fleet", Spec: query.Spec{Type: query.Now, Precision: 2 * d.Delta}}
		default:
			ops[i] = op{Kind: "agg_trailing_fleet", Spec: query.Spec{Type: query.Agg, Agg: aggKinds[i%2],
				Trailing: time.Duration(hours(rng, 1, 5)), Precision: 2 * d.Delta}}
		}
		ops[i].Plants = -1
	}
	return &schedule{Ops: ops, PerStep: 16}
}
