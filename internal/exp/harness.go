package exp

import (
	"context"
	"fmt"
	"math"
	"time"

	"presto/internal/baseline"
	"presto/internal/core"
	"presto/internal/flash"
	"presto/internal/gen"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// Scale controls experiment cost: paper-scale runs for cmd/presto-bench,
// smaller runs for its -scale quick and for go test.
type Scale struct {
	Days   int // trace length
	Motes  int // motes per deployment where applicable
	Events float64
	Seed   int64
	// Shards partitions multi-proxy deployments into this many concurrent
	// simulation domains (cmd/presto-bench -shards); single-proxy
	// experiments always run one domain.
	Shards int
	// Backend selects the per-domain archival store (cmd/presto-bench
	// -store): "" or "mem" for the proxy caches alone, "flash" for the
	// log-structured flash archive behind them.
	Backend string
	// Aging selects the flash backend's compaction aging policy
	// (cmd/presto-bench -aging), in store.ParseAgingPolicy form: "" or
	// "wavelet" for age-tiered wavelet summarization, "uniform" for
	// legacy widened-mean coarsening.
	Aging string
	// Sites is the cluster-mode process count for E15
	// (cmd/presto-bench -cluster): the deployment's domains split across
	// this many cooperating sites over the loopback transport. 0 means
	// the experiment's default of 2.
	Sites int
}

// PaperScale reproduces the published parameters (Figure 2 uses a
// multi-week Intel Lab trace; we run 28 days).
func PaperScale() Scale { return Scale{Days: 28, Motes: 20, Events: 0.5, Seed: 1, Shards: 1} }

// QuickScale is presto-bench -scale quick: fast, with every shape kept.
func QuickScale() Scale { return Scale{Days: 7, Motes: 6, Events: 0.5, Seed: 1, Shards: 1} }

// tempTraces generates n temperature traces at this scale.
func tempTraces(sc Scale, n int) ([]*gen.Trace, error) {
	c := gen.DefaultTempConfig()
	c.Sensors = n
	c.Days = sc.Days
	c.EventsPerDay = sc.Events
	c.Seed = sc.Seed
	return gen.Temperature(c)
}

// smallFlash is the mote flash used in experiments: large enough not to
// age under normal runs.
func smallFlash() flash.Geometry {
	return flash.Geometry{PageSize: 256, PagesPerBlock: 32, NumBlocks: 512}
}

// defaultCfg returns the common experiment deployment configuration:
// seeded, lossless radio (policy differences, not loss, are under test),
// experiment flash geometry.
func defaultCfg(sc Scale) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.Shards = sc.Shards
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Flash = smallFlash()
	cfg.StoreBackend = sc.Backend
	cfg.StoreAging = sc.Aging
	return cfg
}

// buildNet assembles a deployment with a preset policy and lossless-ish
// default radio.
func buildNet(sc Scale, motes int, preset *baseline.Preset, traces []*gen.Trace, lossProb float64) (*core.Network, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.Shards = sc.Shards
	cfg.Proxies = 1
	cfg.MotesPerProxy = motes
	cfg.Radio.LossProb = lossProb
	cfg.Flash = smallFlash()
	cfg.Preset = preset
	cfg.Traces = traces
	cfg.StoreBackend = sc.Backend
	cfg.StoreAging = sc.Aging
	return core.Build(cfg)
}

// runEnergyPerDay runs a single-mote deployment for the scale's duration
// under the preset and returns mote Joules per day. lpl is the mote's
// check interval; preamble the network-wide B-MAC preamble length.
func runEnergyPerDay(sc Scale, preset baseline.Preset, trace *gen.Trace, lpl, preamble time.Duration) (float64, error) {
	cfg := core.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.Proxies = 1
	cfg.MotesPerProxy = 1
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Radio.PreambleInterval = preamble
	cfg.Flash = smallFlash()
	cfg.LPLInterval = lpl
	cfg.Preset = &preset
	cfg.Traces = []*gen.Trace{trace}
	n, err := core.Build(cfg)
	if err != nil {
		return 0, err
	}
	defer n.Close()
	n.Start()
	n.Run(time.Duration(sc.Days) * 24 * time.Hour)
	m, err := n.MoteEnergy(radio.NodeID(1))
	if err != nil {
		return 0, err
	}
	return m.Total() / float64(sc.Days), nil
}

// proxyViewRMSE measures the proxy's best local (no-pull) estimate error
// against ground truth over [t0, t1] at one-minute resolution. A huge
// precision makes every query answerable from cache + model, so this
// captures the quality of the proxy's passive view — the metric behind
// E4's error column.
func proxyViewRMSE(n *core.Network, mote radio.NodeID, t0, t1 simtime.Time) (float64, error) {
	p, err := n.ProxyFor(mote)
	if err != nil {
		return 0, err
	}
	tr, err := n.Trace(mote)
	if err != nil {
		return 0, err
	}
	var ss float64
	count := 0
	for t := t0; t <= t1; t += simtime.Minute {
		p.QueryPoint(mote, t, 1e9, func(a proxy.Answer) {
			if v, ok := a.Value(); ok {
				d := v - tr.Value(t)
				ss += d * d
				count++
			}
		})
	}
	if count == 0 {
		return 0, fmt.Errorf("exp: no answers for mote %d", mote)
	}
	return math.Sqrt(ss / float64(count)), nil
}

// queryMote poses a one-shot NOW or PAST spec against a single mote and
// returns that mote's result.
func queryMote(n *core.Network, mote radio.NodeID, spec query.Spec) (query.Result, error) {
	spec.Select = query.SelectMotes(mote)
	res, err := n.Client().QueryOne(context.Background(), spec)
	if err != nil {
		return query.Result{}, err
	}
	if len(res.Results) != 1 {
		return query.Result{}, fmt.Errorf("exp: query on mote %d never completed", mote)
	}
	return res.Results[0], nil
}
