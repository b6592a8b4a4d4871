package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"presto/internal/baseline"
	"presto/internal/cluster"
	"presto/internal/core"
	"presto/internal/flash"
	"presto/internal/query"
	"presto/internal/scenario"
	"presto/internal/serve"
	"presto/internal/simtime"
)

// workload is one named benchmark workload: a seeded deployment, how it
// is brought to its starting state, and the op schedule driven at it.
type workload struct {
	Name string
	Why  string
	// HTTP workloads are driven through serve.Server.Handler() on a real
	// loopback listener with min(2, nproc) keep-alive clients and a parked
	// clock; the others through core.Client with one client that advances
	// the clock itself, one step before each batch of ops.
	HTTP bool

	spec func(seed int64) scenario.Spec
	// tune sets what a scenario spec cannot say (flash geometry, push
	// preset) on the generated config.
	tune func(cfg *core.Config)
	// bootstrap > 0 trains models after that much streamed history;
	// 0 starts the motes on their default value-driven push.
	bootstrap time.Duration
	// warm is advanced in steps after bootstrap, before the first op.
	warm  time.Duration
	sched func(rng *rand.Rand, d scenario.Deployment, now simtime.Time) *schedule

	// prefixOps is the fixed schedule prefix a traced pass runs; markOps
	// is the op count at which a timed pass samples the live heap (a
	// fixed point of the schedule, so the state measured does not depend
	// on how fast the run went).
	prefixOps, markOps int
	// inexact marks a workload whose simulation does not repeat bit for
	// bit for one seed (see README, "What repeats exactly"): its answer
	// digest is printed but not required to match between passes.
	inexact bool
}

const delta = 1.0 // fleet-wide push threshold of every benchmark deployment

func regional() scenario.Environment {
	return scenario.Environment{Regional: scenario.Regional{
		EventsPerDay: 1, RegionProxies: 2, Amp: 4, Duration: query.Dur(45 * time.Minute),
	}}
}

// serveFleet is the 64-mote deployment both HTTP workloads share.
func serveFleet(name string) func(int64) scenario.Spec {
	return func(seed int64) scenario.Spec {
		return scenario.Spec{Name: name, Seed: seed, Environment: regional(),
			Deployment: scenario.Deployment{Proxies: 4, MotesPerProxy: 16, Shards: 4, Sites: 1,
				Days: 3, Delta: delta, Store: "mem"}}
	}
}

// flashGeometry is each domain's archive device: 1 MiB, about 52k raw
// records, so sixteen streaming motes overflow it in a little over two
// days and aging compactions run for the rest of the pass.
var flashGeometry = flash.Geometry{PageSize: 512, PagesPerBlock: 64, NumBlocks: 32}

// maxDays bounds how far a stepping workload may advance: traces are
// generated this long, and a pass that gets there stops early.
const maxDays = 45

var workloads = []*workload{
	{
		Name: wServeHot, HTTP: true,
		Why:  "512 questions cycled over HTTP with the clock parked: every op is a semantic-cache hit, so serve and query JSON do the work and core/store none",
		spec: serveFleet(wServeHot), warm: 48 * time.Hour,
		sched: func(rng *rand.Rand, d scenario.Deployment, now simtime.Time) *schedule {
			return serveHotSchedule(rng, d, now)
		},
		prefixOps: 2000, markOps: 20000,
	},
	{
		Name: wFleetScatter, HTTP: true,
		Why:  "never-repeated fleet AGGs over HTTP: every op misses, inserts and evicts in the serve cache, and core scatter, store routing, fold and merge do the work",
		spec: serveFleet(wFleetScatter), warm: 48 * time.Hour,
		sched: func(rng *rand.Rand, d scenario.Deployment, now simtime.Time) *schedule {
			return fleetScatterSchedule(rng, d, now, serve.DefaultCacheEntries)
		},
		prefixOps: 2000, markOps: 600,
	},
	{
		Name: wFlashAging,
		Why:  "streaming motes overflow a small flash archive while aged and fresh windows are read: ingest, compaction and wavelet aging beside reads, so read gains bought with write cost show",
		spec: func(seed int64) scenario.Spec {
			return scenario.Spec{Name: wFlashAging, Seed: seed, Environment: regional(),
				Deployment: scenario.Deployment{Proxies: 8, MotesPerProxy: 8, Shards: 4, Sites: 1,
					Days: maxDays, Delta: delta, Store: "flash", Aging: "wavelet"}}
		},
		tune: func(cfg *core.Config) {
			cfg.StoreFlash = flashGeometry
			// Every sample reaches the archive: the store is the serving
			// layer here, as dense as the paper's "full archival store".
			p := baseline.StreamAll()
			cfg.Preset = &p
		},
		warm: 3 * 24 * time.Hour,
		sched: func(rng *rand.Rand, d scenario.Deployment, _ simtime.Time) *schedule {
			return flashAgingSchedule(rng, d)
		},
		prefixOps: 2000, markOps: 2400,
	},
	{
		Name: wLiveMixed,
		Why:  "the paper proper on a live clock: rendezvous NOW, model/replica NOW, archive-pull PAST, trailing AGG and four standing specs; the only source of energy, virtual latency and bound honesty",
		spec: func(seed int64) scenario.Spec {
			env := regional()
			env.RadioLoss = 0.01
			return scenario.Spec{Name: wLiveMixed, Seed: seed, Environment: env,
				Deployment: scenario.Deployment{Proxies: 4, MotesPerProxy: 16, Shards: 4, Sites: 1,
					Days: maxDays, Delta: delta, Store: "mem", Wired: true}}
		},
		bootstrap: 24 * time.Hour, warm: 2 * time.Hour,
		sched: func(rng *rand.Rand, d scenario.Deployment, _ simtime.Time) *schedule {
			return liveMixedSchedule(rng, d)
		},
		prefixOps: 2000, markOps: 2400, inexact: true,
	},
	{
		Name: wCluster2Site,
		Why:  "fleet AGG and NOW through a 2-site coordinator on loopback TCP with a lease step per 16 ops: cluster, wire and binary codecs do what fleet_scatter does in-process",
		spec: func(seed int64) scenario.Spec {
			return scenario.Spec{Name: wCluster2Site, Seed: seed, Environment: regional(),
				Deployment: scenario.Deployment{Proxies: 8, MotesPerProxy: 8, Shards: 4, Sites: 2,
					Days: maxDays, Delta: delta, Store: "mem"}}
		},
		bootstrap: 24 * time.Hour, warm: 2 * time.Hour,
		sched: func(rng *rand.Rand, d scenario.Deployment, _ simtime.Time) *schedule {
			return clusterSchedule(rng, d)
		},
		prefixOps: 2000, markOps: 1600,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return nil, false
}

// setupTimes are the set-up phases the per-layer set-up metrics report.
type setupTimes struct {
	total     time.Duration
	generate  time.Duration // scenario.Generate: traces, events, deployment, arrivals
	bootstrap time.Duration // Network/Coordinator Bootstrap (training + shipping models)
}

// instance is one running deployment of a workload plus everything the
// harness drives it with. Exactly one of net / co is set.
type instance struct {
	w     *workload
	sc    *scenario.Scenario
	sched *schedule

	net *core.Network
	co  *cluster.Coordinator
	// siteDone yields the in-process site's cluster.Serve result.
	siteDone   chan error
	siteCancel context.CancelFunc

	// eng is what ops are posed to: the engine itself, or the span-
	// recording wrapper around it in a traced pass.
	eng engine
	cl  *core.Client

	srv     *serve.Server
	httpSrv *http.Server
	served  chan error
	url     string
	clients []*httpClient
	// planted holds, per serve_hot question, the hash of the answer its
	// miss planted in the serve cache (read and written by both clients).
	planted []atomic.Uint64

	rec  *recorder // nil with tracing off
	wrap *engineSpans
	conn *transportSpans

	streams []*core.ResultStream
	nextSeq []int // per standing stream: the round due next

	// vnow is the harness's own virtual clock: the deployment's clock
	// after set-up plus every step the harness advanced since.
	vnow  simtime.Time
	times setupTimes
}

// local is the deployment the workload's stats come from: the network
// itself, or the coordinator's local window.
func (in *instance) local() *core.Network {
	if in.co != nil {
		return in.co.Network()
	}
	return in.net
}

// advance moves the whole deployment one step forward.
func (in *instance) advance(ctx context.Context) error {
	if in.co != nil {
		if err := in.co.Run(ctx, step); err != nil {
			return err
		}
	} else {
		in.net.Run(step)
	}
	in.vnow += simtime.Time(step)
	return nil
}

// setUp builds a fresh deployment of w from seed and brings it to the
// state the first timed op finds: traces generated, deployment built,
// models bootstrapped, history advanced, server listening, caches warm.
// rec non-nil installs the span-recording seams. Standing specs are
// opened separately (openStanding), on the instance a run keeps.
func setUp(ctx context.Context, w *workload, seed int64, rec *recorder) (_ *instance, err error) {
	start := time.Now()
	in := &instance{w: w, rec: rec}
	defer func() {
		if err != nil {
			in.close()
		}
	}()

	in.sc, err = scenario.Generate(w.spec(seed))
	if err != nil {
		return nil, err
	}
	in.times.generate = time.Since(start)
	cfg := in.sc.Config
	if w.tune != nil {
		w.tune(&cfg)
	}

	if sites := in.sc.Spec.Deployment.Sites; sites > 1 {
		if err := in.startCluster(ctx, cfg, sites); err != nil {
			return nil, err
		}
		in.eng = in.co
	} else {
		if in.net, err = core.Build(cfg); err != nil {
			return nil, err
		}
		in.eng = in.net
	}

	t := time.Now()
	switch {
	case w.bootstrap > 0 && in.co != nil:
		err = in.co.Bootstrap(ctx, w.bootstrap, 48, cfg.Delta)
	case w.bootstrap > 0:
		_, err = in.net.Bootstrap(w.bootstrap, 48, cfg.Delta)
	case in.co != nil:
		err = in.co.Start(ctx)
	default:
		in.net.Start()
	}
	if err != nil {
		return nil, fmt.Errorf("%s: bootstrap: %w", w.Name, err)
	}
	in.times.bootstrap = time.Since(t)
	in.vnow = in.eng.Now()
	for d := time.Duration(0); d < w.warm; d += step {
		if err := in.advance(ctx); err != nil {
			return nil, err
		}
	}

	if rec != nil {
		in.wrap = &engineSpans{inner: in.eng, rec: rec}
		in.eng = in.wrap
	}
	in.cl = core.NewClient(in.eng)
	if w.HTTP {
		if err := in.startServer(); err != nil {
			return nil, err
		}
	}

	// The op schedule is drawn from its own stream of the seed, so it does
	// not depend on how many draws trace generation made.
	in.sched = w.sched(rand.New(rand.NewSource(seed^0x5eed0b5)), in.sc.Spec.Deployment, in.vnow)
	if err := in.warmUp(ctx); err != nil {
		return nil, fmt.Errorf("%s: warm-up: %w", w.Name, err)
	}
	in.times.total = time.Since(start)
	return in, nil
}

// openStanding opens the schedule's continuous specs. It is not part of
// setUp because a closed Network that ever hosted a standing spec is
// never collected — its finalizer sits in a reference cycle with the
// spec's re-arm closure on the anchor kernel — so the set-ups a timed run
// makes only to time them must not open any, or each would stay in the
// heap the run goes on to measure.
func (in *instance) openStanding(ctx context.Context) error {
	for _, sp := range in.sched.Standing {
		st, err := in.cl.Query(ctx, sp)
		if err != nil {
			return fmt.Errorf("%s: standing spec: %w", in.w.Name, err)
		}
		in.streams = append(in.streams, st)
	}
	in.nextSeq = make([]int, len(in.streams))
	return nil
}

// startCluster listens on loopback TCP, serves the remote site from a
// goroutine of this process and waits for it to join.
func (in *instance) startCluster(ctx context.Context, cfg core.Config, sites int) error {
	var tr cluster.Transport = cluster.TCP{}
	if in.rec != nil {
		in.conn = &transportSpans{Transport: tr, rec: in.rec}
		tr = in.conn
	}
	co, err := cluster.Listen(tr, "127.0.0.1:0", cfg, cluster.Options{Sites: sites})
	if err != nil {
		return err
	}
	in.co = co
	siteCtx, cancel := context.WithCancel(ctx)
	in.siteCancel = cancel
	in.siteDone = make(chan error, sites-1)
	for s := 1; s < sites; s++ {
		go func() { in.siteDone <- cluster.Serve(siteCtx, cluster.TCP{}, co.Addr(), cfg) }()
	}
	return co.AcceptSites(ctx)
}

// startServer fronts the engine — the bare network, or the span wrapper
// (which forwards Now and RegisterMetrics) when tracing — with the serve
// tier on a real loopback listener.
func (in *instance) startServer() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	in.srv = serve.New(in.eng, serve.Config{Scenario: in.w.Name})
	var h http.Handler = in.srv.Handler()
	if in.rec != nil {
		h = handlerSpans(h, in.rec)
	}
	in.httpSrv = &http.Server{Handler: h}
	in.served = make(chan error, 1)
	go func() { in.served <- in.httpSrv.Serve(ln) }()
	in.url = "http://" + ln.Addr().String() + "/v1/query"
	return nil
}

// close tears the deployment down and waits for every goroutine the
// harness started for it.
func (in *instance) close() {
	for _, st := range in.streams {
		st.Close()
	}
	for _, c := range in.clients {
		c.close()
	}
	if in.httpSrv != nil {
		in.srv.Close()
		_ = in.httpSrv.Close()
		if err := <-in.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# %s: http server: %v\n", in.w.Name, err)
		}
	}
	if in.co != nil {
		in.co.Close()
		in.siteCancel()
		for i := 1; i < in.sc.Spec.Deployment.Sites; i++ {
			if err := <-in.siteDone; err != nil && !errors.Is(err, context.Canceled) {
				fmt.Printf("# %s: site: %v\n", in.w.Name, err)
			}
		}
	}
	if in.net != nil {
		in.net.Close()
	}
}
