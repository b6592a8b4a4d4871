// Command prestod runs one PRESTO deployment: it builds the deployment,
// bootstraps the prediction models, advances virtual time while posing a
// query mix, and reports what the motes and proxies did.
//
// Usage:
//
//	prestod [-proxies N] [-motes N] [-shards N] [-days N] [-delta F]
//	        [-loss F] [-seed N] [-store mem|flash] [-aging wavelet[:tiers]|uniform]
//	        [-wired] [-scenario file.json|preset]
//	        [-queries N] [-precision F] [-max-staleness D] [-every D] [-v]
//	        [-listen addr [-sites N] [-quantum D] [-checkpoint dir] | -join addr]
//	        [-http addr [-http-qps F] [-http-pace D] [-pprof] [-slow-query D]]
//	        [-runtime-trace file]
//
// The deployment flags fill a scenario.Spec; -scenario loads one instead
// (a JSON file written by presto-scenario, or a built-in preset name) and
// the deployment flags are ignored. Either way scenario.Generate builds the
// deployment, and the run prints its digest: the same flags, or the same
// spec, give the same deployment in every mode and every process.
//
// -wired makes proxy 0 the wired replica of the others: their confirmed
// data and models are mirrored to it, and NOW queries for their motes are
// offered to it first. It is off by default in every mode, because its
// cross-domain delivery depends on goroutine timing.
//
// The run has three modes over one schedule. By default the deployment
// runs in this process. -listen makes this process the coordinator of a
// cluster: it hosts the first window of the domains and waits for -sites-1
// processes started with -join and the same deployment (a config
// fingerprint refuses any other). Either way the schedule is: train for
// min(36h, days/2), run half the remainder, print the trailing 2 h mean
// AGG at full precision, write the -checkpoint (coordinator only), then
// run the -queries mix and the -every standing query over the back half.
// The report gives latency, answer sources and the error against the
// generated traces; in-process runs add energy and store counters, and a
// coordinator adds frame counts and site health. The run fails if an
// answer exceeds its precision promise.
//
// With -http the process serves the internal/serve HTTP/JSON API
// (POST /v1/query, /healthz, /statsz, /metricsz) after bootstrap instead,
// advancing the clock to the horizon in the background (-http-pace paces
// it), then serving with the clock frozen. -pprof mounts net/http/pprof on
// the same address; -slow-query logs slow queries with their traces.
//
// SIGINT and SIGTERM drain every mode: standing queries end, in-flight
// queries finish, cluster sites are stopped, and the report is printed.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	rtrace "runtime/trace"
	"syscall"
	"time"

	"presto/internal/cluster"
	"presto/internal/core"
	"presto/internal/energy"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/scenario"
	"presto/internal/serve"
	"presto/internal/simtime"
	"presto/internal/stats"
	"presto/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("prestod: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// options are the flags that shape a run rather than the deployment.
type options struct {
	queries                  int
	precision                float64
	maxStale, every          time.Duration
	listen, join, checkpoint string
	quantum                  time.Duration
	httpAddr                 string
	httpQPS                  float64
	httpPace, slowQuery      time.Duration
	pprof, verbose           bool
	runtimeTrace             string
}

// run is the whole command: parse args, build the deployment, and drive
// it until the schedule ends or ctx is cancelled.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	spec, o, err := parseArgs(args, stderr)
	if err != nil {
		return err
	}
	if o.runtimeTrace != "" {
		f, err := os.Create(o.runtimeTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := rtrace.Start(f); err != nil {
			return err
		}
		defer rtrace.Stop()
	}
	sc, err := scenario.Generate(spec)
	if err != nil {
		return err
	}
	d := spec.Deployment
	fmt.Fprintf(stdout, "deployment %q (seed %d): %d proxies x %d motes in %d domain(s), %d days, wired=%t, digest %s\n",
		spec.Name, spec.Seed, d.Proxies, d.MotesPerProxy, core.NewLayout(sc.Config).Shards, d.Days, d.Wired,
		sc.DeploymentDigest())

	var dep deployment
	switch {
	case o.join != "":
		fmt.Fprintf(stdout, "cluster: joining coordinator at %s\n", o.join)
		if err := cluster.Serve(ctx, cluster.TCP{}, o.join, sc.Config); err != nil && ctx.Err() == nil {
			return err
		}
		fmt.Fprintln(stdout, "cluster: site done")
		return nil
	case o.listen != "":
		co, err := cluster.Listen(cluster.TCP{}, o.listen, sc.Config, cluster.Options{Sites: d.Sites, Quantum: o.quantum})
		if err != nil {
			return err
		}
		defer co.Close()
		fmt.Fprintf(stdout, "cluster: listening on %s, waiting for %d site(s)\n", co.Addr(), d.Sites-1)
		if err := co.AcceptSites(ctx); err != nil {
			return err
		}
		dep = coordinator{co}
	default:
		n, err := core.Build(sc.Config)
		if err != nil {
			return err
		}
		defer n.Close()
		dep = network{n}
	}
	return drive(ctx, dep, sc, o, stdout)
}

// parseArgs maps the command line onto the deployment's scenario.Spec and
// the run's options.
func parseArgs(args []string, stderr io.Writer) (scenario.Spec, options, error) {
	fs := flag.NewFlagSet("prestod", flag.ContinueOnError)
	fs.SetOutput(stderr)
	spec := scenario.Spec{Name: "flags"}
	d := &spec.Deployment
	fs.IntVar(&d.Proxies, "proxies", 2, "number of proxies")
	fs.IntVar(&d.MotesPerProxy, "motes", 10, "motes per proxy")
	fs.IntVar(&d.Shards, "shards", 1, "concurrent simulation domains (clamped to proxies)")
	fs.IntVar(&d.Days, "days", 7, "days of virtual time to run")
	fs.Float64Var(&d.Delta, "delta", 1.0, "model-driven push threshold")
	fs.StringVar(&d.Store, "store", "mem", "per-domain archive: mem (the proxy caches) or flash (adds a flash archive backend)")
	fs.StringVar(&d.Aging, "aging", "wavelet", "flash compaction aging policy: wavelet[:tiers] or uniform")
	fs.BoolVar(&d.Wired, "wired", false, "make proxy 0 the wired replica of the others (cross-domain delivery is timing-dependent)")
	fs.Float64Var(&spec.Environment.RadioLoss, "loss", 0.02, "radio loss probability")
	fs.Int64Var(&spec.Seed, "seed", 1, "random seed")
	specArg := fs.String("scenario", "", "boot a scenario spec instead of the deployment flags: a spec JSON file from presto-scenario, or a built-in preset name")
	sites := fs.Int("sites", 2, "cluster total process count for -listen, coordinator included (a -scenario spec sets its own)")

	var o options
	fs.IntVar(&o.queries, "queries", 200, "queries to pose over the back half of the run")
	fs.Float64Var(&o.precision, "precision", 1.0, "query precision (error tolerance)")
	fs.DurationVar(&o.maxStale, "max-staleness", 0, "per-query freshness bound (0 = unbounded); PAST windows whose tail overlaps now honor it too")
	fs.DurationVar(&o.every, "every", 0, "standing query period of virtual time over the back half (0 = no continuous query)")
	fs.StringVar(&o.listen, "listen", "", "cluster coordinator: TCP listen address (host:port; :0 picks a port)")
	fs.StringVar(&o.join, "join", "", "cluster site: coordinator address to join")
	fs.DurationVar(&o.quantum, "quantum", cluster.DefaultQuantum, "cluster advance-lease quantum of virtual time; bounds a lease only with -wired (the replica bridge crosses sites)")
	fs.StringVar(&o.checkpoint, "checkpoint", "", "cluster coordinator: write a cluster-wide domain checkpoint to this directory after the aggregate")
	fs.StringVar(&o.httpAddr, "http", "", "serve the HTTP/JSON query API on this address after bootstrap (e.g. :8080) instead of the query mix")
	fs.Float64Var(&o.httpQPS, "http-qps", 0, "per-tenant admission rate for the HTTP tier in queries/sec (0 = unlimited)")
	fs.DurationVar(&o.httpPace, "http-pace", 0, "virtual time advanced per wall second in -http mode (0 = as fast as possible, then freeze at the horizon)")
	fs.BoolVar(&o.pprof, "pprof", false, "mount net/http/pprof under /debug/pprof/ on the -http address")
	fs.DurationVar(&o.slowQuery, "slow-query", 0, "-http mode: log queries slower than this wall time with their trace (0 = off)")
	fs.StringVar(&o.runtimeTrace, "runtime-trace", "", "write a runtime/trace capture of the run to this file")
	fs.BoolVar(&o.verbose, "v", false, "print per-mote details (in-process runs)")
	if err := fs.Parse(args); err != nil {
		return spec, o, err
	}
	switch {
	case fs.NArg() > 0:
		return spec, o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.listen != "" && o.join != "":
		return spec, o, errors.New("-listen and -join are mutually exclusive")
	case o.checkpoint != "" && (o.listen == "" || o.httpAddr != ""):
		return spec, o, errors.New("-checkpoint needs -listen and no -http: a coordinator writes it after the aggregate")
	}
	if *specArg != "" {
		s, err := scenario.Load(*specArg)
		return s, o, err
	}
	// Sites shapes a cluster only; an in-process spec leaves it unset.
	if o.listen != "" {
		d.Sites = *sites
	}
	return spec, o, nil
}

// deployment is what drive needs of either mode: the serving
// engine, a two-phase bootstrap and an advancing clock.
type deployment interface {
	serve.Engine
	Bootstrap(ctx context.Context, trainFor time.Duration, bins int, delta float64) error
	Run(ctx context.Context, d time.Duration) error
}

// network adapts an in-process *core.Network to the coordinator's
// context-taking Bootstrap and Run.
type network struct{ *core.Network }

func (n network) Bootstrap(_ context.Context, trainFor time.Duration, bins int, delta float64) error {
	_, err := n.Network.Bootstrap(trainFor, bins, delta)
	return err
}

// Run advances d unless ctx is done; an in-process advance is not
// cancelled midway.
func (n network) Run(ctx context.Context, d time.Duration) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	n.Network.Run(d)
	return nil
}

// coordinator is a cluster coordinator as a deployment; it also surfaces
// its elasticity telemetry as the HTTP tier's /statsz cluster section.
type coordinator struct{ *cluster.Coordinator }

// drive bootstraps the deployment and either serves it over HTTP or runs
// the schedule and prints the report. Both modes take this one path.
func drive(ctx context.Context, dep deployment, sc *scenario.Scenario, o options, out io.Writer) error {
	horizon := time.Duration(sc.Spec.Deployment.Days) * 24 * time.Hour
	trainFor := min(36*time.Hour, horizon/2)
	fmt.Fprintf(out, "bootstrap: streaming for %v, then training seasonal-anchored models...\n", trainFor)
	if err := dep.Bootstrap(ctx, trainFor, 48, sc.Config.Delta); err != nil {
		return err
	}
	if o.httpAddr != "" {
		err := serveHTTP(ctx, dep, o, sc.Spec.Name, horizon-trainFor, out)
		fmt.Fprintf(out, "done after %v of virtual time\n", dep.Now())
		return err
	}
	t := tally{bySource: map[proxy.Source]int{}}
	if err := schedule(ctx, dep, sc.Config, o, horizon-trainFor, out, &t); err != nil {
		if ctx.Err() == nil {
			return err
		}
		fmt.Fprintln(out, "\nsignal received: draining and reporting early")
	}
	return report(ctx, dep, sc, o, &t, out)
}

// tally is what the schedule's queries saw.
type tally struct {
	latencies, errs []float64
	bySource        map[proxy.Source]int
	snapshots       int
}

// schedule runs the post-bootstrap part of a run: half the remaining time,
// the trailing 2 h mean AGG, the checkpoint, then the query mix and the
// standing query over the back half. It stops at the first error,
// ctx's included.
func schedule(ctx context.Context, dep deployment, cfg core.Config, o options, remaining time.Duration, out io.Writer, t *tally) (err error) {
	back := remaining - remaining/2
	if err := dep.Run(ctx, remaining/2); err != nil {
		return err
	}
	c := core.NewClient(dep)
	res, err := c.QueryOne(ctx, query.Spec{Type: query.Agg, Agg: query.Mean, Precision: o.precision, Trailing: 2 * time.Hour})
	if err != nil {
		return err
	}
	if len(res.SiteErrs) > 0 {
		se := res.SiteErrs[0]
		return fmt.Errorf("site %d failed the aggregate round: %w", se.Site, se.Err)
	}
	if res.Err != nil || res.Count == 0 {
		return fmt.Errorf("aggregate unusable: err=%v count=%d", res.Err, res.Count)
	}
	fmt.Fprintf(out, "agg: mean=%.17g bound=%.17g count=%d at=%v\n", res.Value, res.ErrBound, res.Count, res.At)

	if co, ok := dep.(coordinator); ok && o.checkpoint != "" {
		// Sites are quiescent between Runs: every domain is captured at
		// this lease instant.
		ck, err := co.CheckpointDomains(ctx)
		if err == nil {
			err = ck.WriteDir(o.checkpoint)
		}
		if err != nil {
			return fmt.Errorf("checkpoint: %w", err)
		}
		fmt.Fprintf(out, "checkpoint: %d domains at %v written to %s\n", len(ck.Blobs), ck.At, o.checkpoint)
	}

	if o.every > 0 {
		stream, qerr := c.Query(ctx, query.Spec{
			Type: query.Now, Precision: o.precision, MaxStaleness: o.maxStale,
			Continuous: &query.Continuous{Every: o.every, Until: back},
		})
		if qerr != nil {
			return qerr
		}
		done := make(chan int)
		go func() {
			n := 0
			for snap := range stream.Results() {
				if snap.Failed == 0 {
					n++
				}
			}
			done <- n
		}()
		defer func() {
			if err != nil { // a finished run's stream ends by itself
				stream.Close()
			}
			t.snapshots = <-done
		}()
	}

	// Single-mote NOW queries, 30% of them PAST points up to 10 h back,
	// spread evenly over the back half. PAST queries carry the freshness
	// bound too: it bites only when the window tail overlaps it.
	rng := rand.New(rand.NewSource(cfg.Seed))
	ids := core.NewLayout(cfg).AllMotes()
	per := back / time.Duration(o.queries+1)
	for range o.queries {
		if err := dep.Run(ctx, per); err != nil {
			return err
		}
		id := ids[rng.Intn(len(ids))]
		spec := query.Spec{Type: query.Now, Select: query.SelectMotes(id), Precision: o.precision, MaxStaleness: o.maxStale}
		if rng.Float64() < 0.3 {
			ago := simtime.Time(time.Duration(1+rng.Intn(600)) * time.Minute)
			spec.Type, spec.T0 = query.Past, max(dep.Now()-ago, 0)
			spec.T1 = spec.T0
		}
		set, err := c.QueryOne(ctx, spec)
		if err != nil {
			return err
		}
		if len(set.Results) != 1 {
			return fmt.Errorf("query for mote %d answered %d results (%d failed)", id, len(set.Results), set.Failed)
		}
		r := set.Results[0]
		t.latencies = append(t.latencies, r.Latency().Seconds()*1000)
		t.bySource[r.Answer.Source]++
		if v, ok := r.Answer.Value(); ok {
			truth := cfg.Traces[id-1].Value(r.Answer.Entries[0].T)
			t.errs = append(t.errs, math.Abs(v-truth))
		}
	}
	return dep.Run(ctx, back-per*time.Duration(o.queries))
}

// report prints what the run saw — the mode's own counters included — and
// fails the run if the standing query delivered nothing or an answer broke
// its precision promise.
func report(ctx context.Context, dep deployment, sc *scenario.Scenario, o options, t *tally, out io.Writer) error {
	fmt.Fprintf(out, "\n=== after %v of virtual time ===\n", dep.Now())
	p50, _ := stats.Median(t.latencies)
	p95, _ := stats.Quantile(t.latencies, 0.95)
	fmt.Fprintf(out, "query latency: p50=%.1f ms p95=%.1f ms over %d queries\n", p50, p95, len(t.latencies))
	fmt.Fprintf(out, "answers: cache=%d model=%d pull=%d timeout=%d archive=%d\n",
		t.bySource[proxy.FromCache], t.bySource[proxy.FromModel], t.bySource[proxy.FromPull],
		t.bySource[proxy.FromTimeout], t.bySource[proxy.FromArchive])
	if len(t.errs) > 0 {
		lo, hi, _ := stats.MinMax(t.errs)
		fmt.Fprintf(out, "answer error vs ground truth: mean=%.3f max=%.3f (min %.3f); precision=%.2f\n",
			stats.Mean(t.errs), hi, lo, o.precision)
	}
	if o.every > 0 {
		fmt.Fprintf(out, "standing query: %d fleet snapshots delivered (one per %v of virtual time)\n", t.snapshots, o.every)
	}
	switch dep := dep.(type) {
	case network:
		reportNetwork(out, dep.Network, sc, o.verbose)
	case coordinator:
		reportCluster(out, dep)
	}

	if o.every > 0 && t.snapshots == 0 && ctx.Err() == nil {
		return errors.New("standing query delivered no snapshots")
	}
	// Pull answers are exact and model answers bounded by delta <=
	// precision; float32 wire encoding needs a little slack. Replica
	// answers across domains can lag by up to the pushing mote's own
	// threshold, which heterogeneous scenarios set per mote.
	cfg := sc.Config
	slack := o.precision + 0.101
	if cfg.WiredFirstProxy && core.NewLayout(cfg).Shards > 1 {
		maxDelta := cfg.Delta
		for _, d := range cfg.MoteDeltas {
			maxDelta = max(maxDelta, d)
		}
		slack += maxDelta
	}
	for _, e := range t.errs {
		if e > slack {
			return fmt.Errorf("answer error %.3f exceeded precision %.2f", e, o.precision)
		}
	}
	return nil
}

// reportNetwork prints an in-process run's energy and store counters.
func reportNetwork(out io.Writer, n *core.Network, sc *scenario.Scenario, verbose bool) {
	total := n.TotalMoteEnergy()
	perMoteDay := total.Total() / float64(sc.Spec.Deployment.Motes()) / float64(sc.Spec.Deployment.Days)
	fmt.Fprintf(out, "mote energy: %.2f J/day/mote (%s)\n", perMoteDay, total.String())
	fmt.Fprintf(out, "est. lifetime on 2xAA: %.0f days\n",
		energy.Lifetime(energy.AABatteryJ, perMoteDay, 24*time.Hour).Hours()/24)
	submitted, replicaServed, bridgeSent, bridgeDelivered := n.EngineStats()
	fmt.Fprintf(out, "engine: %d submitted, %d replica-served, %d replica-bypassed (stale), bridge %d/%d sent/delivered\n",
		submitted, replicaServed, n.ReplicaBypassed(), bridgeSent, bridgeDelivered)
	ss, bs := n.StoreStats(), n.StoreBackendStats()
	fmt.Fprintf(out, "store: %d proxy-routed, %d replica-offered (%d stale-rejected), %d archive-served (%d stale-declined)\n",
		ss.Routed, ss.ReplicaRouted, ss.ReplicaStale, ss.ArchiveServed, ss.ArchiveStale)
	if sc.Config.StoreBackend == "flash" { // a mem domain has no backend: the proxy caches are its archive
		fmt.Fprintf(out, "archive backend: %d records (%d appends, %d dropped), %d range reads, read-amp %.2f, %d pages written, %d pages read, %d compactions (%s aging, %d wavelet chunks)",
			bs.Records, bs.Appends, bs.Dropped, bs.QueryRanges, bs.ReadAmp(),
			bs.PagesWritten, bs.PagesRead, bs.Compactions, sc.Config.StoreAging, bs.WaveletChunks)
		if bs.RecordsSkipped > 0 {
			fmt.Fprintf(out, ", chunk directory skipped %d records (read-amp %.2f without it)",
				bs.RecordsSkipped, bs.ReadAmpNoDir())
		}
		fmt.Fprintln(out)
	}
	if verbose {
		fmt.Fprintln(out, "\nper-mote detail:")
		for _, id := range n.MoteIDs() {
			st, _ := n.MoteStats(id)
			m, _ := n.MoteEnergy(id)
			fmt.Fprintf(out, "  mote %3d: samples=%d pushes=%d pulls=%d energy=%.2f J\n",
				id, st.Samples, st.Pushes, st.PullsServed, m.Total())
		}
	}
}

// reportCluster prints a coordinator's per-site frame counts and health.
func reportCluster(out io.Writer, co coordinator) {
	for i, st := range co.SiteStats() {
		fmt.Fprintf(out, "cluster frames: site %d sent=%d recv=%d scatter=%d partials=%d bridge=%d\n",
			i+1, st.Sent, st.Recv, st.SentKind[wire.FrameScatter],
			st.RecvKind[wire.FramePartials], st.RecvKind[wire.FrameBridge])
	}
	h := co.ClusterHealth()
	fmt.Fprintf(out, "cluster health: %d/%d sites alive, %d migration(s), %d re-join(s)\n",
		h.SitesAlive, len(h.Sites), h.Migrations, h.Rejoins)
}

// ClusterHealth surfaces the coordinator's elasticity telemetry as the
// HTTP tier's /statsz cluster section.
func (co coordinator) ClusterHealth() serve.ClusterHealth {
	h := co.Health()
	ch := serve.ClusterHealth{
		LeaseInstant: h.Lease.String(),
		Migrations:   h.Migrations,
		Rejoins:      h.Rejoins,
	}
	if h.LastMigration > 0 {
		ch.LastMigration = h.LastMigration.String()
	}
	if h.LastCheckpoint > 0 {
		ch.LastCheckpoint = h.LastCheckpoint.String()
	}
	stats := co.SiteStats() // indexed site-1; site 0 has no connection
	for _, sh := range h.Sites {
		if sh.Alive {
			ch.SitesAlive++
		}
		csh := serve.ClusterSiteHealth{Site: sh.Site, Domains: sh.Domains, Alive: sh.Alive}
		if sh.Site >= 1 && sh.Site <= len(stats) {
			st := stats[sh.Site-1]
			csh.FramesSent, csh.FramesRecv = st.Sent, st.Recv
			csh.WireSentBytes, csh.WireRecvBytes = st.SentBytes, st.RecvBytes
			csh.SentKindBytes = kindBytes(st.SentKindBytes)
			csh.RecvKindBytes = kindBytes(st.RecvKindBytes)
		}
		ch.Sites = append(ch.Sites, csh)
	}
	return ch
}

// kindBytes folds a per-frame-kind byte counter array into the JSON
// map /statsz serves, keyed by kind name and omitting idle kinds.
func kindBytes(a [wire.FrameKindMax + 1]uint64) map[string]uint64 {
	m := map[string]uint64{}
	for k := wire.FrameKind(1); k <= wire.FrameKindMax; k++ {
		if a[k] > 0 {
			m[k.String()] = a[k]
		}
	}
	return m
}

// serveHTTP fronts the deployment with the internal/serve HTTP tier and
// blocks until ctx is cancelled, then drains gracefully: SSE streams end
// with a shutdown event, in-flight one-shot queries finish through
// http.Server.Shutdown, and only then does the caller tear the deployment
// down. The virtual clock advances in small chunks until the horizon, so
// standing queries keep firing while requests land, then freezes and the
// tier keeps serving (deterministically, for cache demos).
func serveHTTP(ctx context.Context, dep deployment, o options, label string, horizon time.Duration, out io.Writer) error {
	srv := serve.New(dep, serve.Config{Admit: serve.AdmitConfig{QPS: o.httpQPS}, Scenario: label, SlowQuery: o.slowQuery})
	lis, err := net.Listen("tcp", o.httpAddr)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "http: serving on %s (virtual clock at %v, advancing %v)\n", lis.Addr(), dep.Now(), horizon)
	handler := srv.Handler()
	if o.pprof {
		// The serve mux owns everything else; pprof rides the same
		// listener so one curl target covers metrics and profiles.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		handler = mux
		fmt.Fprintln(out, "http: pprof mounted at /debug/pprof/")
	}
	hs := &http.Server{Handler: handler}
	httpErr := make(chan error, 1)
	go func() { httpErr <- hs.Serve(lis) }()

	drvCtx, drvCancel := context.WithCancel(ctx)
	defer drvCancel()
	var advErr error
	advanced := make(chan struct{})
	go func() {
		defer close(advanced)
		const chunk = 10 * time.Minute // virtual time per advance slice
		var tick <-chan time.Time
		if o.httpPace > 0 {
			// Real-time pacing: one chunk of virtual time per
			// chunk/pace of wall time, so standing queries fire at a
			// human-watchable rate instead of the horizon flashing by.
			t := time.NewTicker(time.Duration(float64(chunk) / float64(o.httpPace) * float64(time.Second)))
			defer t.Stop()
			tick = t.C
		}
		for left := horizon; left > 0 && drvCtx.Err() == nil; left -= chunk {
			if advErr = dep.Run(drvCtx, min(chunk, left)); advErr != nil {
				return
			}
			if tick != nil {
				select {
				case <-tick:
				case <-drvCtx.Done():
				}
			}
		}
	}()

	// Serve until a signal or a failure; once the horizon is reached the
	// clock stays frozen and the tier keeps serving.
	var bail error
	for wait := advanced; bail == nil && ctx.Err() == nil; {
		select {
		case <-ctx.Done():
		case err := <-httpErr:
			bail = fmt.Errorf("http: serve: %w", err)
		case <-wait:
			wait = nil
			if advErr != nil && ctx.Err() == nil {
				bail = fmt.Errorf("http: advancing virtual time: %w", advErr)
			}
		}
	}
	if bail == nil {
		fmt.Fprintln(out, "http: signal received; draining")
	}

	srv.Close() // end SSE streams first so Shutdown cannot hang on them
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && bail == nil {
		bail = fmt.Errorf("http: shutdown: %w", err)
	}
	drvCancel()
	<-advanced
	if advErr != nil && bail == nil && !errors.Is(advErr, context.Canceled) {
		bail = advErr
	}

	st := srv.Snapshot()
	fmt.Fprintf(out, "http: served %d queries (%d errors), cache %d/%d hit (ratio %.2f), %d SSE streams / %d rounds, %d throttled\n",
		st.Queries, st.Errors, st.Cache.Hits, st.Cache.Hits+st.Cache.Misses, st.CacheHitRatio,
		st.SSE.Streams, st.SSE.Rounds, st.Admit.Throttled)
	return bail
}
