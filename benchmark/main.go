// Command benchmark is PRESTO's performance instrument: five named,
// seeded workloads driven from outside through the public entry points,
// every answer checked, end-to-end metrics from a timed pass with
// tracing off and per-layer metrics from a traced pass. BENCHMARK.json
// at the repository root names the same workloads and metrics; README.md
// in this directory says what each one means and what is not covered.
//
//	go run -C benchmark . -seed 1                      all workloads, both passes
//	go run -C benchmark . -workload live_mixed -trace 0 -seconds 10 -seed 3
//	go run -C benchmark . -repeat 5 -out a.json        five runs of everything
//	go run -C benchmark . compare a.json b.json
//	go run -C benchmark . manifest > BENCHMARK.json    regenerate the manifest
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"presto/internal/core"
)

// runResult is one pass of one workload.
type runResult struct {
	Workload  string            `json:"workload"`
	Trace     int               `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Info is what a timed pass measured besides the end-to-end metrics:
	// printed and compared, not bounded.
	Info map[string]metric `json:"info,omitempty"`
	// Samples is how many query-op latencies the percentiles rest on.
	Samples     int      `json:"samples"`
	ScheduleSHA string   `json:"schedule_sha256"`
	AnswersSHA  string   `json:"answers_sha256,omitempty"`
	Notes       []string `json:"notes,omitempty"`
}

// document is what -out writes and compare reads.
type document struct {
	Seed       int64       `json:"seed"`
	Quick      bool        `json:"quick"`
	Seconds    int         `json:"seconds"`
	NProc      int         `json:"nproc"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Go         string      `json:"go"`
	Commit     string      `json:"commit"`
	Runs       []runResult `json:"runs"`
}

// options are the knobs a run takes from the command line.
type options struct {
	seed    int64
	seconds int
	quick   bool
	outDir  string
}

// scale shrinks op counts for -quick.
func (o options) scale(n, perStep int) int {
	if !o.quick {
		return n
	}
	n /= 20
	if perStep > 1 {
		n -= n % perStep
	}
	return max(n, max(perStep, 1))
}

func (o options) setUps() int {
	if o.quick {
		return 1
	}
	// Seven, because live_mixed's bootstrap over the wired bridge takes
	// anything from 0.1 to 0.6 s on the same seed: the median of fewer
	// moves by a quarter from run to run.
	return 7
}

func (o options) deadline() time.Duration {
	d := time.Duration(o.seconds) * time.Second
	if o.quick {
		d /= 20
	}
	return d
}

func httpClients() int { return min(2, runtime.NumCPU()) }

// timedRun is the end-to-end pass: the deployment is set up several
// times (set-up time is the median; each starts from a collected heap, so
// one set-up does not pay for the last one's garbage), then the schedule
// is driven for the run's seconds with no tracing seam installed.
func timedRun(ctx context.Context, w *workload, o options) (runResult, error) {
	// What the heap already holds — other workloads' leftovers when several
	// run in one process — is not this deployment's. Two collections: a
	// closed network is freed only after its finalizer has run.
	liveHeap(0)
	heapBefore := liveHeap(0)
	var in *instance
	var setUps []float64
	for k := 0; k < o.setUps(); k++ {
		if in != nil {
			in.close()
		}
		runtime.GC()
		var err error
		if in, err = setUp(ctx, w, o.seed, nil); err != nil {
			return runResult{}, err
		}
		setUps = append(setUps, in.times.total.Seconds())
	}
	defer in.close()
	if err := in.openStanding(ctx); err != nil {
		return runResult{}, err
	}

	perStep := in.sched.PerStep
	before := in.readCounters()
	res, err := in.runPass(ctx, passConfig{deadline: o.deadline(), markOps: o.scale(w.markOps, perStep), clients: httpClients()})
	if err != nil {
		return runResult{}, err
	}
	after := in.readCounters()

	opsPerS, lat50, lat99 := res.windowed(windows, w.HTTP)
	v := map[string]float64{
		"setup_s":       median(setUps),
		"ops_per_s":     opsPerS,
		"lat_p50_ms":    lat50,
		"lat_p99_ms":    lat99,
		"allocs_per_op": ratio(float64(res.mallocs), float64(res.attempted)),
		"live_heap_mb":  res.liveHeapMB - heapBefore,
	}
	out := runResult{
		Workload: w.Name, Trace: 0, Attempted: res.attempted, Failed: res.failed,
		Metrics: report(endToEnd, v), Samples: len(res.durations(evOp)), ScheduleSHA: in.sched.digest(o.scale(w.prefixOps, perStep)),
	}
	// The write side of a stepping workload, from the full timed pass
	// (the traced pass reports the same two over far fewer steps).
	if steps := res.durations(evStep); len(steps) > 0 {
		out.Info = map[string]metric{
			"advance_vh_per_s": {ratio(float64(len(steps))*step.Hours(), sum(steps)/1e3), "vh/s"},
			"advance_p99_ms":   {p99(steps), "ms"},
			"advance_steps":    {float64(len(steps)), "count"},
		}
	}
	out.Notes = in.invariants(before, after, res, o.quick)
	if res.firstFailure != "" {
		out.Notes = append(out.Notes, "first failure: "+res.firstFailure)
	}
	out.Correct = res.failed == 0 && len(out.Notes) == 0
	return out, nil
}

// invariants are the properties a workload must show for its numbers to
// mean what its "why" says; a broken one makes the run incorrect.
func (in *instance) invariants(before, after counters, res *passResult, quick bool) []string {
	var notes []string
	switch in.w.Name {
	case wServeHot:
		if share := ratio(float64(res.hits), float64(res.lookups)); share < 0.99 {
			notes = append(notes, fmt.Sprintf("serve cache hit share %.4f < 0.99", share))
		}
	case wFleetScatter:
		if res.hits != 0 {
			notes = append(notes, fmt.Sprintf("%d serve cache hits on never-repeated keys", res.hits))
		}
		if ev := after.serve.Cache.Evictions - before.serve.Cache.Evictions; !quick && ev == 0 {
			notes = append(notes, "serve cache never evicted: it was not full")
		}
	case wFlashAging:
		if after.backend.Dropped != 0 {
			notes = append(notes, fmt.Sprintf("flash archive dropped %d records", after.backend.Dropped))
		}
		if after.backend.Compactions == before.backend.Compactions && !quick {
			notes = append(notes, "no aging compaction ran during the pass")
		}
	case wLiveMixed:
		if after.proxy.PullsIssued == before.proxy.PullsIssued {
			notes = append(notes, "no mote rendezvous during the pass")
		}
	}
	if in.w.Name != wLiveMixed && in.w.Name != wFlashAging && after.proxy.PullsIssued != before.proxy.PullsIssued {
		notes = append(notes, fmt.Sprintf("%d mote rendezvous on a workload that must not wake motes",
			after.proxy.PullsIssued-before.proxy.PullsIssued))
	}
	return notes
}

// windows is how many equal slices of wall time a timed pass is cut
// into; throughput and latency percentiles are the median slice's.
const windows = 10

// routeOps is how many ops the route pass poses with the program's own
// obs.Trace attached.
const routeOps = 400

// tracedRun is the per-layer pass: the fixed schedule prefix once with
// no seam installed (the reference: answer digest, untraced speed, the
// cluster's single-process twin), then on a fresh set-up of the same
// seed with every seam recording spans, then a short route pass and the
// direct probes.
func tracedRun(ctx context.Context, w *workload, o options) (runResult, error) {
	ref, refDigest, err := referencePass(ctx, w, o)
	if err != nil {
		return runResult{}, err
	}

	rec := newRecorder(w.Name)
	in, err := setUp(ctx, w, o.seed, rec)
	if err != nil {
		return runResult{}, err
	}
	defer in.close()
	if err := in.openStanding(ctx); err != nil {
		return runResult{}, err
	}
	perStep := in.sched.PerStep
	prefix := o.scale(w.prefixOps, perStep)
	before := in.readCounters()
	tr, err := in.runPass(ctx, passConfig{fixedOps: prefix, clients: 1, spans: true, digest: true})
	if err != nil {
		return runResult{}, err
	}
	after := in.readCounters()
	spans := rec.snapshot()
	adoptOrphans(spans, spanSubmit)
	v := in.layerMetrics(before, after, ref, tr, spans)

	in.wrap.routes.Store(true)
	if _, err := in.runPass(ctx, passConfig{fixedOps: o.scale(routeOps, perStep), clients: 1, spans: true}); err != nil {
		return runResult{}, err
	}
	in.wrap.routes.Store(false)
	in.routeShares(v)
	if err := in.probes(ctx, v, o.quick); err != nil {
		return runResult{}, fmt.Errorf("%s: probes: %w", w.Name, err)
	}

	out := runResult{
		Workload: w.Name, Trace: 1, Attempted: tr.attempted, Failed: tr.failed,
		Metrics: report(perLayer, v), Samples: len(tr.durations(evOp)),
		ScheduleSHA: in.sched.digest(prefix), AnswersSHA: tr.digest,
	}
	out.Notes = in.invariants(before, after, tr, o.quick)
	if ref.failed != 0 {
		out.Notes = append(out.Notes, "reference pass: "+ref.firstFailure)
	}
	if refDigest != tr.digest && !w.inexact {
		out.Notes = append(out.Notes, fmt.Sprintf("answers differ between the untraced (%.12s) and traced (%.12s) pass of one seed", refDigest, tr.digest))
	}
	if tr.firstFailure != "" {
		out.Notes = append(out.Notes, "first failure: "+tr.firstFailure)
	}
	out.Correct = tr.failed == 0 && len(out.Notes) == 0
	if path, err := writeTrace(o.outDir, w.Name, spans); err != nil {
		return runResult{}, err
	} else {
		fmt.Printf("# %s: %d spans written to %s\n", w.Name, len(spans), path)
	}
	return out, nil
}

// referencePass runs the fixed prefix with no seam installed. For the
// cluster workload it also advances a single-process twin in lockstep.
func referencePass(ctx context.Context, w *workload, o options) (*passResult, string, error) {
	in, err := setUp(ctx, w, o.seed, nil)
	if err != nil {
		return nil, "", err
	}
	defer in.close()
	if err := in.openStanding(ctx); err != nil {
		return nil, "", err
	}
	cfg := passConfig{fixedOps: o.scale(w.prefixOps, in.sched.PerStep), clients: 1, digest: true}
	if in.co != nil {
		twin, err := in.buildTwin()
		if err != nil {
			return nil, "", err
		}
		defer twin.Close()
		cfg.twin = twin
	}
	res, err := in.runPass(ctx, cfg)
	if err != nil {
		return nil, "", err
	}
	return res, res.digest, nil
}

// buildTwin brings a single-process build of the cluster's deployment to
// the same virtual instant by the same steps.
func (in *instance) buildTwin() (*core.Network, error) {
	cfg := in.sc.Config
	if in.w.tune != nil {
		in.w.tune(&cfg)
	}
	twin, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	if _, err := twin.Bootstrap(in.w.bootstrap, 48, cfg.Delta); err != nil {
		twin.Close()
		return nil, err
	}
	for d := time.Duration(0); d < in.w.warm; d += step {
		twin.Run(step)
	}
	return twin, nil
}

// commit names the source revision: stamped into the binary when the
// toolchain did so, else asked of git, else unknown (the driver's
// checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// printRun lists a run's metrics by name with unit and direction.
func printRun(r runResult) {
	pass, defs := "timed", endToEnd
	if r.Trace == 1 {
		pass, defs = "traced", perLayer
	}
	fmt.Printf("\n== %s (%s pass): correct=%t attempted=%d failed=%d latency samples=%d\n",
		r.Workload, pass, r.Correct, r.Attempted, r.Failed, r.Samples)
	fmt.Printf("   schedule_sha256=%s\n", r.ScheduleSHA)
	if r.AnswersSHA != "" {
		fmt.Printf("   answers_sha256=%s\n", r.AnswersSHA)
	}
	for _, n := range r.Notes {
		fmt.Printf("   ! %s\n", n)
	}
	for _, d := range defs {
		m := r.Metrics[d.Name]
		if r.Trace == 1 && m.Value == 0 {
			continue // not produced by this workload's layers
		}
		line := fmt.Sprintf("   %-32s %14.6g %-6s (%s is better", d.Name, m.Value, m.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", d.Bound*100)
		}
		fmt.Println(line + ")")
	}
	for _, name := range sortedKeys(r.Info) {
		fmt.Printf("   %-32s %14.6g %-6s (informational)\n", name, r.Info[name].Value, r.Info[name].Unit)
	}
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fmt.Fprintln(os.Stderr, "usage: benchmark compare A.json B.json")
			os.Exit(2)
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) == 2 && os.Args[1] == "manifest" {
		buf, err := manifest()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		os.Stdout.Write(buf)
		return
	}
	var (
		o       options
		only    = flag.String("workload", "", "run one workload (default: all five)")
		trace   = flag.Int("trace", -1, "0: timed pass only, 1: traced pass only (default: both)")
		repeat  = flag.Int("repeat", 1, "run everything this many times (for compare)")
		outPath = flag.String("out", "", "write every run as one JSON document to this file")
	)
	flag.Int64Var(&o.seed, "seed", 1, "seed for data, deployment and op schedule")
	flag.IntVar(&o.seconds, "seconds", runSeconds, "how long a timed pass measures")
	flag.BoolVar(&o.quick, "quick", false, "1/20 of the op counts and run time: a smoke run, not a measurement")
	flag.StringVar(&o.outDir, "outdir", "out", "directory for trace-<workload>.jsonl")
	flag.Parse()
	if flag.NArg() != 0 || o.seconds < 1 || *repeat < 1 || *trace < -1 || *trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	selected := workloads
	if *only != "" {
		w, ok := workloadByName(*only)
		if !ok {
			var names []string
			for _, w := range workloads {
				names = append(names, w.Name)
			}
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *only, strings.Join(names, ", "))
			os.Exit(2)
		}
		selected = []*workload{w}
	}

	doc := document{
		Seed: o.seed, Quick: o.quick, Seconds: o.seconds,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), Commit: commit(),
	}
	fmt.Printf("# presto benchmark: seed=%d seconds=%d quick=%t nproc=%d gomaxprocs=%d %s commit=%s\n",
		doc.Seed, doc.Seconds, doc.Quick, doc.NProc, doc.GOMAXPROCS, doc.Go, doc.Commit)
	ctx := context.Background()
	ok := true
	for rep := 0; rep < *repeat; rep++ {
		for _, w := range selected {
			for _, pass := range []int{0, 1} {
				if *trace >= 0 && *trace != pass {
					continue
				}
				run := timedRun
				if pass == 1 {
					run = tracedRun
				}
				r, err := run(ctx, w, o)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.Name, err)
					os.Exit(1)
				}
				printRun(r)
				ok = ok && r.Correct
				doc.Runs = append(doc.Runs, r)
			}
		}
	}
	if *outPath != "" {
		buf, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	if *repeat > 1 {
		fmt.Println()
		summarize(os.Stdout, doc)
	}

	// The driver's contract: one workload, one pass, and as the last line
	// of standard output one JSON object with exactly these keys.
	if len(doc.Runs) == 1 {
		r := doc.Runs[0]
		last, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{r.Correct, r.Attempted, r.Failed, r.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Printf("%s\n", last)
		return // the driver reads "correct" from the line; the exit code says the run completed
	}
	if !ok {
		os.Exit(1)
	}
}

// sortedKeys is map keys in order, for stable output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
