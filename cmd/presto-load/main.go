// Command presto-load drives a prestod -http serving tier with a mixed
// query workload and reports client-side throughput and latency next to
// the server's own cache statistics.
//
// Usage:
//
//	presto-load [-addr URL] [-duration D] [-concurrency N] [-tenant S]
//	            [-scenario file.json|preset] [-explain N]
//
// -explain N poses every Nth request with ?explain=1 and tallies the
// routing decisions (cache-hit, model-hit, replica-hit, rendezvous, …)
// the server's trace reports, printing the mix at the end of the burst.
//
// By default the workload rotates through fleet NOW snapshots, trailing
// and fixed-window aggregates at a few precisions, so repeated questions
// exercise the semantic answer cache: a looser-precision repeat of an
// answered aggregate should be served from cache, and the final report
// prints the server's hit ratio from /statsz so a burst can assert it.
//
// With -scenario the burst replays a scenario's deterministic workload
// schedule instead: the spec's seeded arrival process (diurnal rate,
// bursts, many tenants, tight/loose precision pairs) is regenerated
// bit-identically to what presto-scenario reports, compressed from the
// scenario horizon onto -duration of wall time, and each arrival is
// posed under its own tenant at its scheduled instant. Point the driver
// at a prestod booted from the same spec and the whole pipeline — data,
// deployment and load — derives from one seed. A replayed arrival's
// latency counts from its scheduled instant, not from when a worker got
// to it, so time spent queued behind busy workers is in the percentiles;
// the report also counts the arrivals sent late.
//
// SIGINT and SIGTERM end the burst early; requests in flight finish and
// the report is printed. Exits non-zero if any request fails outright
// (429 throttling is counted separately, not a failure).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"presto/internal/query"
	"presto/internal/scenario"
	"presto/internal/serve"
	"presto/internal/stats"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("presto-load: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// workload is the default rotating spec mix. Each pair of neighbouring
// entries asks the same question at a different precision, so a full
// rotation plants answers and the next one harvests cache hits.
var workload = []string{
	`{"type":"now","precision":1.0,"max_staleness":"6h"}`,
	`{"type":"now","precision":2.0,"max_staleness":"6h"}`,
	`{"type":"agg","agg":"mean","trailing":"2h","precision":0.5,"max_staleness":"6h"}`,
	`{"type":"agg","agg":"mean","trailing":"2h","precision":1.5,"max_staleness":"6h"}`,
	`{"type":"agg","agg":"max","t0":"1h","t1":"4h","precision":0.5,"max_staleness":"6h"}`,
	`{"type":"agg","agg":"max","t0":"1h","t1":"4h","precision":2.0,"max_staleness":"6h"}`,
	`{"type":"past","t0":"2h","t1":"2h","precision":1.0,"max_staleness":"6h"}`,
}

// lateAfter is how long after its scheduled instant a replayed arrival
// may be sent before it counts as late.
const lateAfter = time.Millisecond

// job is one request a worker should pose. due is a replayed arrival's
// scheduled instant, zero in the closed-loop mix.
type job struct {
	body, tenant string
	explain      bool
	due          time.Time
}

// loader poses requests against one tier and books what came back.
type loader struct {
	client       *http.Client
	base         string
	explainEvery int
	stderr       io.Writer

	mu                                          sync.Mutex
	sent, hits, throttled, failed, late, traced int
	latencies                                   []float64      // ms, answered requests only
	routes                                      map[string]int // routing decisions from explained requests
}

// run is the whole command: parse args, run the burst until -duration
// passes or ctx is cancelled, and report.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("presto-load", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "http://127.0.0.1:8080", "base URL of the prestod -http tier")
	duration := fs.Duration("duration", 5*time.Second, "wall-clock length of the burst")
	concurrency := fs.Int("concurrency", 4, "concurrent client workers")
	tenant := fs.String("tenant", "presto-load", "X-Presto-Tenant header value (default mix only; scenario arrivals carry their own)")
	scenarioArg := fs.String("scenario", "", "replay this scenario's workload schedule: a spec JSON file from presto-scenario, or a built-in preset name")
	explainEvery := fs.Int("explain", 0, "pose every Nth request with ?explain=1 and report the server's routing-decision mix (0 = never)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case fs.NArg() > 0:
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	case *concurrency < 1:
		return fmt.Errorf("-concurrency %d: need at least one worker", *concurrency)
	case *duration <= 0:
		return fmt.Errorf("-duration %v: need a positive burst length", *duration)
	}

	ld := &loader{
		client:       &http.Client{Timeout: 30 * time.Second},
		base:         strings.TrimRight(*addr, "/"),
		explainEvery: *explainEvery,
		stderr:       stderr,
		routes:       map[string]int{},
	}
	replayed, scheduled := 0, 0
	if *scenarioArg != "" {
		spec, err := scenario.Load(*scenarioArg)
		if err != nil {
			return err
		}
		arrivals, err := scenario.GenerateWorkload(spec)
		if err != nil {
			return err
		}
		if len(arrivals) == 0 {
			return fmt.Errorf("scenario %q schedules no arrivals", spec.Name)
		}
		scheduled = len(arrivals)
		fmt.Fprintf(stdout, "scenario: replaying %q — %d scheduled arrivals compressed onto %v\n",
			spec.Name, scheduled, *duration)
		replayed = ld.replay(ctx, arrivals, *duration, *concurrency)
	} else {
		ld.mix(ctx, *tenant, *duration, *concurrency)
	}

	fmt.Fprintf(stdout, "burst: %d requests over %v from %d workers (%.0f queries/s)\n",
		ld.sent, *duration, *concurrency, float64(len(ld.latencies))/duration.Seconds())
	if scheduled > 0 {
		fmt.Fprintf(stdout, "schedule: %d of %d arrivals replayed, %d sent late (over %v after their instant); latency counts from the instant\n",
			replayed, scheduled, ld.late, lateAfter)
	}
	if len(ld.latencies) > 0 {
		p50, _ := stats.Median(ld.latencies)
		p95, _ := stats.Quantile(ld.latencies, 0.95)
		p99, _ := stats.Quantile(ld.latencies, 0.99)
		fmt.Fprintf(stdout, "latency: p50=%.2f ms p95=%.2f ms p99=%.2f ms\n", p50, p95, p99)
	}
	fmt.Fprintf(stdout, "client-observed cache hits: %d/%d, throttled: %d, failed: %d\n",
		ld.hits, ld.sent, ld.throttled, ld.failed)
	if ld.traced > 0 {
		var parts []string
		for k, n := range ld.routes {
			parts = append(parts, fmt.Sprintf("%s=%d", k, n))
		}
		sort.Strings(parts)
		fmt.Fprintf(stdout, "explain: %d traced requests, routing decisions: %s\n",
			ld.traced, strings.Join(parts, " "))
	}

	// The server's own view: cache ratio and the scenario it was booted from.
	if resp, err := ld.client.Get(ld.base + "/statsz"); err == nil {
		var st serve.Stats
		if json.NewDecoder(resp.Body).Decode(&st) == nil {
			label := ""
			if st.Scenario != "" {
				label = fmt.Sprintf(" (scenario %q)", st.Scenario)
			}
			fmt.Fprintf(stdout, "server%s: %d queries answered, cache %d/%d hit (ratio %.2f)\n",
				label, st.Queries, st.Cache.Hits, st.Cache.Hits+st.Cache.Misses, st.CacheHitRatio)
		}
		resp.Body.Close()
	}

	if ld.failed > 0 {
		return fmt.Errorf("%d of %d requests failed", ld.failed, ld.sent)
	}
	return nil
}

// mix is the default closed-loop burst: the workers rotate through the
// workload mix until the deadline.
func (ld *loader) mix(ctx context.Context, tenant string, d time.Duration, workers int) {
	deadline := time.Now().Add(d)
	ld.burst(ctx, workers, func(i int) (job, bool) {
		return job{body: workload[i%len(workload)], tenant: tenant}, time.Now().Before(deadline)
	})
}

// replay hands the workers the scenario's arrivals, each due at its
// scheduled instant scaled from the scenario horizon onto the burst
// duration, under the tenant the schedule assigned. It returns how many
// arrivals were handed out before the deadline.
func (ld *loader) replay(ctx context.Context, arrivals []scenario.Arrival, d time.Duration, workers int) int {
	span := arrivals[len(arrivals)-1].At
	if span <= 0 {
		span = time.Second // every arrival is at zero
	}
	start := time.Now()
	return ld.burst(ctx, workers, func(i int) (job, bool) {
		if i == len(arrivals) {
			return job{}, false
		}
		a := arrivals[i]
		due := start.Add(time.Duration(float64(a.At) * float64(d) / float64(span)))
		select {
		case <-ctx.Done():
			return job{}, false
		case <-time.After(time.Until(due)):
		}
		return job{body: string(a.SpecJSON), tenant: a.Tenant, due: due}, time.Since(start) <= d
	})
}

// burst hands the jobs next makes, in order, to workers that pose them,
// until next reports the burst over or ctx ends it; every -explain'th job
// asks for its trace. It returns how many jobs were handed out; a job
// waits for a free worker.
func (ld *loader) burst(ctx context.Context, workers int, next func(i int) (job, bool)) int {
	jobs := make(chan job)
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ld.post(j)
			}
		}()
	}
	defer wg.Wait()
	defer close(jobs)
	for i := 0; ; i++ {
		j, ok := next(i)
		if !ok {
			return i
		}
		j.explain = ld.explainEvery > 0 && i%ld.explainEvery == 0
		select {
		case <-ctx.Done():
			return i
		case jobs <- j:
		}
	}
}

// errThrottled is a 429: admission control refused the request, which
// the report counts apart from failures.
var errThrottled = errors.New("throttled")

// post poses one query and books the outcome. A replayed arrival's
// latency runs from its due instant.
func (ld *loader) post(j job) {
	start := time.Now()
	if j.due.IsZero() {
		j.due = start
	}
	hit, routes, err := ld.pose(j)
	lat := time.Since(j.due)
	ld.mu.Lock()
	defer ld.mu.Unlock()
	ld.sent++
	if start.Sub(j.due) > lateAfter {
		ld.late++
	}
	switch {
	case errors.Is(err, errThrottled):
		ld.throttled++
	case err != nil:
		ld.failed++
		fmt.Fprintf(ld.stderr, "presto-load: %s: %v\n", j.body, err)
	default:
		if hit {
			ld.hits++
		}
		if j.explain {
			ld.traced++
			for _, r := range routes {
				ld.routes[r]++
			}
		}
		ld.latencies = append(ld.latencies, lat.Seconds()*1000)
	}
}

// pose sends one query and checks its answer. Explained requests carry
// ?explain=1 and unwrap the trace envelope: the inner result is checked
// like any answer, and the per-mote routing decisions are returned.
func (ld *loader) pose(j job) (hit bool, routes []string, err error) {
	url := ld.base + "/v1/query"
	if j.explain {
		url += "?explain=1"
	}
	req, err := http.NewRequest("POST", url, strings.NewReader(j.body))
	if err != nil {
		return false, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Presto-Tenant", j.tenant)
	resp, err := ld.client.Do(req)
	if err != nil {
		return false, nil, err
	}
	answer, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return false, nil, errThrottled
	case resp.StatusCode != http.StatusOK:
		return false, nil, fmt.Errorf("status %d: %s", resp.StatusCode, answer)
	case err != nil:
		return false, nil, err
	}
	if j.explain {
		var eb serve.ExplainBody
		if err := json.Unmarshal(answer, &eb); err != nil {
			return false, nil, fmt.Errorf("bad explain envelope: %w", err)
		}
		answer = eb.Result
		for _, r := range eb.Trace.Routes {
			routes = append(routes, r.Kind.String())
		}
	}
	res, err := query.DecodeSetResultJSON(answer)
	if err == nil {
		err = res.Err
	}
	if err != nil {
		return false, nil, fmt.Errorf("bad answer: %w", err)
	}
	return resp.Header.Get("X-Presto-Cache") == "hit", routes, nil
}
