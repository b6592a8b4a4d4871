package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"presto/internal/simtime"
)

// scheduleDigest generates a workload's schedule for a seed without
// building the deployment.
func scheduleDigest(w *workload, seed int64) string {
	d := w.spec(seed).Deployment
	s := w.sched(rand.New(rand.NewSource(seed^0x5eed0b5)), d, 48*simtime.Hour)
	return s.digest(w.prefixOps)
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, again, b := scheduleDigest(w, 1), scheduleDigest(w, 1), scheduleDigest(w, 2)
		if a != again {
			t.Errorf("%s: seed 1 gave schedules %s and %s", w.Name, a, again)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule %s", w.Name, a)
		}
	}
}

func TestServeHotQuestionsAreDistinctPairs(t *testing.T) {
	w, _ := workloadByName(wServeHot)
	s := w.sched(rand.New(rand.NewSource(7)), w.spec(7).Deployment, 48*simtime.Hour)
	if len(s.Ops) != 512 {
		t.Fatalf("%d questions, want 512", len(s.Ops))
	}
	bodies := map[string]bool{}
	for i, o := range s.Ops {
		bodies[string(o.Body)] = true
		if o.Plants != i-i%2 {
			t.Errorf("op %d plants %d, want its pair's tight ask %d", i, o.Plants, i-i%2)
		}
	}
	if len(bodies) != 512 {
		t.Errorf("%d distinct bodies, want 512", len(bodies))
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.99, 10}, {0.9, 9}, {0.1, 1}, {1, 10}} {
		if got := percentile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles(append([]float64(nil), xs...))
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{16, 1, 8, 2, 4})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if got := spread([]float64{16, 1, 8, 2, 4}); math.Abs(got-10.5/4) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, 10.5/4)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeIsDurationMinusUnionOfChildren(t *testing.T) {
	spans := []span{
		{Trace: 1, Span: 1, Name: spanOp, StartNS: 0, EndNS: 100},
		{Trace: 1, Span: 2, Parent: 1, Name: spanHandler, StartNS: 10, EndNS: 90},
		{Trace: 1, Span: 3, Parent: 2, Name: spanSubmit, StartNS: 20, EndNS: 70},
		// Two overlapping site round trips and one the transport could not
		// attribute: children of the submit span by containment.
		{Trace: 1, Span: 4, Parent: 3, Name: spanSiteRTT, StartNS: 25, EndNS: 50},
		{Trace: 1, Span: 5, Parent: 3, Name: spanSiteRTT, StartNS: 40, EndNS: 65},
		{Span: 6, Name: spanSiteRTT, StartNS: 30, EndNS: 45},
		// An orphan outside every submit span stays an orphan.
		{Span: 7, Name: spanSiteRTT, StartNS: 95, EndNS: 120},
	}
	adoptOrphans(spans, spanSubmit)
	if spans[5].Parent != 3 || spans[5].Trace != 1 {
		t.Errorf("contained orphan adopted by span %d trace %d, want 3 and 1", spans[5].Parent, spans[5].Trace)
	}
	if spans[6].Parent != 0 {
		t.Errorf("uncontained orphan adopted by span %d", spans[6].Parent)
	}
	self := selfTimes(spans)
	want := map[uint64]int64{1: 20, 2: 30, 3: 10, 4: 25, 5: 25, 6: 15}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestWindowedReportsTheMedianWindow(t *testing.T) {
	// Ten windows of one second; window 3 is hit by noise (half the ops,
	// ten times the latency). The medians must not see it.
	r := &passResult{}
	for w := 0; w < 10; w++ {
		n, ms := 100, float32(1)
		if w == 3 {
			n, ms = 50, 10
		}
		for i := 0; i < n; i++ {
			end := time.Duration(w)*time.Second + time.Duration(i+1)*time.Second/time.Duration(n+1)
			r.events = append(r.events, event{kind: evOp, answered: 1, end: end, ms: ms})
		}
	}
	rate, p50ms, p99ms := r.windowed(10, true)
	if math.Abs(rate-100) > 2 || p50ms != 1 || p99ms != 1 {
		t.Errorf("windowed = %v ops/s, p50 %v, p99 %v; want 100, 1, 1", rate, p50ms, p99ms)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with `go run -C benchmark . manifest > BENCHMARK.json`")
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is not [A-Za-z0-9_.-]{1,64}", kind, name)
		}
		if seen[name] {
			t.Errorf("%s name %q used twice", kind, name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	for _, d := range endToEnd {
		check("end-to-end metric", d.Name)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range perLayer {
		check("per-layer metric", d.Name)
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 fit the manifest", len(perLayer))
	}
}

// TestQuickRunsEveryWorkloadGreen drives all five workloads through both
// passes on 1/20 of the op counts and checks what they emit against the
// manifest's names.
func TestQuickRunsEveryWorkloadGreen(t *testing.T) {
	o := options{seed: 1, seconds: 4, quick: true, outDir: t.TempDir()}
	ctx := context.Background()
	for _, w := range workloads {
		for pass, run := range []func(context.Context, *workload, options) (runResult, error){timedRun, tracedRun} {
			if pass == 1 && testing.Short() {
				continue
			}
			r, err := run(ctx, w, o)
			if err != nil {
				t.Fatalf("%s pass %d: %v", w.Name, pass, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s pass %d: correct=%t attempted=%d failed=%d notes=%v", w.Name, pass, r.Correct, r.Attempted, r.Failed, r.Notes)
			}
			defs := endToEnd
			if pass == 1 {
				defs = perLayer
			}
			if len(r.Metrics) != len(defs) {
				t.Errorf("%s pass %d: %d metrics emitted, manifest names %d", w.Name, pass, len(r.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := r.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s pass %d: metric %s missing", w.Name, pass, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s pass %d: %s has unit %q, manifest says %q", w.Name, pass, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s pass %d: %s = %v", w.Name, pass, d.Name, m.Value)
				case pass == 0 && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, d.Name, m.Value)
				}
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("%s pass %d: result does not encode: %v", w.Name, pass, err)
			}
		}
	}
}

func TestVerdictCallsWideSpreadUnresolved(t *testing.T) {
	d := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	tight := []float64{100, 101, 99, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"same", tight, []float64{100, 99, 101, 100, 100}, "within bound"},
		{"slower beyond the bound", tight, []float64{80, 81, 79, 80, 80}, "WORSE"},
		{"every run faster", tight, []float64{120, 121, 119, 120, 122}, "better"},
		{"noisy", tight, []float64{60, 140, 100, 75, 125}, "unresolved"},
	} {
		if got := verdict(d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	lower := metricDef{Name: "lat_p50_ms", Better: "lower", Bound: 0.10}
	if got := verdict(lower, tight, []float64{120, 121, 119, 120, 122}); got != "WORSE" {
		t.Errorf("latency up 20%%: verdict %q, want WORSE", got)
	}
}

// The scenario specs must validate on their own: a typo there would
// otherwise surface only as a set-up failure of one workload.
func TestWorkloadSpecsValidate(t *testing.T) {
	for _, w := range workloads {
		if err := w.spec(1).Validate(); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
}
