package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series collects one metric's value on one workload across the runs of
// a document, keyed "workload/metric".
func series(doc document, trace int) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range doc.Runs {
		if r.Trace != trace {
			continue
		}
		for name, m := range r.Metrics {
			key := r.Workload + "/" + name
			out[key] = append(out[key], m.Value)
		}
	}
	return out
}

func loadDocument(path string) (document, error) {
	var doc document
	buf, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Runs) == 0 {
		return doc, fmt.Errorf("%s: no runs", path)
	}
	return doc, nil
}

// summarize prints, per workload and end-to-end metric, the median and
// quartiles over a document's repeated runs and the spread as a share of
// the median beside the metric's bound.
func summarize(w io.Writer, doc document) {
	s := series(doc, 0)
	fmt.Fprintf(w, "%-15s %-18s %4s %12s %12s %12s %8s %6s\n", "workload", "metric", "runs", "q1", "median", "q3", "spread", "bound")
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xs := s[wl.Name+"/"+d.Name]
			if len(xs) == 0 {
				continue
			}
			q1, _, q3 := quartiles(xs)
			fmt.Fprintf(w, "%-15s %-18s %4d %12.6g %12.6g %12.6g %7.2f%% %5.0f%%\n",
				wl.Name, d.Name, len(xs), q1, median(xs), q3, 100*spread(xs), 100*d.Bound)
		}
	}
}

// worseBy is how much b is worse than a as a share of a, signed: above 0
// is worse, whichever way the metric points.
func worseBy(d metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// minRuns is the fewest runs a side needs before its spread means
// anything.
const minRuns = 3

// verdict applies a metric's bound to two sets of runs. A median worse
// than the bound is a regression; where the run-to-run spread of either
// side exceeds the bound the pair is unresolved — not unchanged — unless
// every run of b reads better than every run of a.
func verdict(d metricDef, a, b []float64) string {
	if len(a) < minRuns || len(b) < minRuns {
		return "too few runs"
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if worseBy(d, x, y) >= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case allBetter:
		return "better"
	case max(spread(a), spread(b)) > d.Bound:
		return "unresolved"
	case worseBy(d, median(a), median(b)) > d.Bound:
		return "WORSE"
	default:
		return "within bound"
	}
}

// compare prints B against A: every end-to-end metric on every workload
// with both medians, quartiles, the change and the verdict under the
// metric's bound, then the per-layer medians side by side.
func compare(w io.Writer, pathA, pathB string) error {
	a, err := loadDocument(pathA)
	if err != nil {
		return err
	}
	b, err := loadDocument(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s  commit %s, seed %d, %d s, %d cpu, %s\n", pathA, a.Commit, a.Seed, a.Seconds, a.NProc, a.Go)
	fmt.Fprintf(w, "B: %s  commit %s, seed %d, %d s, %d cpu, %s\n\n", pathB, b.Commit, b.Seed, b.Seconds, b.NProc, b.Go)
	sa, sb := series(a, 0), series(b, 0)
	fmt.Fprintf(w, "%-15s %-18s %30s %30s %8s  %s\n", "workload", "metric", "A median [q1, q3] (runs)", "B median [q1, q3] (runs)", "B worse", "verdict")
	cell := func(xs []float64) string {
		q1, _, q3 := quartiles(xs)
		return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), q1, q3, len(xs))
	}
	for _, wl := range workloads {
		for _, d := range endToEnd {
			xa, xb := sa[wl.Name+"/"+d.Name], sb[wl.Name+"/"+d.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			fmt.Fprintf(w, "%-15s %-18s %30s %30s %+7.2f%%  %s (bound %.0f%%)\n", wl.Name, d.Name, cell(xa), cell(xb),
				100*worseBy(d, median(xa), median(xb)), verdict(d, xa, xb), 100*d.Bound)
		}
	}
	la, lb := series(a, 1), series(b, 1)
	if len(la) == 0 || len(lb) == 0 {
		return nil
	}
	fmt.Fprintf(w, "\n%-15s %-34s %14s %14s %6s\n", "workload", "layer metric (no bound)", "A median", "B median", "unit")
	for _, wl := range workloads {
		for _, d := range perLayer {
			xa, xb := la[wl.Name+"/"+d.Name], lb[wl.Name+"/"+d.Name]
			if len(xa) == 0 || len(xb) == 0 || (median(xa) == 0 && median(xb) == 0) {
				continue
			}
			fmt.Fprintf(w, "%-15s %-34s %14.6g %14.6g %6s\n", wl.Name, d.Name, median(xa), median(xb), d.Unit)
		}
	}
	// Answer digests say whether the simulation itself changed.
	digests := func(doc document) map[string]string {
		out := map[string]string{}
		for _, r := range doc.Runs {
			if r.AnswersSHA != "" {
				out[r.Workload] = r.AnswersSHA
			}
		}
		return out
	}
	da, db := digests(a), digests(b)
	fmt.Fprintln(w)
	for _, name := range sortedKeys(da) {
		same := "differs"
		if a.Seed != b.Seed {
			same = "different seeds"
		} else if da[name] == db[name] {
			same = "identical"
		}
		fmt.Fprintf(w, "%-15s answers_sha256 %s (A %.12s, B %.12s)\n", name, same, da[name], db[name])
	}
	return nil
}
