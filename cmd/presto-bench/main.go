// Command presto-bench regenerates every table and figure from the paper
// (plus the derived experiments and ablations listed by exp.All) and
// prints them as aligned text tables.
//
// Usage:
//
//	presto-bench [-scale quick|paper] [-shards N] [-store mem|flash]
//	             [-aging wavelet[:tiers]|uniform] [-cluster N]
//	             [-run T1,F2,...] [-list]
//
// The paper scale reproduces the published parameters (28 days of 1-minute
// samples, 20-mote deployments); quick scale preserves every shape at a
// fraction of the runtime. -cluster sets the process count for the E15
// cluster experiment (its domains split across that many cooperating
// sites over the loopback transport; the merged answers are checked
// bit-identical to the in-process run).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"presto/internal/exp"
	"presto/internal/store"
)

func main() {
	scale := flag.String("scale", "quick", "experiment scale: quick or paper")
	shards := flag.Int("shards", 1, "concurrent simulation domains for multi-proxy deployments")
	storeBackend := flag.String("store", "mem", "archival store backend per domain: mem or flash")
	aging := flag.String("aging", "wavelet", "flash compaction aging policy: wavelet[:tiers] or uniform")
	clusterSites := flag.Int("cluster", 0, "cluster-mode site count for E15 (0 = the experiment's default of 2)")
	run := flag.String("run", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Desc)
		}
		return
	}

	var sc exp.Scale
	switch *scale {
	case "quick":
		sc = exp.QuickScale()
	case "paper":
		sc = exp.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "presto-bench: unknown scale %q (want quick or paper)\n", *scale)
		os.Exit(2)
	}
	sc.Seed = *seed
	sc.Shards = *shards
	sc.Backend = *storeBackend
	if _, err := store.ParseAgingPolicy(*aging); err != nil {
		fmt.Fprintf(os.Stderr, "presto-bench: %v\n", err)
		os.Exit(2)
	}
	sc.Aging = *aging
	sc.Sites = *clusterSites

	want := map[string]bool{}
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	failed := 0
	for _, e := range exp.All() {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		tab, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(os.Stderr, "presto-bench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Println(tab)
		fmt.Printf("(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		os.Exit(1)
	}
}
