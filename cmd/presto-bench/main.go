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
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"presto/internal/exp"
	"presto/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("presto-bench: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command: every selected experiment runs, and an
// experiment that fails is reported on stderr and fails the run. It takes
// no context: an experiment cannot be stopped midway.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("presto-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o exp.Scale // the flags that override the scale's defaults
	scale := fs.String("scale", "quick", "experiment scale: quick or paper")
	fs.IntVar(&o.Shards, "shards", 1, "concurrent simulation domains for multi-proxy deployments")
	fs.StringVar(&o.Backend, "store", "mem", "per-domain archive: mem (the proxy caches) or flash (adds a flash archive backend)")
	fs.StringVar(&o.Aging, "aging", "wavelet", "flash compaction aging policy: wavelet[:tiers] or uniform")
	fs.IntVar(&o.Sites, "cluster", 0, "cluster-mode site count for E15 (0 = the experiment's default of 2)")
	fs.Int64Var(&o.Seed, "seed", 1, "random seed")
	ids := fs.String("run", "", "comma-separated experiment ids (default: all)")
	list := fs.Bool("list", false, "list experiments and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	if *list {
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "%-4s %s\n", e.ID, e.Desc)
		}
		return nil
	}

	var sc exp.Scale
	switch *scale {
	case "quick":
		sc = exp.QuickScale()
	case "paper":
		sc = exp.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q (want quick or paper)", *scale)
	}
	if _, err := store.ParseAgingPolicy(o.Aging); err != nil {
		return err
	}
	sc.Seed, sc.Shards, sc.Backend, sc.Aging, sc.Sites = o.Seed, o.Shards, o.Backend, o.Aging, o.Sites

	all := exp.All()
	want := map[string]bool{}
	if *ids != "" {
		for _, id := range strings.Split(*ids, ",") {
			id = strings.TrimSpace(id)
			if !slices.ContainsFunc(all, func(e exp.Experiment) bool { return e.ID == id }) {
				return fmt.Errorf("unknown experiment %q in -run (see -list)", id)
			}
			want[id] = true
		}
	}

	failed := 0
	for _, e := range all {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		tab, err := e.Run(sc)
		if err != nil {
			fmt.Fprintf(stderr, "presto-bench: %s: %v\n", e.ID, err)
			failed++
			continue
		}
		fmt.Fprintln(stdout, tab)
		fmt.Fprintf(stdout, "(%s completed in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}
