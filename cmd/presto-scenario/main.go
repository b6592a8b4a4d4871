// Command presto-scenario generates and inspects scenario specs: the
// declarative, seeded descriptions of city-scale deployments, tenant
// workload arrival schedules and environment churn that the rest of the
// tooling consumes (prestod -scenario boots one, presto-load -scenario
// replays its workload against a serving tier).
//
// Usage:
//
//	presto-scenario -list
//	presto-scenario -preset city -out city.json     # dump a preset spec
//	presto-scenario -spec city.json                 # generate + summarize
//	presto-scenario -spec city.json -verify         # generate twice, compare digests
//	presto-scenario -preset smoke -arrivals 10      # print the first scheduled queries
//	presto-scenario -preset smoke -traces dir       # write each mote's trace as CSV
//
// Generation is bit-reproducible: the same spec always yields the same
// deployment, the same traces (regional events included) and the same
// query-arrival schedule, on every machine. -verify proves it by
// generating twice and comparing the sha256 digests.
// -traces writes the traces the deployment runs on in gen.WriteCSV's
// layout, which gen.FromCSV (and so a "csv" sensor mix) reads back.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"time"

	"presto/internal/gen"
	"presto/internal/scenario"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("presto-scenario: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// run is the whole command. It takes no context: nothing it does waits
// on anything a signal should drain.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("presto-scenario", flag.ContinueOnError)
	fs.SetOutput(stderr)
	preset := fs.String("preset", "", "built-in scenario to use (see -list)")
	specPath := fs.String("spec", "", "scenario spec JSON file to load")
	out := fs.String("out", "", "write the spec as JSON to this file and exit (use with -preset to scaffold)")
	verify := fs.Bool("verify", false, "generate twice and require identical digests")
	arrivals := fs.Int("arrivals", 0, "print the first N scheduled query arrivals")
	traces := fs.String("traces", "", "write each mote's trace to this directory as mote-<id>.csv")
	list := fs.Bool("list", false, "list built-in presets and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}

	if *list {
		for _, n := range scenario.PresetNames() {
			s, _ := scenario.Preset(n)
			fmt.Fprintf(stdout, "%-8s %5d motes, %d sites, %d days, seed %d\n",
				n, s.Deployment.Motes(), s.Deployment.Sites, s.Deployment.Days, s.Seed)
		}
		return nil
	}

	var spec scenario.Spec
	var err error
	switch {
	case *preset != "" && *specPath != "":
		err = errors.New("use -preset or -spec, not both")
	case *preset != "":
		spec, err = scenario.Preset(*preset)
	case *specPath != "":
		spec, err = scenario.LoadFile(*specPath)
	default:
		err = errors.New("one of -preset, -spec or -list is required")
	}
	if err != nil {
		return err
	}

	if *out != "" {
		b, err := spec.EncodeJSON()
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (scenario %q, seed %d)\n", *out, spec.Name, spec.Seed)
		return nil
	}

	start := time.Now()
	sc, err := scenario.Generate(spec)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if *verify {
		again, err := scenario.Generate(spec)
		if err != nil {
			return err
		}
		if sc.Digest() != again.Digest() {
			return fmt.Errorf("scenario %q NOT reproducible: %s vs %s",
				spec.Name, sc.Digest(), again.Digest())
		}
		fmt.Fprintf(stdout, "reproducible: two independent generations agree\n")
	}

	d := spec.Deployment
	samples, events, loose := sc.Totals()
	fmt.Fprintf(stdout, "scenario    %s (seed %d)\n", spec.Name, spec.Seed)
	fmt.Fprintf(stdout, "deployment  %d motes (%d proxies x %d), %d domains, %d sites, %d day(s)\n",
		d.Motes(), d.Proxies, d.MotesPerProxy, d.Shards, d.Sites, d.Days)
	fmt.Fprintf(stdout, "traces      %d samples, %d regional event excursions\n", samples, events)
	fmt.Fprintf(stdout, "workload    %d arrivals over %v (%d tenants, %d loose-paired)\n",
		len(sc.Arrivals), time.Duration(spec.Workload.Horizon), spec.Workload.Tenants, loose)
	fmt.Fprintf(stdout, "churn       %d scheduled action(s)\n", len(spec.Environment.Churn))
	fmt.Fprintf(stdout, "digest      deployment %s\n", sc.DeploymentDigest())
	fmt.Fprintf(stdout, "            workload   %s\n", sc.WorkloadDigest())
	fmt.Fprintf(stdout, "            combined   %s\n", sc.Digest())
	fmt.Fprintf(stdout, "generated in %v\n", elapsed.Round(time.Millisecond))

	if *traces != "" {
		// Mote ids count from one in deployment order.
		if err := os.MkdirAll(*traces, 0o755); err != nil {
			return err
		}
		for i, tr := range sc.Config.Traces {
			var b bytes.Buffer
			gen.WriteCSV(&b, tr) // a bytes.Buffer takes every write
			if err := os.WriteFile(filepath.Join(*traces, fmt.Sprintf("mote-%d.csv", i+1)), b.Bytes(), 0o644); err != nil {
				return err
			}
		}
		fmt.Fprintf(stdout, "wrote %d trace files to %s\n", len(sc.Config.Traces), *traces)
	}

	if *arrivals > 0 {
		fmt.Fprintln(stdout)
		for i, a := range sc.Arrivals {
			if i == *arrivals {
				break
			}
			kind := "tight"
			if a.Loose {
				kind = "loose"
			}
			fmt.Fprintf(stdout, "%9v  %-10s %-5s %s\n",
				a.At.Round(time.Second), a.Tenant, kind, a.SpecJSON)
		}
	}
	return nil
}
