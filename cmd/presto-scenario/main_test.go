package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"presto/internal/gen"
	"presto/internal/scenario"
)

// runOK runs presto-scenario to completion and returns its stdout.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("presto-scenario %v: %v\n%s", args, err, out.String())
	}
	return out.String()
}

func TestList(t *testing.T) {
	out := runOK(t, "-list")
	for _, name := range scenario.PresetNames() {
		if !regexp.MustCompile(`(?m)^` + name + ` +\d+ motes, \d+ sites`).MatchString(out) {
			t.Errorf("no line for preset %q in:\n%s", name, out)
		}
	}
}

// TestOutThenVerify: a preset written with -out loads back with -spec,
// generates twice to the same digests, and two runs print the same three.
func TestOutThenVerify(t *testing.T) {
	path := filepath.Join(t.TempDir(), "smoke.json")
	if out := runOK(t, "-preset", "smoke", "-out", path); !strings.Contains(out, `wrote `+path+` (scenario "smoke", seed 1)`) {
		t.Fatalf("-out reported:\n%s", out)
	}
	digests := regexp.MustCompile(`(?m)^.*(deployment|workload|combined) +[0-9a-f]{64}$`)
	first := runOK(t, "-spec", path, "-verify")
	if !strings.Contains(first, "reproducible: two independent generations agree") {
		t.Fatalf("-verify did not report reproducible:\n%s", first)
	}
	second := runOK(t, "-spec", path, "-verify")
	a, b := digests.FindAllString(first, -1), digests.FindAllString(second, -1)
	if len(a) != 3 || !slices.Equal(a, b) {
		t.Fatalf("digest lines differ or are missing:\n%q\n%q", a, b)
	}
	if out := runOK(t, "-preset", "smoke", "-arrivals", "3"); len(regexp.MustCompile(`(?m)^ +\S+ +tenant`).FindAllString(out, -1)) != 3 {
		t.Errorf("-arrivals 3 printed:\n%s", out)
	}
}

// TestTracesRoundTrip: every mote's trace that -traces writes reads back
// through gen.FromCSV at the mote's sample interval with bit-identical
// values. Checked on values, not the deployment digest: the digest also
// folds in each mote's mix kind and event marks, which a CSV replay does
// not carry.
func TestTracesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	spec, err := scenario.Preset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out := runOK(t, "-preset", "smoke", "-traces", dir); !strings.Contains(out, "wrote 8 trace files to "+dir) {
		t.Fatalf("-traces reported:\n%s", out)
	}
	kinds := map[time.Duration]bool{}
	for i, want := range sc.Config.Traces {
		interval := sc.Config.SampleInterval
		if iv := sc.Config.MoteSampleIntervals; len(iv) > 0 && iv[i] > 0 {
			interval = iv[i]
		}
		kinds[interval] = true
		f, err := os.Open(filepath.Join(dir, fmt.Sprintf("mote-%d.csv", i+1)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := gen.FromCSV(f, 1, interval)
		f.Close()
		if err != nil {
			t.Fatalf("mote %d: %v", i+1, err)
		}
		if !slices.Equal(got.Values, want.Values) || got.Interval != want.Interval {
			t.Errorf("mote %d: read back %d values at %v, generated %d at %v",
				i+1, len(got.Values), got.Interval, len(want.Values), want.Interval)
		}
	}
	if len(kinds) < 2 {
		t.Errorf("smoke mixes one cadence only (%v): the round trip checks no per-mote interval", kinds)
	}
}

// TestFlagErrors: a bad command line comes back as an error from run.
func TestFlagErrors(t *testing.T) {
	for _, a := range [][]string{
		{},
		{"-preset", "smoke", "-spec", "x.json"},
		{"-preset", "no-such-preset"},
		{"-spec", filepath.Join(t.TempDir(), "missing.json")},
		{"-no-such-flag"},
		{"-preset", "smoke", "stray"},
	} {
		if err := run(a, io.Discard, io.Discard); err == nil {
			t.Errorf("presto-scenario %v: no error", a)
		}
	}
	if err := run([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}
