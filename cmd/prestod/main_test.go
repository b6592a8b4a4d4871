package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"presto/internal/scenario"
)

// small gives the flags of a deployment every test can afford — 2
// proxies x 2 motes in 2 domains over one virtual day — followed by extra.
func small(extra ...string) []string {
	return append([]string{"-proxies", "2", "-motes", "2", "-shards", "2", "-days", "1", "-seed", "3", "-loss", "0.05"}, extra...)
}

// smallSpec is small as a spec: the same deployment through -scenario.
func smallSpec(t *testing.T, sites int) string {
	t.Helper()
	b, err := scenario.Spec{
		Name: "flags",
		Seed: 3,
		Deployment: scenario.Deployment{
			Proxies: 2, MotesPerProxy: 2, Shards: 2, Sites: sites, Days: 1,
			Delta: 1, Store: "mem", Aging: "wavelet",
		},
		Environment: scenario.Environment{RadioLoss: 0.05},
	}.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spec.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runSync runs prestod to completion and returns its stdout.
func runSync(t *testing.T, a ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(context.Background(), a, &out, io.Discard); err != nil {
		t.Fatalf("prestod %v: %v\n%s", a, err, out.String())
	}
	return out.String()
}

// output is a stdout that a test reads while run is still writing it.
type output struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (o *output) Write(p []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.Write(p)
}

func (o *output) String() string {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.buf.String()
}

// started runs prestod in the background. The returned function waits for
// it to return and gives its error.
func started(ctx context.Context, a ...string) (*output, func() error) {
	out := &output{}
	done := make(chan error, 1)
	go func() { done <- run(ctx, a, out, io.Discard) }()
	return out, func() error { return <-done }
}

// await polls out until pattern matches, and returns the submatches.
func await(t *testing.T, out *output, pattern string) []string {
	t.Helper()
	re := regexp.MustCompile(pattern)
	for deadline := time.Now().Add(time.Minute); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := re.FindStringSubmatch(out.String()); m != nil {
			return m
		}
	}
	t.Fatalf("no %q in output:\n%s", re, out.String())
	return nil
}

// The deployment line and the aggregate line every run prints.
const (
	digestLine = `(?m)^deployment .*$`
	aggLine    = `(?m)^agg: mean=\S+ bound=\S+ count=\d+ at=\S+$`
)

// line returns the one line of out that pattern matches.
func line(t *testing.T, out, pattern string) string {
	t.Helper()
	m := regexp.MustCompile(pattern).FindAllString(out, -1)
	if len(m) != 1 {
		t.Fatalf("want one %q line, got %d in:\n%s", pattern, len(m), out)
	}
	return m[0]
}

func TestInProcessStandingQuery(t *testing.T) {
	out := runSync(t, small("-queries", "20", "-every", "1h")...)
	for _, want := range []string{
		"standing query: 6 fleet snapshots",
		"over 20 queries",
		"mote energy:",
		"wired=false",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	line(t, out, aggLine)
}

// TestFlashAgingFreshnessWired: the flash archive with a three-tier
// wavelet schedule, a freshness bound and the wired replica together. The
// bound also exercises the stale-replica bypass, and run fails if any
// answer busts its precision.
func TestFlashAgingFreshnessWired(t *testing.T) {
	out := runSync(t, small("-days", "2", "-queries", "20", "-store", "flash",
		"-aging", "wavelet:1/2,1/4,1/8", "-max-staleness", "30m", "-wired")...)
	for _, pattern := range []string{
		`wired=true`,
		`over 20 queries`,
		`(?m)^engine: 21 submitted, \d+ replica-served, \d+ replica-bypassed \(stale\)`,
		`(?m)^archive backend: [1-9]\d* records .*\(wavelet:1/2,1/4,1/8 aging`,
	} {
		if !regexp.MustCompile(pattern).MatchString(out) {
			t.Errorf("no %q in:\n%s", pattern, out)
		}
	}
	line(t, out, aggLine)
}

// TestFlagsAndSpecSameDeployment: the flags and the spec they describe are
// one deployment: same digest, same aggregate to the bit.
func TestFlagsAndSpecSameDeployment(t *testing.T) {
	flags := runSync(t, small("-queries", "0")...)
	spec := runSync(t, "-scenario", smallSpec(t, 0), "-queries", "0")
	if a, b := line(t, flags, digestLine), line(t, spec, digestLine); a != b {
		t.Errorf("flags print\n  %s\nthe spec prints\n  %s", a, b)
	}
	if a, b := line(t, flags, aggLine), line(t, spec, aggLine); a != b {
		t.Errorf("flags answer\n  %s\nthe spec answers\n  %s", a, b)
	}
}

func TestScenarioPreset(t *testing.T) {
	out := runSync(t, "-scenario", "smoke", "-queries", "10")
	if !strings.Contains(out, `deployment "smoke" (seed 1)`) {
		t.Errorf("smoke preset not booted:\n%s", out)
	}
	line(t, out, aggLine)
}

// TestClusterOverTCP: a coordinator booted from the spec and a site booted
// from the flags join over loopback TCP, and the 2-site aggregate is the
// in-process one to the bit.
func TestClusterOverTCP(t *testing.T) {
	ctx := context.Background()
	coord, coordDone := started(ctx, "-scenario", smallSpec(t, 2), "-listen", "127.0.0.1:0", "-queries", "10", "-every", "2h")
	addr := await(t, coord, `listening on (\S+),`)[1]
	var site bytes.Buffer
	if err := run(ctx, small("-join", addr), &site, io.Discard); err != nil {
		t.Fatalf("site: %v\n%s", err, site.String())
	}
	if err := coordDone(); err != nil {
		t.Fatalf("coordinator: %v\n%s", err, coord.String())
	}
	out := coord.String()
	if a, b := line(t, out, digestLine), line(t, site.String(), digestLine); a != b {
		t.Errorf("coordinator deployment\n  %s\nsite deployment\n  %s", a, b)
	}
	for _, want := range []string{"cluster health: 2/2 sites alive", "standing query: 3 fleet snapshots", "over 10 queries"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	local := runSync(t, small("-queries", "10", "-every", "2h")...)
	if a, b := line(t, out, aggLine), line(t, local, aggLine); a != b {
		t.Errorf("2-site run answers\n  %s\nin-process run answers\n  %s", a, b)
	}
}

func TestCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	out := runSync(t, small("-listen", "127.0.0.1:0", "-sites", "1", "-queries", "0", "-checkpoint", dir)...)
	if !strings.Contains(out, "checkpoint: 2 domains") {
		t.Errorf("no checkpoint line in:\n%s", out)
	}
	b, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		t.Fatal(err)
	}
	var meta struct {
		DomainSite []int `json:"domain_site"`
	}
	if err := json.Unmarshal(b, &meta); err != nil || len(meta.DomainSite) != 2 {
		t.Fatalf("checkpoint.json %s: %v", b, err)
	}
	for _, name := range []string{"domain-0.snap", "domain-1.snap"} {
		if st, err := os.Stat(filepath.Join(dir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s: %v", name, err)
		}
	}
}

// TestHTTPServesAndDrains: the tier answers a NOW, logs it as slow past
// a 1 ns -slow-query, then a cancelled context drains it and run returns
// cleanly.
func TestHTTPServesAndDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	out, done := started(ctx, small("-http", "127.0.0.1:0", "-slow-query", "1ns")...)
	addr := await(t, out, `http: serving on (\S+) `)[1]
	resp, err := http.Post("http://"+addr+"/v1/query", "application/json",
		strings.NewReader(`{"type":"now","precision":1.0,"max_staleness":"6h"}`))
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Results []json.RawMessage `json:"results"`
	}
	err = json.NewDecoder(resp.Body).Decode(&res)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || len(res.Results) != 4 {
		t.Fatalf("NOW: status %d, %d results, %v", resp.StatusCode, len(res.Results), err)
	}
	resp, err = http.Get("http://" + addr + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || !regexp.MustCompile(`(?m)^presto_http_slow_queries_total 1$`).Match(metrics) {
		t.Errorf("the NOW is not counted slow: %v\n%s", err, metrics)
	}
	cancel()
	if err := done(); err != nil {
		t.Fatalf("drain: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "http: served 1 queries (0 errors)") {
		t.Errorf("no drain report in:\n%s", out.String())
	}
}

// TestSignalReportsEarly: a signal stops the schedule, not the report, and
// a standing query it cut short is no failure.
func TestSignalReportsEarly(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	if err := run(ctx, small("-every", "1h"), &out, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	for _, want := range []string{"signal received", "=== after", "mote energy:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}

// TestFlagErrors: a bad command line comes back as an error from run; it
// never exits the process.
func TestFlagErrors(t *testing.T) {
	for _, a := range [][]string{
		{"-listen", "127.0.0.1:0", "-join", "127.0.0.1:1"},
		{"-checkpoint", "dir"},
		{"-listen", "127.0.0.1:0", "-checkpoint", "dir", "-http", "127.0.0.1:0"},
		{"-scenario", "no-such-preset"},
		{"-proxies", "0"},
		{"-store", "tape"},
		{"-listen", "127.0.0.1:0", "-sites", "3", "-shards", "2"},
		{"-no-such-flag"},
		{"stray"},
	} {
		if err := run(context.Background(), a, io.Discard, io.Discard); err == nil {
			t.Errorf("prestod %v: no error", a)
		}
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}
