package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"presto/internal/core"
	"presto/internal/scenario"
	"presto/internal/serve"
)

// tier serves the smoke preset's deployment the way prestod -scenario
// smoke -http does (trained, then advanced to its horizon), wrapped by
// wrap, on a loopback test server.
func tier(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	spec, err := scenario.Preset("smoke")
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	n, err := core.Build(sc.Config)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	if _, err := n.Bootstrap(24*time.Hour, 48, sc.Config.Delta); err != nil {
		t.Fatal(err)
	}
	n.Run(24 * time.Hour)
	srv := serve.New(n, serve.Config{Scenario: spec.Name})
	t.Cleanup(srv.Close)
	ts := httptest.NewServer(wrap(srv.Handler()))
	t.Cleanup(ts.Close)
	return ts.URL
}

func direct(h http.Handler) http.Handler { return h }

// load runs presto-load against addr and returns its stdout.
func load(t *testing.T, addr string, args ...string) string {
	t.Helper()
	var out, errs bytes.Buffer
	if err := run(context.Background(), append([]string{"-addr", addr}, args...), &out, &errs); err != nil {
		t.Fatalf("presto-load %v: %v\n%s\n%s", args, err, out.String(), errs.String())
	}
	return out.String()
}

// p99 reads the p99 latency, in ms, off the report.
func p99(t *testing.T, out string) float64 {
	t.Helper()
	m := regexp.MustCompile(`latency: p50=\S+ ms p95=\S+ ms p99=(\S+) ms`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no latency line in:\n%s", out)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestMixAndReplay: the default mix harvests cache hits and explains its
// routing, and the smoke schedule replays against the tier booted from
// the same spec; nothing fails either way.
func TestMixAndReplay(t *testing.T) {
	addr := tier(t, direct)
	out := load(t, addr, "-duration", "300ms", "-concurrency", "2", "-explain", "3")
	for _, pattern := range []string{
		`(?m)^burst: [1-9]\d* requests over 300ms from 2 workers`,
		`(?m)^client-observed cache hits: [1-9]\d*/\d+, throttled: 0, failed: 0$`,
		`(?m)^explain: [1-9]\d* traced requests, routing decisions: \S+=\d+`,
		`(?m)^server \(scenario "smoke"\): [1-9]\d* queries answered`,
	} {
		if !regexp.MustCompile(pattern).MatchString(out) {
			t.Errorf("no %q in:\n%s", pattern, out)
		}
	}
	p99(t, out)

	out = load(t, addr, "-scenario", "smoke", "-duration", "500ms", "-concurrency", "4")
	for _, pattern := range []string{
		`(?m)^scenario: replaying "smoke" — \d+ scheduled arrivals compressed onto 500ms$`,
		`(?m)^schedule: \d+ of \d+ arrivals replayed, \d+ sent late`,
		`(?m)failed: 0$`,
	} {
		if !regexp.MustCompile(pattern).MatchString(out) {
			t.Errorf("no %q in:\n%s", pattern, out)
		}
	}
}

// TestReplayLatencyIncludesQueueing: one worker against a tier that takes
// 20 ms per answer falls behind a schedule that wants an arrival every few
// ms. Latency counts from each arrival's instant, so p99 carries the time
// spent waiting for the worker, far above one answer's 20 ms; measured
// from when the request went out it would stay near 20 ms.
func TestReplayLatencyIncludesQueueing(t *testing.T) {
	const delay = 20 * time.Millisecond
	addr := tier(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/query" {
				time.Sleep(delay)
			}
			h.ServeHTTP(w, r)
		})
	})
	out := load(t, addr, "-scenario", "smoke", "-duration", "200ms", "-concurrency", "1")
	if got := p99(t, out); got < 3*float64(delay/time.Millisecond) {
		t.Errorf("p99 %.2f ms leaves out the queueing behind one %v worker:\n%s", got, delay, out)
	}
	m := regexp.MustCompile(`arrivals replayed, (\d+) sent late`).FindStringSubmatch(out)
	if m == nil || m[1] == "0" {
		t.Errorf("no arrival counted late:\n%s", out)
	}
}

// TestFailuresFailTheRun: an answer the tier could not give is a failed
// request, and a failed request fails the run.
func TestFailuresFailTheRun(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	defer ts.Close()
	var out bytes.Buffer
	err := run(context.Background(), []string{"-addr", ts.URL, "-duration", "50ms", "-concurrency", "1"}, &out, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "requests failed") {
		t.Fatalf("run returned %v after failed requests:\n%s", err, out.String())
	}
}

// TestFlagErrors: a bad command line comes back as an error from run
// before any request is posed. With no worker a replay would wait forever
// to hand out its first arrival, and a mix would report an empty burst as
// a success.
func TestFlagErrors(t *testing.T) {
	for _, a := range [][]string{
		{"-concurrency", "0"},
		{"-concurrency", "0", "-scenario", "smoke"},
		{"-concurrency", "-1"},
		{"-duration", "0s"},
		{"-duration", "-1s", "-scenario", "smoke"},
		{"-scenario", "no-such-preset"},
		{"-no-such-flag"},
		{"stray"},
	} {
		done := make(chan error, 1)
		go func() {
			done <- run(context.Background(), append([]string{"-addr", "http://127.0.0.1:1"}, a...), io.Discard, io.Discard)
		}()
		select {
		case err := <-done:
			if err == nil {
				t.Errorf("presto-load %v: no error", a)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("presto-load %v: still running after 10s", a)
		}
	}
	if err := run(context.Background(), []string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}

// TestCancelEndsTheBurst: a cancelled context (a signal, in main) stops
// the burst early and the report still prints.
func TestCancelEndsTheBurst(t *testing.T) {
	addr := tier(t, direct)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	var out bytes.Buffer
	start := time.Now()
	if err := run(ctx, []string{"-addr", addr, "-scenario", "smoke", "-duration", "1m"}, &out, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if took := time.Since(start); took > 10*time.Second {
		t.Errorf("cancelled burst ran %v", took)
	}
	m := regexp.MustCompile(`schedule: (\d+) of (\d+) arrivals replayed`).FindStringSubmatch(out.String())
	if m == nil || m[1] == m[2] || !strings.Contains(out.String(), "failed: 0") {
		t.Errorf("no early report in:\n%s", out.String())
	}
}
