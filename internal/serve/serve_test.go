package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
	"presto/internal/simtime"
)

// buildNet assembles a small quiet deployment and registers cleanup.
func buildNet(t *testing.T, proxies, motesPer int) *core.Network {
	t.Helper()
	c := gen.DefaultTempConfig()
	c.Sensors = proxies * motesPer
	c.Days = 2
	c.EventsPerDay = 0
	traces, err := gen.Temperature(c)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Radio.LossProb = 0
	cfg.Radio.JitterMax = 0
	cfg.Proxies = proxies
	cfg.MotesPerProxy = motesPer
	cfg.Traces = traces
	n, err := core.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func postSpec(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeResult(t *testing.T, resp *http.Response) query.SetResult {
	t.Helper()
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	res, err := query.DecodeSetResultJSON(buf)
	if err != nil {
		t.Fatalf("decoding %s: %v", buf, err)
	}
	return res
}

// TestServeQueryAndSemanticHit is the front door's happy path over a
// real deployment: a NOW spec answers per-mote, a fixed-window aggregate
// misses then a looser-precision repeat of the same question is served
// from the cache, and /statsz reports it.
func TestServeQueryAndSemanticHit(t *testing.T) {
	n := buildNet(t, 2, 2)
	n.Start()
	n.Run(4 * time.Hour)

	srv := New(n, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// NOW across the fleet.
	resp := postSpec(t, ts.URL, `{"type":"now","precision":2,"max_staleness":"6h"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("NOW status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Presto-Cache"); got != "miss" {
		t.Fatalf("first NOW cache header %q", got)
	}
	res := decodeResult(t, resp)
	if len(res.Results) != 4 || res.Err != nil {
		t.Fatalf("NOW round: %+v", res)
	}

	// Fixed-window aggregate: miss, then a looser repeat hits.
	agg := `{"type":"agg","agg":"mean","t0":"1h","t1":"3h","precision":0.5,"max_staleness":"6h"}`
	resp = postSpec(t, ts.URL, agg)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Presto-Cache") != "miss" {
		t.Fatalf("first AGG: status %d cache %q", resp.StatusCode, resp.Header.Get("X-Presto-Cache"))
	}
	first := decodeResult(t, resp)
	if first.Err != nil || first.Count == 0 {
		t.Fatalf("AGG round unusable: %+v", first)
	}

	loose := strings.Replace(agg, `"precision":0.5`, `"precision":2.5`, 1)
	resp = postSpec(t, ts.URL, loose)
	if resp.Header.Get("X-Presto-Cache") != "hit" {
		t.Fatalf("looser repeat was not served from cache (header %q)", resp.Header.Get("X-Presto-Cache"))
	}
	second := decodeResult(t, resp)
	if second.Value != first.Value || second.ErrBound != first.ErrBound {
		t.Fatalf("cache hit diverged: %+v vs %+v", second, first)
	}

	// The counters saw all of it.
	statsResp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	statsResp.Body.Close()
	if st.Queries != 3 || st.Cache.Hits != 1 || st.Cache.Misses < 2 {
		t.Fatalf("statsz %+v", st)
	}
	if st.CacheHitRatio <= 0 {
		t.Fatalf("hit ratio %v", st.CacheHitRatio)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil || hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", hz, err)
	}
	hz.Body.Close()
}

// TestServeSSEContinuous streams a bounded standing query over SSE: one
// data frame per round, then the end event when the horizon passes.
func TestServeSSEContinuous(t *testing.T) {
	n := buildNet(t, 1, 2)
	n.Start()
	n.Run(time.Hour)

	srv := New(n, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Arm the stream first: the handler flushes headers once the standing
	// query is registered, so the advance below cannot outrun it.
	resp := postSpec(t, ts.URL,
		`{"type":"now","precision":2,"continuous":{"every":"15m","until":"1h"}}`)
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	go n.Run(3 * time.Hour)
	var rounds int
	var ended, done bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: end":
			ended = true
		case strings.HasPrefix(line, "data: "):
			if ended {
				done = line == "data: done"
				continue
			}
			rounds++
			res, err := query.DecodeSetResultJSON([]byte(strings.TrimPrefix(line, "data: ")))
			if err != nil {
				t.Fatalf("round %d: %v", rounds, err)
			}
			if res.Err != nil || len(res.Results) != 2 {
				t.Fatalf("round %d: %+v", rounds, res)
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if rounds != 4 || !done {
		t.Fatalf("stream delivered %d rounds, done=%v; want 4 rounds then done", rounds, done)
	}
	st := srv.Snapshot()
	if st.SSE.Streams != 1 || st.SSE.Rounds != 4 || st.SSE.Active != 0 {
		t.Fatalf("sse stats %+v", st.SSE)
	}
}

// TestServeShutdownEndsStreams: Close must end an unbounded stream with
// a shutdown event instead of hanging graceful shutdown on it.
func TestServeShutdownEndsStreams(t *testing.T) {
	n := buildNet(t, 1, 2)
	n.Start()
	n.Run(time.Hour)

	srv := New(n, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postSpec(t, ts.URL,
		`{"type":"now","precision":2,"continuous":{"every":"10m"}}`)
	defer resp.Body.Close()

	closed := make(chan struct{})
	go func() {
		// Give the handler a moment to enter its select, then shut down.
		time.Sleep(50 * time.Millisecond)
		srv.Close()
		close(closed)
	}()

	var sawShutdown bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if sc.Text() == "data: shutdown" {
			sawShutdown = true
		}
	}
	if !sawShutdown {
		t.Fatal("stream ended without the shutdown event")
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after the stream ended")
	}
}

// fakeEngine satisfies Engine with canned behaviour, for the typed error
// paths a healthy deployment will not produce on demand.
type fakeEngine struct {
	res  query.SetResult
	err  error
	hang bool // never deliver: exercises the query timeout
	now  simtime.Time
}

func (f *fakeEngine) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	if f.err != nil {
		return nil, f.err
	}
	ch := make(chan query.SetResult, 1)
	if f.hang {
		go func() { <-ctx.Done(); close(ch) }()
		return ch, nil
	}
	ch <- f.res
	close(ch)
	return ch, nil
}

func (f *fakeEngine) Now() simtime.Time { return f.now }

// TestServeTypedErrors round-trips the codec error cases through the
// HTTP layer: ErrNoMotes surfaces as 422 no_motes, an empty aggregate
// stays a 200 whose body carries the typed code, bad specs are 400, and
// a wedged engine turns into 504 at the query timeout.
func TestServeTypedErrors(t *testing.T) {
	t.Run("no_motes", func(t *testing.T) {
		srv := New(&fakeEngine{err: fmt.Errorf("core: %w", query.ErrNoMotes)}, Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp := postSpec(t, ts.URL, `{"type":"now"}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Fatalf("status %d, want 422", resp.StatusCode)
		}
		var body struct {
			Code string `json:"code"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil || body.Code != query.CodeNoMotes {
			t.Fatalf("body code %q err %v", body.Code, err)
		}
	})

	t.Run("empty_aggregate", func(t *testing.T) {
		srv := New(&fakeEngine{res: query.SetResult{Value: math.NaN(), Err: query.ErrEmptyAggregate}}, Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp := postSpec(t, ts.URL, `{"type":"agg","agg":"mean","t0":0,"t1":"1h","precision":1}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d, want 200 with typed code in the body", resp.StatusCode)
		}
		res := decodeResult(t, resp)
		if !errors.Is(res.Err, query.ErrEmptyAggregate) || !math.IsNaN(res.Value) {
			t.Fatalf("decoded %+v, want ErrEmptyAggregate and NaN", res)
		}
		// An errored round must not have been cached.
		resp = postSpec(t, ts.URL, `{"type":"agg","agg":"mean","t0":0,"t1":"1h","precision":1}`)
		if resp.Header.Get("X-Presto-Cache") != "miss" {
			t.Fatal("empty aggregate was served from cache")
		}
		resp.Body.Close()
	})

	t.Run("bad_spec", func(t *testing.T) {
		srv := New(&fakeEngine{}, Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for _, body := range []string{
			`not json`,
			`{"type":"sum"}`,
			`{"type":"agg"}`,
			`{"type":"now","staleness":"1h"}`,
			`{"type":"now"}{"type":"agg"}`, // two specs in one body
			`{"type":"now"} garbage`,
		} {
			resp := postSpec(t, ts.URL, body)
			var eb errorBody
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || eb.Code != "bad_spec" {
				t.Fatalf("POST %s: status %d code %q, want 400 bad_spec", body, resp.StatusCode, eb.Code)
			}
		}
		if resp, err := http.Get(ts.URL + "/v1/query"); err == nil {
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Fatalf("GET /v1/query status %d, want 405", resp.StatusCode)
			}
			resp.Body.Close()
		}
	})

	t.Run("timeout", func(t *testing.T) {
		srv := New(&fakeEngine{hang: true}, Config{QueryTimeout: 50 * time.Millisecond})
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp := postSpec(t, ts.URL, `{"type":"now","precision":1}`)
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504", resp.StatusCode)
		}
	})
}

// TestServeAdmission: a tenant over its rate is throttled with 429 and a
// Retry-After hint; other tenants are unaffected.
func TestServeAdmission(t *testing.T) {
	eng := &fakeEngine{res: query.SetResult{Value: 20, ErrBound: 0.1, Count: 2}}
	srv := New(eng, Config{Admit: AdmitConfig{QPS: 0.0001, Burst: 1}})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(tenant string) *http.Response {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/query",
			bytes.NewReader([]byte(`{"type":"now","precision":1,"max_staleness":"1h"}`)))
		req.Header.Set("X-Presto-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	first := post("alice")
	if first.StatusCode != http.StatusOK {
		t.Fatalf("first query status %d", first.StatusCode)
	}
	first.Body.Close()
	second := post("alice")
	defer second.Body.Close()
	if second.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst-exceeding query status %d, want 429", second.StatusCode)
	}
	if second.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var body struct {
		Code string `json:"code"`
	}
	if err := json.NewDecoder(second.Body).Decode(&body); err != nil || body.Code != "throttled" {
		t.Fatalf("throttle body code %q err %v", body.Code, err)
	}
	other := post("bob")
	if other.StatusCode != http.StatusOK {
		t.Fatalf("other tenant throttled too: %d", other.StatusCode)
	}
	other.Body.Close()

	st := srv.Snapshot()
	if st.Admit.Throttled != 1 || st.Admit.Allowed != 2 || st.Admit.Tenants != 2 {
		t.Fatalf("admission stats %+v", st.Admit)
	}
}

// clusterFake is a fakeEngine that also reports cluster health, the way
// a cluster coordinator adapter does.
type clusterFake struct {
	fakeEngine
	health ClusterHealth
}

func (f *clusterFake) ClusterHealth() ClusterHealth { return f.health }

// TestStatszClusterSection: an engine implementing ClusterHealthSource
// grows a cluster section in /statsz; a plain engine does not.
func TestStatszClusterSection(t *testing.T) {
	eng := &clusterFake{health: ClusterHealth{
		Sites: []ClusterSiteHealth{
			{Site: 0, Domains: []int{0, 1}, Alive: true},
			{Site: 1, Domains: []int{2, 3}, Alive: false},
		},
		SitesAlive:   1,
		LeaseInstant: "4h0m0s",
		Migrations:   3,
		Rejoins:      1,
	}}
	srv := New(eng, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("statsz has no cluster section for a clustered engine")
	}
	c := st.Cluster
	if c.SitesAlive != 1 || c.Migrations != 3 || c.Rejoins != 1 || c.LeaseInstant != "4h0m0s" {
		t.Fatalf("cluster section %+v", c)
	}
	if len(c.Sites) != 2 || c.Sites[1].Alive || len(c.Sites[1].Domains) != 2 {
		t.Fatalf("cluster sites %+v", c.Sites)
	}

	plain := New(&fakeEngine{}, Config{})
	defer plain.Close()
	if s := plain.Snapshot(); s.Cluster != nil {
		t.Fatalf("plain engine grew a cluster section: %+v", s.Cluster)
	}
}

// TestServeHitWritesMissBody: the cache keeps the bytes its miss wrote,
// so a hit's body is byte-identical to the miss's, and ?explain=1 on a
// hit embeds those same bytes as its result.
func TestServeHitWritesMissBody(t *testing.T) {
	eng := &fakeEngine{res: query.SetResult{At: simtime.Hour, Value: 20.125, ErrBound: 0.25, Count: 4}, now: simtime.Hour}
	srv := New(eng, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path string) ([]byte, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json",
			strings.NewReader(`{"type":"agg","agg":"mean","motes":[3,1,2],"t0":0,"t1":"1h","precision":1}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: status %d, %v: %s", path, resp.StatusCode, err, body)
		}
		return body, resp.Header.Get("X-Presto-Cache")
	}
	miss, state := post("/v1/query")
	if state != "miss" {
		t.Fatalf("first ask: cache %q", state)
	}
	hit, state := post("/v1/query")
	if state != "hit" {
		t.Fatalf("repeat: cache %q", state)
	}
	if !bytes.Equal(hit, miss) {
		t.Fatalf("hit body differs from its miss\n hit %q\nmiss %q", hit, miss)
	}

	explained, state := post("/v1/query?explain=1")
	if state != "hit" {
		t.Fatalf("explained repeat: cache %q", state)
	}
	var eb ExplainBody
	if err := json.Unmarshal(explained, &eb); err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := json.Compact(&got, eb.Result); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&want, miss); err != nil {
		t.Fatal(err)
	}
	if eb.Cache != "hit" || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("explained hit (cache %q) embeds %s, want %s", eb.Cache, got.Bytes(), want.Bytes())
	}
}
