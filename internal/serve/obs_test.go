package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"presto/internal/obs"
	"presto/internal/query"
)

// metricsFamilies fetches /metricsz and parses the exposition into
// families, failing the test on any format violation: a series line
// must be preceded by its family's # HELP and # TYPE pair (each exactly
// once), and no series (name + label set) may repeat.
func metricsFamilies(t *testing.T, url string) map[string][]string {
	t.Helper()
	resp, err := http.Get(url + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metricsz status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metricsz content type %q", ct)
	}

	fams := map[string][]string{} // family name -> series lines
	help := map[string]int{}
	typed := map[string]int{}
	series := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			name := strings.Fields(line)[2]
			help[name]++
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			f := strings.Fields(line)
			name, kind := f[2], f[3]
			typed[name]++
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("unknown metric type %q in %q", kind, line)
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line %q", line)
		}
		// A series line: name{labels} value. The family is the name with
		// any histogram suffix stripped.
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("series line without value: %q", line)
		}
		key := line[:sp]
		if series[key] {
			t.Fatalf("duplicate series %q", key)
		}
		series[key] = true
		name := key
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		fam := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if typed[fam] == 0 {
			t.Fatalf("series %q before its # TYPE line", line)
		}
		fams[fam] = append(fams[fam], line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	for name, n := range help {
		if n != 1 || typed[name] != 1 {
			t.Fatalf("family %s has %d HELP / %d TYPE lines, want exactly 1 each", name, n, typed[name])
		}
	}
	for name := range typed {
		if help[name] != 1 {
			t.Fatalf("family %s has TYPE but no HELP", name)
		}
	}
	return fams
}

// TestMetricszExposition scrapes a live deployment and checks both the
// exposition format and that the key series the issue names are present
// and moving: HTTP traffic, proxy answer provenance, store routing,
// cache counters, and the latency histogram.
func TestMetricszExposition(t *testing.T) {
	n := buildNet(t, 2, 2)
	n.Start()
	n.Run(4 * time.Hour)

	srv := New(n, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp := postSpec(t, ts.URL, `{"type":"now","precision":2,"max_staleness":"6h"}`)
		resp.Body.Close()
	}

	fams := metricsFamilies(t, ts.URL)
	for _, want := range []string{
		"presto_http_queries_total",
		"presto_http_query_wall_ms",
		"presto_query_window_virtual_seconds",
		"presto_cache_hits_total",
		"presto_cache_misses_total",
		"presto_admission_allowed_total",
		"presto_proxy_answers_total",
		"presto_store_routing_total",
		"presto_store_backend_appends_total",
		"presto_engine_queries_submitted_total",
		"presto_uptime_seconds",
	} {
		if len(fams[want]) == 0 {
			t.Errorf("family %s missing from /metricsz", want)
		}
	}

	// The three posted queries are counted.
	var queries float64
	for _, line := range fams["presto_http_queries_total"] {
		fmt.Sscanf(line, "presto_http_queries_total %g", &queries)
	}
	if queries != 3 {
		t.Fatalf("presto_http_queries_total = %v, want 3", queries)
	}

	// Proxy answers are labelled by provenance and at least one source
	// produced the fleet's NOW answers.
	var answered float64
	for _, line := range fams["presto_proxy_answers_total"] {
		if !strings.Contains(line, `source="`) {
			t.Fatalf("unlabelled proxy answer series %q", line)
		}
		var v float64
		if sp := strings.LastIndexByte(line, ' '); sp >= 0 {
			fmt.Sscanf(line[sp+1:], "%g", &v)
		}
		answered += v
	}
	if answered == 0 {
		t.Fatal("presto_proxy_answers_total all zero after 3 fleet queries")
	}

	// The wall-time histogram is a real cumulative histogram: buckets
	// ascend, the +Inf bucket equals _count, and _count matches traffic.
	var infBucket, count float64
	last := -1.0
	for _, line := range fams["presto_http_query_wall_ms"] {
		sp := strings.LastIndexByte(line, ' ')
		var v float64
		fmt.Sscanf(line[sp+1:], "%g", &v)
		switch {
		case strings.Contains(line, `le="+Inf"`):
			infBucket = v
		case strings.HasPrefix(line, "presto_http_query_wall_ms_bucket"):
			if v < last {
				t.Fatalf("histogram bucket not cumulative: %q after %g", line, last)
			}
			last = v
		case strings.HasPrefix(line, "presto_http_query_wall_ms_count"):
			count = v
		}
	}
	if infBucket != count || count != 3 {
		t.Fatalf("histogram +Inf=%v count=%v, want both 3", infBucket, count)
	}

	// A fleet AGG over an hour is 61 slots per mote, each counted by what
	// filled it: a cached entry or the model. Value-driven motes push
	// rarely, so both series move and together they account for every slot.
	resp := postSpec(t, ts.URL, `{"type":"agg","agg":"mean","t0":"1h","t1":"2h","precision":2}`)
	resp.Body.Close()
	slots := map[string]float64{}
	for _, line := range metricsFamilies(t, ts.URL)["presto_proxy_range_slots_total"] {
		for _, src := range []string{"cache", "model"} {
			if sp := strings.LastIndexByte(line, ' '); strings.Contains(line, `source="`+src+`"`) {
				var v float64
				fmt.Sscanf(line[sp+1:], "%g", &v)
				slots[src] = v
			}
		}
	}
	if slots["cache"] == 0 || slots["model"] == 0 || slots["cache"]+slots["model"] != 4*61 {
		t.Fatalf("presto_proxy_range_slots_total = %v, want both sources > 0 and 244 slots in all", slots)
	}
}

// TestStatszSchemaStability pins the /statsz JSON wire schema: the
// top-level key set and the cluster section's per-site keys, including
// the wire byte counters. New fields are fine — they must be added to
// this test — but renames and removals break scrapers and fail here.
func TestStatszSchemaStability(t *testing.T) {
	eng := &clusterFake{health: ClusterHealth{
		Sites: []ClusterSiteHealth{
			{Site: 0, Domains: []int{0, 1}, Alive: true},
			{Site: 1, Domains: []int{2, 3}, Alive: true,
				FramesSent: 10, FramesRecv: 9,
				WireSentBytes: 1024, WireRecvBytes: 2048,
				SentKindBytes: map[string]uint64{"scatter": 512},
				RecvKindBytes: map[string]uint64{"partials": 1536}},
		},
		SitesAlive:   2,
		LeaseInstant: "4h0m0s",
	}}
	srv := New(eng, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp := postSpec(t, ts.URL, `{"type":"now","precision":1,"max_staleness":"1h"}`)
	resp.Body.Close()

	sz, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer sz.Body.Close()
	var top map[string]json.RawMessage
	if err := json.NewDecoder(sz.Body).Decode(&top); err != nil {
		t.Fatal(err)
	}

	assertKeys := func(section string, got map[string]json.RawMessage, want []string) {
		t.Helper()
		var keys []string
		for k := range got {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		sort.Strings(want)
		if strings.Join(keys, ",") != strings.Join(want, ",") {
			t.Fatalf("%s keys changed:\n  got  %v\n  want %v", section, keys, want)
		}
	}
	assertKeys("statsz", top, []string{
		"uptime_s", "virtual_now", "queries", "errors", "inflight",
		"cache", "cache_hit_ratio", "admission", "sse", "cluster",
	})

	var cluster map[string]json.RawMessage
	if err := json.Unmarshal(top["cluster"], &cluster); err != nil {
		t.Fatal(err)
	}
	assertKeys("cluster", cluster, []string{
		"sites", "sites_alive", "lease_instant", "migrations", "rejoins",
	})

	var sites []map[string]json.RawMessage
	if err := json.Unmarshal(cluster["sites"], &sites); err != nil {
		t.Fatal(err)
	}
	if len(sites) != 2 {
		t.Fatalf("cluster sites %v", sites)
	}
	// Site 0 is the coordinator itself: no connection, so the omitempty
	// wire counters must be absent. Site 1 carries the full set.
	assertKeys("site 0", sites[0], []string{"site", "domains", "alive"})
	assertKeys("site 1", sites[1], []string{
		"site", "domains", "alive", "frames_sent", "frames_recv",
		"wire_sent_bytes", "wire_recv_bytes", "sent_bytes_by_kind", "recv_bytes_by_kind",
	})
}

// postExplain poses a query with ?explain=1 and decodes the envelope.
func postExplain(t *testing.T, url, body string) (ExplainBody, *http.Response) {
	t.Helper()
	resp, err := http.Post(url+"/v1/query?explain=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explain status %d", resp.StatusCode)
	}
	var eb ExplainBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	return eb, resp
}

// TestExplainTrace is the explain golden: a routed fleet query answers
// with a trace naming the routing decision for every mote, the spans
// cover the scatter/merge pipeline, and a cache-served repeat explains
// itself as exactly that — a cache hit with no routing at all.
func TestExplainTrace(t *testing.T) {
	n := buildNet(t, 2, 2)
	n.Start()
	n.Run(4 * time.Hour)

	srv := New(n, Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	eb, resp := postExplain(t, ts.URL, `{"type":"now","precision":2,"max_staleness":"6h"}`)
	if resp.Header.Get("X-Presto-Cache") != "miss" {
		t.Fatalf("first explain cache header %q", resp.Header.Get("X-Presto-Cache"))
	}
	if eb.Cache != "miss" || eb.Trace.ID == 0 {
		t.Fatalf("explain envelope: cache=%q trace id=%d", eb.Cache, eb.Trace.ID)
	}
	res, err := query.DecodeSetResultJSON(eb.Result)
	if err != nil || res.Err != nil || len(res.Results) != 4 {
		t.Fatalf("explain result: %v / %+v", err, res)
	}

	// Spans name the pipeline stages in order.
	var names []string
	for _, sp := range eb.Trace.Spans {
		names = append(names, sp.Name)
	}
	if got := strings.Join(names, ","); got != "cache,scatter,merge" {
		t.Fatalf("span sequence %q, want cache,scatter,merge", got)
	}

	// Every mote's answer carries its routing decision, each decision a
	// known kind, each mote exactly once.
	known := map[string]bool{}
	for _, k := range obs.RouteKinds() {
		known[k.String()] = true
	}
	seen := map[int64]string{}
	for _, rt := range eb.Trace.Routes {
		if !known[rt.Kind.String()] || rt.Kind == obs.RouteNone {
			t.Fatalf("route %+v has unknown decision %q", rt, rt.Kind)
		}
		if _, dup := seen[rt.Mote]; dup {
			t.Fatalf("mote %d routed twice", rt.Mote)
		}
		seen[rt.Mote] = rt.Kind.String()
	}
	for _, id := range n.MoteIDs() {
		if _, ok := seen[int64(id)]; !ok {
			t.Fatalf("mote %d has no routing decision; routes %+v", id, eb.Trace.Routes)
		}
	}

	// The JSON wire form spells the decision out by name.
	raw, err := json.Marshal(eb.Trace.Routes[0])
	if err != nil || !strings.Contains(string(raw), `"decision":"`) {
		t.Fatalf("route JSON %s (err %v) lacks a decision field", raw, err)
	}

	// A cacheable aggregate: plant, then a looser explained repeat must
	// be a pure cache hit — no scatter, no routes.
	agg := `{"type":"agg","agg":"mean","t0":"1h","t1":"3h","precision":0.5,"max_staleness":"6h"}`
	first, _ := postExplain(t, ts.URL, agg)
	if first.Cache != "miss" || len(first.Trace.Routes) != 4 {
		t.Fatalf("planting AGG: cache=%q routes=%d", first.Cache, len(first.Trace.Routes))
	}
	loose := strings.Replace(agg, `"precision":0.5`, `"precision":2.5`, 1)
	hit, resp := postExplain(t, ts.URL, loose)
	if resp.Header.Get("X-Presto-Cache") != "hit" || hit.Cache != "hit" {
		t.Fatalf("repeat not served from cache: header %q body %q",
			resp.Header.Get("X-Presto-Cache"), hit.Cache)
	}
	if len(hit.Trace.Routes) != 0 {
		t.Fatalf("cache hit grew routes: %+v", hit.Trace.Routes)
	}
	if len(hit.Trace.Spans) != 1 || hit.Trace.Spans[0].Name != "cache" || hit.Trace.Spans[0].Detail != "hit" {
		t.Fatalf("cache hit spans %+v, want the single cache/hit span", hit.Trace.Spans)
	}

	// Tracing rode the explain flag only: the slow-query log stayed off
	// and plain queries still answer without an envelope.
	plain := postSpec(t, ts.URL, loose)
	if _, err := query.DecodeSetResultJSON(func() []byte {
		defer plain.Body.Close()
		var buf strings.Builder
		sc := bufio.NewScanner(plain.Body)
		for sc.Scan() {
			buf.WriteString(sc.Text())
		}
		return []byte(buf.String())
	}()); err != nil {
		t.Fatalf("plain query after explain: %v", err)
	}
}
