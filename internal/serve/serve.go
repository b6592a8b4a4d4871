// Package serve is PRESTO's network-facing user tier: an HTTP/JSON front
// door over the declarative query engine. POST /v1/query accepts a
// JSON-encoded query.Spec and answers with the round's JSON form;
// Continuous specs stream their rounds as server-sent events; /healthz
// and /statsz expose liveness and counters.
//
// In front of the engine sits a semantic answer cache: answers carry
// explicit (precision, staleness) contracts, so a cached answer serves
// any later query whose precision is looser than the cached bound and
// whose staleness allowance covers the answer's age — the paper's whole
// premise, applied at the serving tier so repeated questions never touch
// a mote. Per-tenant token buckets shed load before it reaches the
// engine.
//
// The same server fronts an in-process core.Network and a
// cluster.Coordinator: anything implementing Engine (SubmitSpec + Now)
// plugs in.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"presto/internal/core"
	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/simtime"
)

// Engine is the query engine seam the server fronts: an in-process
// core.Network or a cluster.Coordinator — both submit declarative specs
// and report the deployment's virtual clock (which the semantic cache
// ages answers against).
type Engine interface {
	core.SpecSubmitter
	Now() simtime.Time
}

// Config shapes the server.
type Config struct {
	Cache CacheConfig
	Admit AdmitConfig
	// QueryTimeout bounds one-shot query execution; 0 means
	// DefaultQueryTimeout.
	QueryTimeout time.Duration
	// Scenario labels the deployment this tier fronts (the scenario spec
	// name when booted with prestod -scenario); surfaced on /statsz so
	// load drivers can confirm they hit the universe they generated.
	Scenario string
	// SlowQuery, when positive, traces every one-shot query and logs the
	// ones whose wall time exceeds it — spans and per-mote routing
	// decisions included, so a slow query explains itself. Zero disables
	// slow-query tracing entirely (the nil-trace fast path).
	SlowQuery time.Duration
}

// DefaultQueryTimeout bounds a one-shot query's wall-clock execution.
const DefaultQueryTimeout = 30 * time.Second

// Server is the HTTP front door. Create with New, mount Handler, Close
// on shutdown to end streaming requests.
type Server struct {
	eng   Engine
	cl    *core.Client
	cfg   Config
	cache *AnswerCache
	admit *admitter

	ctx    context.Context // done => streams drain and exit
	cancel context.CancelFunc
	wg     sync.WaitGroup // live SSE streams
	start  time.Time

	queries   atomic.Uint64 // one-shot queries answered (cache or engine)
	errored   atomic.Uint64 // requests answered with a non-2xx status
	streams   atomic.Uint64 // SSE streams opened
	sseRounds atomic.Uint64 // SSE rounds delivered
	inflight  atomic.Int64  // one-shot queries executing in the engine
	sseActive atomic.Int64  // SSE streams currently open

	reg      *obs.Registry  // unified metrics, exposed at GET /metricsz
	wallHist *obs.Histogram // one-shot query wall latency (ms)
	winHist  *obs.Histogram // one-shot query window span (virtual seconds)
	slow     atomic.Uint64  // one-shot queries over the SlowQuery threshold
}

// MetricsSource is the optional Engine extension that registers the
// engine's own counters into the server's metrics registry. Both
// core.Network and cluster.Coordinator implement it; wrappers should
// forward it so /metricsz sees the whole stack.
type MetricsSource interface {
	RegisterMetrics(reg *obs.Registry)
}

// New builds a server over an engine.
func New(eng Engine, cfg Config) *Server {
	if cfg.QueryTimeout == 0 {
		cfg.QueryTimeout = DefaultQueryTimeout
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		eng:    eng,
		cl:     core.NewClient(eng),
		cfg:    cfg,
		cache:  NewAnswerCache(cfg.Cache),
		admit:  newAdmitter(cfg.Admit),
		ctx:    ctx,
		cancel: cancel,
		start:  time.Now(),
		reg:    obs.NewRegistry(),
	}
	s.registerMetrics()
	if ms, ok := eng.(MetricsSource); ok {
		ms.RegisterMetrics(s.reg)
	}
	return s
}

// Registry exposes the unified metrics registry so the daemon can
// register process-level series next to the engine's.
func (s *Server) Registry() *obs.Registry { return s.reg }

// registerMetrics registers the serving tier's own counters: HTTP
// traffic, the semantic cache, admission control, SSE streaming, and
// the wall/virtual-time latency histograms.
func (s *Server) registerMetrics() {
	r := s.reg
	r.CounterFunc("presto_http_queries_total", "One-shot queries answered (cache or engine).", nil, s.queries.Load)
	r.CounterFunc("presto_http_errors_total", "Requests answered with a non-2xx status.", nil, s.errored.Load)
	r.GaugeFunc("presto_http_inflight", "One-shot queries currently executing.", nil,
		func() float64 { return float64(s.inflight.Load()) })
	r.CounterFunc("presto_http_slow_queries_total", "One-shot queries over the slow-query threshold.", nil, s.slow.Load)
	r.CounterFunc("presto_sse_streams_total", "Continuous-query SSE streams opened.", nil, s.streams.Load)
	r.GaugeFunc("presto_sse_active", "SSE streams currently open.", nil,
		func() float64 { return float64(s.sseActive.Load()) })
	r.CounterFunc("presto_sse_rounds_total", "Continuous rounds delivered over SSE.", nil, s.sseRounds.Load)
	r.CounterFunc("presto_cache_hits_total", "Semantic answer cache hits.", nil,
		func() uint64 { return s.cache.Stats().Hits })
	r.CounterFunc("presto_cache_misses_total", "Semantic answer cache misses.", nil,
		func() uint64 { return s.cache.Stats().Misses })
	r.CounterFunc("presto_cache_inserts_total", "Answers inserted into the semantic cache.", nil,
		func() uint64 { return s.cache.Stats().Inserts })
	r.CounterFunc("presto_cache_evictions_total", "Semantic cache evictions.", nil,
		func() uint64 { return s.cache.Stats().Evictions })
	r.GaugeFunc("presto_cache_entries", "Semantic cache resident entries.", nil,
		func() float64 { return float64(s.cache.Stats().Entries) })
	r.CounterFunc("presto_admission_allowed_total", "Requests admitted past the per-tenant buckets.", nil,
		func() uint64 { return s.admit.snapshot().Allowed })
	r.CounterFunc("presto_admission_throttled_total", "Requests shed by admission control.", nil,
		func() uint64 { return s.admit.snapshot().Throttled })
	r.GaugeFunc("presto_admission_tenants", "Tenants with live admission buckets.", nil,
		func() float64 { return float64(s.admit.snapshot().Tenants) })
	r.GaugeFunc("presto_uptime_seconds", "Serving-tier uptime.", nil,
		func() float64 { return time.Since(s.start).Seconds() })
	s.wallHist = r.Histogram("presto_http_query_wall_ms",
		"One-shot query wall latency in milliseconds.", obs.WallBuckets, nil)
	s.winHist = r.Histogram("presto_query_window_virtual_seconds",
		"One-shot query window span in virtual seconds.", obs.VirtualBuckets, nil)
}

// Handler returns the route table. Mount it on an http.Server.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /statsz", s.handleStatsz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

// Close ends every streaming request and refuses new rounds, then waits
// for the stream handlers to return — call it before http.Server
// Shutdown so graceful shutdown does not hang on open SSE connections.
// One-shot queries in flight drain through Shutdown as usual.
func (s *Server) Close() {
	s.cancel()
	s.wg.Wait()
}

// Cache exposes the answer cache (prestod reports its stats at exit).
func (s *Server) Cache() *AnswerCache { return s.cache }

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

func (s *Server) fail(w http.ResponseWriter, status int, code string, err error) {
	s.errored.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error(), Code: code})
}

// handleQuery answers POST /v1/query: decode the spec, admit the tenant,
// and either serve from the semantic cache, execute one round, or stream
// continuous rounds over SSE.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad_request", fmt.Errorf("reading body: %w", err))
		return
	}
	spec, err := query.DecodeSpecJSON(body)
	if err != nil {
		s.fail(w, http.StatusBadRequest, "bad_spec", err)
		return
	}
	tenant := r.Header.Get("X-Presto-Tenant")
	if tenant == "" {
		tenant = "default"
	}
	if !s.admit.allow(tenant, time.Now()) {
		w.Header().Set("Retry-After", "1")
		s.fail(w, http.StatusTooManyRequests, "throttled",
			fmt.Errorf("tenant %q over its query rate", tenant))
		return
	}
	if spec.Continuous != nil {
		s.streamRounds(w, r, spec)
		return
	}

	// Tracing: ?explain=1 returns the trace as JSON; a SlowQuery
	// threshold traces every query and logs the slow ones. Both off —
	// the common case — keeps tr nil and the whole path allocation-free
	// (the RawQuery check avoids even parsing the query string).
	explain := r.URL.RawQuery != "" && r.URL.Query().Get("explain") == "1"
	var tr *obs.Trace
	if explain || s.cfg.SlowQuery > 0 {
		tr = obs.NewTrace()
	}

	started := time.Now()
	if answer, ok := s.cache.Lookup(spec, s.eng.Now()); ok {
		s.queries.Add(1)
		s.observeQuery(spec, started)
		if explain {
			tr.Span("cache", "hit")
			writeExplain(w, answer, "hit", tr)
			return
		}
		writeAnswer(w, answer, hdrHit)
		return
	}
	tr.Span("cache", "miss")
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.QueryTimeout)
	defer cancel()
	ctx = obs.WithTrace(ctx, tr)
	s.inflight.Add(1)
	res, err := s.cl.QueryOne(ctx, spec)
	s.inflight.Add(-1)
	if err != nil {
		switch {
		case errors.Is(err, query.ErrNoMotes):
			s.fail(w, http.StatusUnprocessableEntity, query.CodeNoMotes, err)
		case errors.Is(err, core.ErrClosed):
			s.fail(w, http.StatusServiceUnavailable, "shutting_down", err)
		case ctx.Err() != nil:
			s.fail(w, http.StatusGatewayTimeout, "timeout", err)
		default:
			s.fail(w, http.StatusBadRequest, "bad_spec", err)
		}
		return
	}
	s.queries.Add(1)
	s.observeQuery(spec, started)
	answer, err := s.cache.Insert(spec, res)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, "encode", err)
		return
	}
	if tr != nil {
		if wall := time.Since(started); s.cfg.SlowQuery > 0 && wall > s.cfg.SlowQuery {
			s.slow.Add(1)
			log.Printf("serve: slow query (%v > %v): %s trace=%d spans=%s routes=%s",
				wall.Round(time.Millisecond), s.cfg.SlowQuery, specLabel(spec),
				tr.ID(), spanSummary(tr), routeSummary(tr))
		}
		if explain {
			writeExplain(w, answer, "miss", tr)
			return
		}
	}
	writeAnswer(w, answer, hdrMiss)
}

// observeQuery books one answered one-shot query into the latency and
// window-span histograms.
func (s *Server) observeQuery(spec query.Spec, started time.Time) {
	s.wallHist.Observe(float64(time.Since(started).Microseconds()) / 1000)
	win := spec.T1 - spec.T0
	if spec.Trailing > 0 {
		win = simtime.Time(spec.Trailing)
	}
	s.winHist.Observe(time.Duration(win).Seconds())
}

// specLabel compresses a spec for the slow-query log line.
func specLabel(spec query.Spec) string {
	if spec.Type == query.Agg {
		return fmt.Sprintf("agg/%v precision=%g", spec.Agg, spec.Precision)
	}
	return fmt.Sprintf("%v precision=%g", spec.Type, spec.Precision)
}

// spanSummary renders a trace's spans as "name(detail)@ms" hops.
func spanSummary(tr *obs.Trace) string {
	spans := tr.Spans()
	if len(spans) == 0 {
		return "-"
	}
	out := ""
	for i, sp := range spans {
		if i > 0 {
			out += " -> "
		}
		out += fmt.Sprintf("%s(%s)@%.1fms", sp.Name, sp.Detail, sp.WallMS)
	}
	return out
}

// routeSummary tallies a trace's per-mote decisions by kind.
func routeSummary(tr *obs.Trace) string {
	counts := map[obs.RouteKind]int{}
	for _, rt := range tr.Routes() {
		counts[rt.Kind]++
	}
	if len(counts) == 0 {
		return "-"
	}
	out := ""
	for _, k := range obs.RouteKinds() {
		if counts[k] == 0 {
			continue
		}
		if out != "" {
			out += ","
		}
		out += fmt.Sprintf("%s=%d", k, counts[k])
	}
	return out
}

// ExplainTrace is the trace half of an ?explain=1 response.
type ExplainTrace struct {
	ID     uint64      `json:"id"`
	Spans  []obs.Span  `json:"spans"`
	Routes []obs.Route `json:"routes"`
}

// ExplainBody is the ?explain=1 response envelope: the round's usual
// JSON plus the trace that produced it.
type ExplainBody struct {
	Result json.RawMessage `json:"result"`
	Cache  string          `json:"cache"`
	Trace  ExplainTrace    `json:"trace"`
}

// writeExplain answers an ?explain=1 query: the encoded answer wrapped
// with the trace's spans and every mote's routing decision.
func writeExplain(w http.ResponseWriter, answer []byte, cacheState string, tr *obs.Trace) {
	body := ExplainBody{
		Result: json.RawMessage(answer),
		Cache:  cacheState,
		Trace:  ExplainTrace{ID: tr.ID(), Spans: tr.Spans(), Routes: tr.Routes()},
	}
	if body.Trace.Spans == nil {
		body.Trace.Spans = []obs.Span{}
	}
	if body.Trace.Routes == nil {
		body.Trace.Routes = []obs.Route{}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Presto-Cache", cacheState)
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

// Header values every answer carries, shared by all responses so that
// writing one allocates nothing; net/http only reads header values.
var (
	hdrJSON = []string{"application/json"}
	hdrHit  = []string{"hit"}
	hdrMiss = []string{"miss"}
)

// writeAnswer writes an encoded answer as it is: a hit writes the cache's
// bytes without encoding anything.
func writeAnswer(w http.ResponseWriter, answer []byte, cacheState []string) {
	h := w.Header()
	h["Content-Type"] = hdrJSON
	h["X-Presto-Cache"] = cacheState
	w.WriteHeader(http.StatusOK)
	w.Write(answer)
}

// streamRounds serves a Continuous spec as server-sent events: one
// "data:" frame per round, an "event: end" frame when a bounded stream's
// horizon passes. The stream ends early when the client hangs up or the
// server shuts down.
func (s *Server) streamRounds(w http.ResponseWriter, r *http.Request, spec query.Spec) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.fail(w, http.StatusInternalServerError, "no_stream", errors.New("serve: response writer cannot stream"))
		return
	}
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	stream, err := s.cl.Query(ctx, spec)
	if err != nil {
		switch {
		case errors.Is(err, query.ErrNoMotes):
			s.fail(w, http.StatusUnprocessableEntity, query.CodeNoMotes, err)
		case errors.Is(err, core.ErrClosed):
			s.fail(w, http.StatusServiceUnavailable, "shutting_down", err)
		default:
			s.fail(w, http.StatusBadRequest, "bad_spec", err)
		}
		return
	}
	defer stream.Close()
	s.wg.Add(1)
	defer s.wg.Done()
	s.streams.Add(1)
	s.sseActive.Add(1)
	defer s.sseActive.Add(-1)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	for {
		select {
		case <-s.ctx.Done(): // server shutting down: end the stream cleanly
			fmt.Fprint(w, "event: end\ndata: shutdown\n\n")
			flusher.Flush()
			return
		case <-ctx.Done(): // client hung up
			return
		case res, ok := <-stream.Results():
			if !ok { // bounded stream: horizon passed
				fmt.Fprint(w, "event: end\ndata: done\n\n")
				flusher.Flush()
				return
			}
			buf, err := query.EncodeSetResultJSON(res)
			if err != nil {
				fmt.Fprintf(w, "event: error\ndata: %q\n\n", err.Error())
				flusher.Flush()
				return
			}
			fmt.Fprintf(w, "data: %s\n\n", buf)
			flusher.Flush()
			s.sseRounds.Add(1)
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain")
	fmt.Fprintln(w, "ok")
}

// Stats is the /statsz document.
type Stats struct {
	Scenario      string         `json:"scenario,omitempty"`
	UptimeSeconds float64        `json:"uptime_s"`
	VirtualNow    string         `json:"virtual_now"`
	Queries       uint64         `json:"queries"`
	Errors        uint64         `json:"errors"`
	Inflight      int64          `json:"inflight"`
	Cache         CacheStats     `json:"cache"`
	CacheHitRatio float64        `json:"cache_hit_ratio"`
	Admit         AdmitStats     `json:"admission"`
	SSE           SSEStats       `json:"sse"`
	Cluster       *ClusterHealth `json:"cluster,omitempty"`
}

// ClusterSiteHealth is one site's row in the /statsz cluster section.
// The wire fields describe the coordinator's connection to the site —
// total frames and bytes each way, plus bytes broken down by frame kind
// (scatter, partials, advance, snapshot-chunk, …), so a run's transport
// cost is attributable per mechanism. Site 0 is the coordinator's own
// window: no connection, zero wire counters, nil kind maps.
type ClusterSiteHealth struct {
	Site          int               `json:"site"`
	Domains       []int             `json:"domains"`
	Alive         bool              `json:"alive"`
	FramesSent    uint64            `json:"frames_sent,omitempty"`
	FramesRecv    uint64            `json:"frames_recv,omitempty"`
	WireSentBytes uint64            `json:"wire_sent_bytes,omitempty"`
	WireRecvBytes uint64            `json:"wire_recv_bytes,omitempty"`
	SentKindBytes map[string]uint64 `json:"sent_bytes_by_kind,omitempty"`
	RecvKindBytes map[string]uint64 `json:"recv_bytes_by_kind,omitempty"`
}

// ClusterHealth is the elasticity telemetry a clustered engine exposes
// through /statsz: per-site liveness and hosting, the lease clock, and
// the migration / re-join / checkpoint history.
type ClusterHealth struct {
	Sites          []ClusterSiteHealth `json:"sites"`
	SitesAlive     int                 `json:"sites_alive"`
	LeaseInstant   string              `json:"lease_instant"`
	Migrations     uint64              `json:"migrations"`
	Rejoins        uint64              `json:"rejoins"`
	LastMigration  string              `json:"last_migration,omitempty"`
	LastCheckpoint string              `json:"last_checkpoint,omitempty"`
}

// ClusterHealthSource is the optional Engine extension a multi-site
// deployment implements; when present, /statsz grows a cluster section.
type ClusterHealthSource interface {
	ClusterHealth() ClusterHealth
}

// SSEStats counts continuous-query streaming.
type SSEStats struct {
	Streams uint64 `json:"streams"`
	Active  int64  `json:"active"`
	Rounds  uint64 `json:"rounds"`
}

// Snapshot assembles the current counters.
func (s *Server) Snapshot() Stats {
	cs := s.cache.Stats()
	var cluster *ClusterHealth
	if src, ok := s.eng.(ClusterHealthSource); ok {
		ch := src.ClusterHealth()
		cluster = &ch
	}
	return Stats{
		Scenario:      s.cfg.Scenario,
		Cluster:       cluster,
		UptimeSeconds: time.Since(s.start).Seconds(),
		VirtualNow:    s.eng.Now().String(),
		Queries:       s.queries.Load(),
		Errors:        s.errored.Load(),
		Inflight:      s.inflight.Load(),
		Cache:         cs,
		CacheHitRatio: cs.HitRatio(),
		Admit:         s.admit.snapshot(),
		SSE: SSEStats{
			Streams: s.streams.Load(),
			Active:  s.sseActive.Load(),
			Rounds:  s.sseRounds.Load(),
		},
	}
}

func (s *Server) handleStatsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(s.Snapshot())
}

// handleMetricsz renders the unified registry in Prometheus text
// exposition format.
func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}
