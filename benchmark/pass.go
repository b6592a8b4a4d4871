package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"presto/internal/core"
	"presto/internal/query"
	"presto/internal/simtime"
)

// passConfig says when a pass stops and what it records besides
// latencies.
type passConfig struct {
	// A timed pass runs until deadline has passed and markOps ops are
	// done; a fixed pass (fixedOps > 0) runs exactly that many query ops.
	deadline time.Duration
	markOps  int
	fixedOps int
	clients  int // HTTP clients (engine-direct passes always use one)

	spans  bool // record root spans (the seams record theirs when installed)
	digest bool // fold every answer into answers_sha256
	// twin, when set, is a single-process build of the same deployment
	// advanced and queried in lockstep; every AGG must match it exactly.
	twin *core.Network
}

// passResult is what one pass measured. Latencies are client-observed
// wall milliseconds over query ops only; a failed op has none.
type passResult struct {
	attempted, failed int // query ops plus due continuous rounds
	queryOps          int
	firstFailure      string

	// events is everything the pass timed, in completion order per
	// client: query ops, clock steps and waits for due rounds.
	events  []event
	twinLat []float64
	mallocs uint64

	liveHeapMB float64

	// Simulated quantities, exact for a fixed single-client schedule.
	answers       int       // per-mote answers delivered
	virtLat       []float64 // simulated ms per NOW/PAST per-mote answer
	entries       int       // NOW/PAST entries checked against ground truth
	violations    int       // entries farther from the truth than their bound
	roundsDue     int
	roundsOK      int
	hits, lookups int // serve cache, from X-Presto-Cache
	siteErrs      int // ops a cluster site could not contribute to

	digest string
}

// event is one timed interval of a pass, kept to 16 bytes: a timed pass
// holds hundreds of thousands of them.
type event struct {
	end time.Duration // since the pass began
	ms  float32       // wall milliseconds (7 significant digits)
	// answered counts the ops this interval answered: 1 for a good query
	// op, the rounds delivered for a wait, 0 for a clock step or a failure.
	answered uint16
	kind     eventKind
}

func newEvent(kind eventKind, start time.Time, dur time.Duration) event {
	return event{kind: kind, end: time.Since(start), ms: float32(float64(dur) / 1e6)}
}

type eventKind uint8

const (
	evOp   eventKind = iota // a query op, client-observed
	evStep                  // one clock step
	evWait                  // waiting for the rounds a step made due
)

// durations returns the wall milliseconds of the answered events of one
// kind: latencies of good query ops, or clock steps.
func (r *passResult) durations(kind eventKind) []float64 {
	var out []float64
	for _, e := range r.events {
		if e.kind == kind && (kind != evOp || e.answered > 0) {
			out = append(out, float64(e.ms))
		}
	}
	return out
}

// windowed splits the pass into n equal windows of wall time and returns
// the median window's throughput, median latency and 99th-percentile
// latency. A burst of machine noise spoils the windows it falls in, not
// the run: the median window is what the system does when left alone.
// Throughput is answered ops over wall time when several clients share
// the clock (wallClock), and over the time spent in ops, steps and waits
// for a single engine-direct client — the harness's own checking is not
// the system's.
func (r *passResult) windowed(n int, wallClock bool) (opsPerS, p50ms, p99ms float64) {
	var span time.Duration
	for _, e := range r.events {
		span = max(span, e.end)
	}
	if span == 0 {
		return 0, 0, 0
	}
	width := span/time.Duration(n) + 1
	answered := make([]int, n)
	busyMS := make([]float64, n)
	lats := make([][]float64, n)
	for _, e := range r.events {
		w := int(e.end / width)
		answered[w] += int(e.answered)
		busyMS[w] += float64(e.ms)
		if e.kind == evOp && e.answered > 0 {
			lats[w] = append(lats[w], float64(e.ms))
		}
	}
	var rates, p50s, p99s []float64
	for w := 0; w < n; w++ {
		if len(lats[w]) == 0 {
			continue
		}
		over := busyMS[w] / 1e3
		if wallClock {
			over = width.Seconds()
		}
		rates = append(rates, float64(answered[w])/over)
		p50s = append(p50s, percentile(lats[w], 0.50))
		p99s = append(p99s, percentile(lats[w], 0.99))
	}
	return median(rates), median(p50s), median(p99s)
}

func (r *passResult) fail(format string, args ...any) {
	r.failed++
	if r.firstFailure == "" {
		r.firstFailure = fmt.Sprintf(format, args...)
	}
}

// merge folds another client's share of a pass into r.
func (r *passResult) merge(o *passResult) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.queryOps += o.queryOps
	if r.firstFailure == "" {
		r.firstFailure = o.firstFailure
	}
	r.events = append(r.events, o.events...)
	r.answers += o.answers
	r.virtLat = append(r.virtLat, o.virtLat...)
	r.entries += o.entries
	r.violations += o.violations
	r.hits += o.hits
	r.siteErrs += o.siteErrs
	r.lookups += o.lookups
	if o.liveHeapMB > 0 {
		r.liveHeapMB = o.liveHeapMB
	}
}

// eventBuffer is the capacity each client's event log starts with; the
// live-heap reading takes the logs back out, so the harness's own memory
// does not dilute the deployment's.
const eventBuffer = 1 << 18

// liveHeap forces a collection and reads the bytes of live heap objects,
// less the harness's event logs (clients of them, at their starting
// capacity). It reads HeapAlloc, not HeapInuse: in-use spans count their
// free slots too, which moves by a tenth from run to run on the same
// live set.
func liveHeap(clients int) float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	logs := uint64(clients) * eventBuffer * uint64(unsafe.Sizeof(event{}))
	return float64(m.HeapAlloc-min(logs, m.HeapAlloc)) / (1 << 20)
}

// wireQuantum is how far a value may move when it crosses the radio as
// a float32: the oracle allows it on top of the reported bound.
const wireQuantum = 2e-3

// checker validates answers, feeds the bound oracle and, when asked,
// folds every answer into a digest.
type checker struct {
	in  *instance
	res *passResult
	h   hash.Hash // nil: no digest
	// simulated keeps every per-mote answer's simulated latency (fixed
	// passes only: a timed pass would grow the log for its whole length).
	simulated bool
	buf       [8]byte
}

func (c *checker) u64(v uint64) {
	binary.LittleEndian.PutUint64(c.buf[:], v)
	c.h.Write(c.buf[:])
}

func (c *checker) f64(v float64) { c.u64(math.Float64bits(v)) }

// check judges one answered op. It reports whether the answer is good;
// a bad one has already been counted as failed.
func (c *checker) check(o op, spec query.Spec, res query.SetResult, err error) bool {
	r := c.res
	switch {
	case err != nil:
		r.fail("%s: %v", o.Kind, err)
		return false
	case res.Err != nil:
		r.fail("%s: answer error: %v", o.Kind, res.Err)
		return false
	case res.Failed != 0 || len(res.SiteErrs) != 0:
		if len(res.SiteErrs) != 0 {
			r.siteErrs++
		}
		r.fail("%s: %d motes failed, %d site errors", o.Kind, res.Failed, len(res.SiteErrs))
		return false
	}
	want := len(spec.Select.Motes)
	if want == 0 {
		want = c.in.sc.Spec.Deployment.Motes()
	}
	if spec.Type == query.Agg {
		if res.Count == 0 || math.IsNaN(res.Value) || math.IsInf(res.Value, 0) || res.ErrBound < 0 {
			r.fail("%s: unusable aggregate %v±%v over %d", o.Kind, res.Value, res.ErrBound, res.Count)
			return false
		}
		r.answers += want
		if c.h != nil {
			c.f64(res.Value)
			c.f64(res.ErrBound)
			c.u64(uint64(res.Count))
		}
		return true
	}
	if len(res.Results) != want {
		r.fail("%s: %d per-mote results for %d motes", o.Kind, len(res.Results), want)
		return false
	}
	for _, pm := range res.Results {
		if len(pm.Answer.Entries) == 0 {
			r.fail("%s: mote %d answered with no entries", o.Kind, pm.Query.Mote)
			return false
		}
		r.answers++
		if c.simulated {
			r.virtLat = append(r.virtLat, float64(pm.Latency())/1e6)
		}
		if c.h != nil {
			c.u64(uint64(pm.Query.Mote))
			c.u64(uint64(pm.Answer.Source))
			c.u64(uint64(pm.Latency()))
		}
		for _, e := range pm.Answer.Entries {
			if math.IsNaN(e.V) || math.IsInf(e.V, 0) || e.ErrBound < 0 {
				r.fail("%s: mote %d entry %v±%v", o.Kind, pm.Query.Mote, e.V, e.ErrBound)
				return false
			}
			truth, terr := c.in.local().Truth(pm.Query.Mote, e.T)
			if terr != nil {
				r.fail("%s: %v", o.Kind, terr)
				return false
			}
			r.entries++
			if math.Abs(e.V-truth) > e.ErrBound+wireQuantum {
				r.violations++
			}
			if c.h != nil {
				c.u64(uint64(e.T))
				c.f64(e.V)
				c.f64(e.ErrBound)
				c.u64(uint64(e.Source))
			}
		}
	}
	return true
}

// achieved is the worst error bound an answer carries.
func achieved(res query.SetResult) float64 {
	worst := res.ErrBound
	for _, pm := range res.Results {
		for _, e := range pm.Answer.Entries {
			worst = max(worst, e.ErrBound)
		}
	}
	return worst
}

// foldCounters folds the deployment's simulated counters into the digest, so
// a later change can show the whole simulation — not only the answers —
// is bit-identical.
func (c *checker) foldCounters() {
	n := c.in.local()
	ps := n.ProxyStats()
	for _, v := range []uint64{ps.PushesReceived, ps.BatchesReceived, ps.EventsReceived, ps.PullsIssued,
		ps.PullsCoalesced, ps.PullsQueued, ps.PullsTimedOut, ps.StalenessPulls, ps.QueriesAnswered} {
		c.u64(v)
	}
	for _, v := range ps.AnswersBySource {
		c.u64(v)
	}
	ss := n.StoreStats()
	for _, v := range []uint64{ss.Routed, ss.ReplicaRouted, ss.ReplicaStale, ss.ArchiveServed, ss.ArchiveStale} {
		c.u64(v)
	}
	bs := n.StoreBackendStats()
	for _, v := range []uint64{bs.Appends, bs.Records, bs.PagesWritten, bs.PagesRead, bs.RecordsScanned,
		bs.RecordsMatched, bs.Compactions, bs.Coarsened, bs.WaveletChunks, bs.Dropped} {
		c.u64(v)
	}
	em := n.TotalMoteEnergy()
	c.f64(em.Total())
}

// runPass drives the instance's schedule under cfg.
func (in *instance) runPass(ctx context.Context, cfg passConfig) (*passResult, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var res *passResult
	var err error
	clients := 1
	if in.w.HTTP {
		clients = cfg.clients
		res, err = in.httpPass(ctx, cfg)
	} else {
		res, err = in.enginePass(ctx, cfg)
	}
	if err != nil {
		return nil, err
	}
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	if res.liveHeapMB == 0 {
		res.liveHeapMB = liveHeap(clients)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// Engine-direct: one client, the harness owns the clock.

// roundWait bounds how long the harness waits for a continuous round
// that fell due in the step it just advanced.
const roundWait = 5 * time.Second

func (in *instance) enginePass(ctx context.Context, cfg passConfig) (*passResult, error) {
	res := &passResult{events: make([]event, 0, eventBuffer)}
	ck := &checker{in: in, res: res, simulated: cfg.fixedOps > 0}
	if cfg.digest {
		ck.h = sha256.New()
	}
	sched := in.sched
	last := simtime.Time(maxDays-1) * simtime.Day
	start := time.Now()
	idx := 0
	for {
		if cfg.fixedOps > 0 {
			if idx >= cfg.fixedOps {
				break
			}
		} else if time.Since(start) >= cfg.deadline && idx >= cfg.markOps {
			break
		}
		if in.vnow+simtime.Time(step) > last {
			if idx < max(cfg.fixedOps, cfg.markOps) {
				return nil, fmt.Errorf("%s: ran out of trace after %d ops", in.w.Name, idx)
			}
			break // a fast run reached the end of the generated traces
		}

		t0 := time.Now()
		var s0 int64
		if cfg.spans {
			s0 = in.rec.now()
		}
		if err := in.advance(ctx); err != nil {
			return nil, err
		}
		res.events = append(res.events, newEvent(evStep, start, time.Since(t0)))
		if cfg.spans {
			id := in.rec.id()
			in.rec.add(span{Trace: id, Span: id, Name: spanAdvance, StartNS: s0, EndNS: in.rec.now(), OpKind: "step"})
		}
		if cfg.twin != nil {
			cfg.twin.Run(step)
		}
		if len(in.streams) > 0 {
			t0 := time.Now()
			delivered := in.collectRounds(ctx, ck)
			ev := newEvent(evWait, start, time.Since(t0))
			ev.answered = uint16(delivered)
			res.events = append(res.events, ev)
		}

		for k := 0; k < sched.PerStep; k++ {
			o := sched.Ops[idx%len(sched.Ops)]
			idx++
			spec := o.bind(in.vnow)
			opCtx := ctx
			var root uint64
			if cfg.spans {
				root = in.rec.id()
				opCtx = withOpTrace(ctx, opTrace{root, root, o.Kind})
				s0 = in.rec.now()
			}
			t0 := time.Now()
			ans, err := in.cl.QueryOne(opCtx, spec)
			d := time.Since(t0)
			if cfg.spans {
				in.rec.add(span{Trace: root, Span: root, Name: spanOp, StartNS: s0, EndNS: in.rec.now(), OpKind: o.Kind})
			}
			res.attempted++
			res.queryOps++
			ev := newEvent(evOp, start, d)
			if ck.check(o, spec, ans, err) {
				ev.answered = 1
			}
			res.events = append(res.events, ev)
			if cfg.twin != nil && err == nil {
				t0 := time.Now()
				ref, rerr := cfg.twin.Client().QueryOne(ctx, spec)
				res.twinLat = append(res.twinLat, float64(time.Since(t0))/1e6)
				if rerr != nil || (spec.Type == query.Agg &&
					(ref.Value != ans.Value || ref.ErrBound != ans.ErrBound || ref.Count != ans.Count)) {
					res.fail("%s: cluster %v±%v/%d differs from single-process twin %v±%v/%d (%v)",
						o.Kind, ans.Value, ans.ErrBound, ans.Count, ref.Value, ref.ErrBound, ref.Count, rerr)
				}
			}
			if cfg.fixedOps == 0 && idx == cfg.markOps {
				res.liveHeapMB = liveHeap(1)
			}
		}
	}
	if ck.h != nil {
		ck.foldCounters()
		res.digest = hex.EncodeToString(ck.h.Sum(nil))
	}
	return res, nil
}

// collectRounds takes the round each standing spec owes for the step
// just advanced. Every due round is an attempted op; a missing, late or
// out-of-order one is a failed op. It returns how many were good.
func (in *instance) collectRounds(ctx context.Context, ck *checker) int {
	res := ck.res
	good := 0
	for i, st := range in.streams {
		res.attempted++
		res.roundsDue++
		wctx, cancel := context.WithTimeout(ctx, roundWait)
		round, ok := st.Next(wctx)
		cancel()
		switch {
		case !ok:
			res.fail("standing spec %d: round %d not delivered", i, in.nextSeq[i])
			continue
		case round.Seq != in.nextSeq[i]:
			res.fail("standing spec %d: round %d delivered when %d was due", i, round.Seq, in.nextSeq[i])
			in.nextSeq[i] = round.Seq + 1
			continue
		}
		in.nextSeq[i]++
		spec := in.sched.Standing[i]
		spec.Continuous = nil
		if ck.check(op{Kind: "round"}, spec, round, nil) {
			good++
		}
	}
	res.roundsOK += good
	return good
}

// ---------------------------------------------------------------------------
// HTTP: keep-alive clients against a real listener, clock parked.

// httpClient is one closed-loop caller with its own connection.
type httpClient struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newHTTPClient() *httpClient {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &httpClient{hc: &http.Client{Transport: tr}}
}

func (c *httpClient) close() { c.hc.CloseIdleConnections() }

// post sends one spec body and returns the status, the cache verdict and
// the response body (valid until the next post).
func (c *httpClient) post(ctx context.Context, url string, body []byte, ot opTrace) (status int, cache string, resp []byte, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if ot.trace != 0 {
		req.Header.Set(hdrTrace, strconv.FormatUint(ot.trace, 10))
		req.Header.Set(hdrParent, strconv.FormatUint(ot.parent, 10))
		req.Header.Set(hdrKind, ot.kind)
	}
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, "", nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(r.Body)
	r.Body.Close()
	if err != nil {
		return 0, "", nil, err
	}
	return r.StatusCode, r.Header.Get("X-Presto-Cache"), c.buf.Bytes(), nil
}

func bodyHash(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// httpOp poses one op and checks the reply: HTTP 200, a body that
// decodes, a clean answer, and — for an op that must hit what an earlier
// miss planted — the very same answer, within the asked precision.
func (in *instance) httpOp(ctx context.Context, c *httpClient, o op, ck *checker, planted []atomic.Uint64, spans bool, start time.Time) {
	res := ck.res
	var ot opTrace
	var s0 int64
	if spans {
		root := in.rec.id()
		ot = opTrace{root, root, o.Kind}
		s0 = in.rec.now()
	}
	t0 := time.Now()
	status, cache, body, err := c.post(ctx, in.url, o.Body, ot)
	d := time.Since(t0)
	if spans {
		in.rec.add(span{Trace: ot.trace, Span: ot.trace, Name: spanOp, StartNS: s0, EndNS: in.rec.now(), OpKind: o.Kind})
	}
	res.attempted++
	res.queryOps++
	res.events = append(res.events, newEvent(evOp, start, d))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
	}
	var ans query.SetResult
	if err == nil {
		ans, err = query.DecodeSetResultJSON(body)
	}
	if !ck.check(o, o.Spec, ans, err) {
		return
	}
	res.lookups++
	if cache == "hit" {
		res.hits++
	}
	if o.Plants >= 0 {
		sum := bodyHash(body)
		switch {
		case cache != "hit":
			planted[o.Plants].Store(sum) // a miss plants (or re-plants) the entry
		case planted[o.Plants].Load() != sum:
			res.fail("%s: hit differs from the answer its miss planted", o.Kind)
			return
		case achieved(ans) > o.Spec.Precision:
			res.fail("%s: hit with bound %v for asked precision %v", o.Kind, achieved(ans), o.Spec.Precision)
			return
		}
	}
	res.events[len(res.events)-1].answered = 1
}

// warmUp poses the schedule's warm-up ops once, through the same front
// door as the timed ops: serve_hot plants every answer, fleet_scatter
// fills the cache to capacity.
func (in *instance) warmUp(ctx context.Context) error {
	if len(in.sched.Warm) == 0 {
		return nil
	}
	res := &passResult{}
	ck := &checker{in: in, res: res}
	c := newHTTPClient()
	defer c.close()
	in.planted = make([]atomic.Uint64, len(in.sched.Ops))
	for _, o := range in.sched.Warm {
		in.httpOp(ctx, c, o, ck, in.planted, false, time.Now())
	}
	if res.failed != 0 {
		return fmt.Errorf("%d of %d ops failed: %s", res.failed, res.attempted, res.firstFailure)
	}
	return nil
}

func (in *instance) httpPass(ctx context.Context, cfg passConfig) (*passResult, error) {
	for len(in.clients) < cfg.clients {
		in.clients = append(in.clients, newHTTPClient())
	}
	sched := in.sched
	var next atomic.Int64
	start := time.Now()
	parts := make([]*passResult, cfg.clients)
	// One hash cannot be shared: digests are only taken at one client.
	if cfg.digest && cfg.clients != 1 {
		return nil, fmt.Errorf("%s: an answer digest needs a single client", in.w.Name)
	}
	var sum hash.Hash
	if cfg.digest {
		sum = sha256.New()
	}
	// The client that reaches the heap mark takes the gate exclusively:
	// the others finish the op they are in and wait, so the heap is read
	// with no op in flight.
	var gate sync.RWMutex
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.clients; ci++ {
		res := &passResult{events: make([]event, 0, eventBuffer)}
		parts[ci] = res
		ck := &checker{in: in, res: res, h: sum, simulated: cfg.fixedOps > 0}
		c := in.clients[ci]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if cfg.fixedOps > 0 {
					if i >= cfg.fixedOps {
						return
					}
				} else if time.Since(start) >= cfg.deadline && i >= cfg.markOps {
					return
				}
				gate.RLock()
				in.httpOp(ctx, c, sched.Ops[i%len(sched.Ops)], ck, in.planted, cfg.spans, start)
				gate.RUnlock()
				if cfg.fixedOps == 0 && i+1 == cfg.markOps {
					gate.Lock()
					res.liveHeapMB = liveHeap(cfg.clients)
					gate.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res := parts[0]
	for _, p := range parts[1:] {
		res.merge(p)
	}
	if sum != nil {
		ck := &checker{in: in, res: res, h: sum}
		ck.foldCounters()
		res.digest = hex.EncodeToString(sum.Sum(nil))
	}
	return res, nil
}
