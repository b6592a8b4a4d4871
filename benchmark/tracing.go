package main

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"

	"presto/internal/cluster"
	"presto/internal/core"
	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// The seams a traced pass supplies. All three sit outside the program:
// an http.Handler around srv.Handler(), an engine around SubmitSpec and
// a cluster.Transport on the coordinator's side. A timed pass installs
// none of them.

// opTrace rides a context from the op's root span down to the engine
// wrapper: which trace the next span belongs to and which span caused it.
type opTrace struct {
	trace, parent uint64
	kind          string
}

type opTraceKey struct{}

func withOpTrace(ctx context.Context, t opTrace) context.Context {
	return context.WithValue(ctx, opTraceKey{}, t)
}

// Headers that carry an op's trace from the HTTP client to the handler
// middleware.
const (
	hdrTrace  = "X-Bench-Trace"
	hdrParent = "X-Bench-Parent"
	hdrKind   = "X-Bench-Kind"
)

// handlerSpans records one serve.handler span per traced request and
// hands the trace on through r.Context().
func handlerSpans(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		trace, _ := strconv.ParseUint(r.Header.Get(hdrTrace), 10, 64)
		if trace == 0 {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(hdrParent), 10, 64)
		kind := r.Header.Get(hdrKind)
		id := rec.id()
		start := rec.now()
		next.ServeHTTP(w, r.WithContext(withOpTrace(r.Context(), opTrace{trace, id, kind})))
		rec.add(span{Trace: trace, Span: id, Parent: parent, Name: spanHandler, StartNS: start, EndNS: rec.now(), OpKind: kind})
	})
}

// engine is what both core.Network and cluster.Coordinator are to the
// harness and to serve.Server.
type engine interface {
	core.SpecSubmitter
	Now() simtime.Time
	RegisterMetrics(reg *obs.Registry)
}

// engineSpans wraps an engine's SubmitSpec in a core.submit span that
// ends when the one-shot result arrives. With routes on it also attaches
// the program's own obs.Trace and tallies the per-mote route mix — kept
// to a separate pass, because a traced single-mote NOW takes the scatter
// path instead of the replica fast path and would change the simulation.
type engineSpans struct {
	inner engine
	rec   *recorder

	routes     atomic.Bool
	routeCount [16]atomic.Uint64 // indexed by obs.RouteKind
}

func (e *engineSpans) Now() simtime.Time                 { return e.inner.Now() }
func (e *engineSpans) RegisterMetrics(reg *obs.Registry) { e.inner.RegisterMetrics(reg) }

func (e *engineSpans) SubmitSpec(ctx context.Context, spec query.Spec) (<-chan query.SetResult, error) {
	ot, traced := ctx.Value(opTraceKey{}).(opTrace)
	if !traced || spec.Continuous != nil {
		return e.inner.SubmitSpec(ctx, spec)
	}
	var tr *obs.Trace
	if e.routes.Load() {
		tr = obs.NewTrace()
		ctx = obs.WithTrace(ctx, tr)
	}
	id := e.rec.id()
	start := e.rec.now()
	in, err := e.inner.SubmitSpec(ctx, spec)
	if err != nil {
		return nil, err
	}
	out := make(chan query.SetResult, 1)
	go func() {
		defer close(out)
		res, ok := <-in
		e.rec.add(span{Trace: ot.trace, Span: id, Parent: ot.parent, Name: spanSubmit, StartNS: start, EndNS: e.rec.now(), OpKind: ot.kind})
		for _, rt := range tr.Routes() {
			if int(rt.Kind) < len(e.routeCount) {
				e.routeCount[rt.Kind].Add(1)
			}
		}
		if ok {
			out <- res
		}
	}()
	return out, nil
}

// transportSpans wraps the coordinator's side of a cluster.Transport:
// every accepted Conn times scatter-frame-sent to partials-frame-received
// per site, and keeps a few frames for the codec probes.
type transportSpans struct {
	cluster.Transport
	rec *recorder

	mu     sync.Mutex
	frames []wire.Frame // captured scatter and partials frames (payloads copied)
}

func (t *transportSpans) Listen(addr string) (cluster.Listener, error) {
	l, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &listenerSpans{Listener: l, t: t}, nil
}

type listenerSpans struct {
	cluster.Listener
	t *transportSpans
}

func (l *listenerSpans) Accept() (cluster.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &connSpans{Conn: c, t: l.t, sent: map[uint64]int64{}}, nil
}

type connSpans struct {
	cluster.Conn
	t *transportSpans

	mu   sync.Mutex
	sent map[uint64]int64 // scatter seq -> send instant
}

// capturedFrames bounds how many frames the codec probes replay.
const capturedFrames = 64

func (c *connSpans) capture(f wire.Frame) {
	c.t.mu.Lock()
	if len(c.t.frames) < capturedFrames {
		f.Payload = append([]byte(nil), f.Payload...)
		c.t.frames = append(c.t.frames, f)
	}
	c.t.mu.Unlock()
}

func (c *connSpans) Send(f wire.Frame) error {
	if f.Kind == wire.FrameScatter || f.Kind == wire.FrameScatterBatch {
		c.capture(f)
		c.mu.Lock()
		c.sent[f.Seq] = c.t.rec.now()
		c.mu.Unlock()
	}
	return c.Conn.Send(f)
}

func (c *connSpans) Recv() (wire.Frame, error) {
	f, err := c.Conn.Recv()
	if err == nil && (f.Kind == wire.FramePartials || f.Kind == wire.FramePartialsBatch) {
		end := c.t.rec.now()
		c.capture(f)
		c.mu.Lock()
		start, ok := c.sent[f.Seq]
		delete(c.sent, f.Seq)
		c.mu.Unlock()
		if ok {
			// No trace yet: the frame does not say which op it serves.
			// adoptOrphans parents it under the core.submit span containing it.
			c.t.rec.add(span{Span: c.t.rec.id(), Name: spanSiteRTT, StartNS: start, EndNS: end})
		}
	}
	return f, err
}
