package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"runtime"
	"time"

	"presto/internal/core"
	"presto/internal/gen"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/scenario"
	"presto/internal/serve"
	"presto/internal/simtime"
	"presto/internal/store"
	"presto/internal/wire"
)

// Direct probes: a layer's public function called in a loop on inputs
// captured from the workload. They run after the traced pass, on the
// workloads whose rows in the README name them.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink any

// measure calls fn n times and returns mean nanoseconds and mean heap
// allocations per call. The harness is otherwise idle while it runs.
func measure(n int, fn func(i int)) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// probes adds the workload's direct-probe metrics to v.
func (in *instance) probes(ctx context.Context, v map[string]float64, quick bool) error {
	n := 2000
	if quick {
		n = 100
	}
	v["gen.traces_ms"] = in.probeTraces()
	switch in.w.Name {
	case wServeHot:
		pairs, err := in.capture(ctx, 64)
		if err != nil {
			return err
		}
		in.probeCodecs(v, pairs, n)
		in.probeCacheLookup(v, pairs, n)
		probeCacheInsert(v, pairs, n)
		in.probeHandlerHit(v, n)
	case wFleetScatter:
		pairs, err := in.capture(ctx, 48)
		if err != nil {
			return err
		}
		in.probeCodecs(v, pairs, n)
		probeCacheInsert(v, pairs, n) // every lookup here is a miss: the hit path is serve_hot's
		if err := in.probeScatter(ctx, v, n/20); err != nil {
			return err
		}
	case wFlashAging:
		return in.probeFlash(v, quick)
	case wLiveMixed:
		return in.probeRounds(ctx, v, n/100)
	case wCluster2Site:
		return in.probeCluster(ctx, v, n)
	}
	return nil
}

// probeTraces times trace synthesis alone, on the generator scenario
// used for this deployment.
func (in *instance) probeTraces() float64 {
	d := in.sc.Spec.Deployment
	c := gen.DefaultTempConfig()
	c.Sensors, c.Days, c.Seed = d.Motes(), d.Days, in.sc.Spec.Seed
	t0 := time.Now()
	trs, err := gen.Temperature(c)
	if err != nil {
		return 0
	}
	sink = trs
	return float64(time.Since(t0)) / 1e6
}

// captured is one op's spec with the answer the engine gave it.
type captured struct {
	spec query.Spec
	body []byte
	res  query.SetResult
}

// capture poses the first n distinct ops of the schedule straight at the
// engine and keeps the answers as probe inputs.
func (in *instance) capture(ctx context.Context, n int) ([]captured, error) {
	var out []captured
	for i := 0; len(out) < n && i < len(in.sched.Ops); i += 2 { // serve_hot: tight asks only
		o := in.sched.Ops[i]
		res, err := in.net.Client().QueryOne(ctx, o.Spec)
		if err != nil {
			return nil, fmt.Errorf("%s: capture: %w", in.w.Name, err)
		}
		out = append(out, captured{o.Spec, o.Body, res})
	}
	return out, nil
}

func (in *instance) probeCodecs(v map[string]float64, pairs []captured, n int) {
	v["query.decode_spec_ns"], v["query.decode_spec_allocs"] = measure(n, func(i int) {
		s, err := query.DecodeSpecJSON(pairs[i%len(pairs)].body)
		if err != nil {
			panic(err)
		}
		sink = s
	})
	v["query.encode_result_ns"], v["query.encode_result_allocs"] = measure(n, func(i int) {
		b, err := query.EncodeSetResultJSON(pairs[i%len(pairs)].res)
		if err != nil {
			panic(err)
		}
		sink = b
	})
}

// probeCacheLookup times semantic-cache lookups that hit, on a cache
// holding every captured answer.
func (in *instance) probeCacheLookup(v map[string]float64, pairs []captured, n int) {
	now := in.net.Now()
	full := serve.NewAnswerCache(serve.CacheConfig{})
	for _, p := range pairs {
		full.Insert(p.spec, p.res)
	}
	v["serve.cache_lookup_ns"], _ = measure(n, func(i int) {
		res, ok := full.Lookup(pairs[i%len(pairs)].spec, now)
		if !ok {
			panic("probe: cache lookup missed an inserted answer")
		}
		sink = res
	})
}

// probeCacheInsert times inserts into a cache half the size of the key
// set, so each insert evicts.
func probeCacheInsert(v map[string]float64, pairs []captured, n int) {
	small := serve.NewAnswerCache(serve.CacheConfig{MaxEntries: len(pairs) / 2})
	v["serve.cache_insert_ns"], _ = measure(n, func(i int) {
		p := pairs[i%len(pairs)]
		small.Insert(p.spec, p.res)
	})
}

// probeHandlerHit counts what one cached answer allocates inside
// ServeHTTP, net of the recorder and request the probe itself builds.
func (in *instance) probeHandlerHit(v map[string]float64, n int) {
	h := in.srv.Handler()
	ops := in.sched.Ops
	_, base := measure(n, func(i int) {
		sink = httptest.NewRecorder()
		sink = httptest.NewRequest("POST", "/v1/query", bytes.NewReader(ops[i%len(ops)].Body))
	})
	_, with := measure(n, func(i int) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/query", bytes.NewReader(ops[i%len(ops)].Body)))
		if rec.Code != 200 || rec.Header().Get("X-Presto-Cache") != "hit" {
			panic(fmt.Sprintf("probe: handler answered %d cache=%q", rec.Code, rec.Header().Get("X-Presto-Cache")))
		}
	})
	v["serve.handler_hit_allocs"] = with - base
}

// probeScatter times the in-process scatter path on the three target
// shapes, the merge stage on real partials, and the same fleet AGG on a
// one-domain build of the same data.
func (in *instance) probeScatter(ctx context.Context, v map[string]float64, n int) error {
	n = max(n, 6)
	shapes := in.sched.Ops[:3] // fleet, one domain, spread
	all := in.net.MoteIDs()
	var gather []float64
	var parts []query.RoundPartial
	for i := 0; i < n; i++ {
		s := shapes[i%3].Spec
		t0 := time.Now()
		p, err := in.net.GatherLocal(s, s.Select.Resolve(all))
		if err != nil {
			return err
		}
		gather = append(gather, float64(time.Since(t0))/1e6)
		if i%3 == 0 {
			parts = p
		}
	}
	v["core.gather_local_ms_p50"] = p50(gather)
	cl := in.net.Client()
	_, v["core.queryone_allocs"] = measure(n, func(i int) {
		res, err := cl.QueryOne(ctx, shapes[i%3].Spec)
		if err != nil {
			panic(err)
		}
		sink = res
	})
	fleet := shapes[0].Spec
	scratch := make([]query.RoundPartial, len(parts))
	v["query.merge_rounds_ns"], _ = measure(50*n, func(int) {
		copy(scratch, parts)
		sink = query.MergeRounds(fleet, 0, 0, scratch)
	})

	// The same deployment as one domain: same seed, same traces.
	spec := in.sc.Spec
	spec.Deployment.Shards = 1
	one, err := buildParked(spec, in.w.warm)
	if err != nil {
		return err
	}
	defer one.Close()
	rate := func(net *core.Network) float64 {
		cl := net.Client()
		ns, _ := measure(n, func(int) {
			res, err := cl.QueryOne(ctx, fleet)
			if err != nil || res.Err != nil || res.Failed != 0 {
				panic(fmt.Sprintf("probe: fleet AGG failed: %v %v", err, res.Err))
			}
		})
		return 1e9 / ns
	}
	v["core.shard_speedup"] = ratio(rate(in.net), rate(one))
	return nil
}

// buildParked builds a single-process deployment of spec, starts its
// motes and advances it d in one run.
func buildParked(spec scenario.Spec, d time.Duration) (*core.Network, error) {
	sc, err := scenario.Generate(spec)
	if err != nil {
		return nil, err
	}
	n, err := core.Build(sc.Config)
	if err != nil {
		return nil, err
	}
	n.Start()
	n.Run(d)
	return n, nil
}

// probeFlash drives a standalone flash backend with one domain's record
// stream — same geometry, same policy, four days of one-minute samples
// from this deployment's own traces — and times appends and range reads
// over the newest (raw) and oldest (aged) hours.
func (in *instance) probeFlash(v map[string]float64, quick bool) error {
	pol, err := store.ParseAgingPolicy(in.sc.Config.StoreAging)
	if err != nil {
		return err
	}
	bk, err := store.NewFlashBackendPolicy(flashGeometry, pol)
	if err != nil {
		return err
	}
	d := in.sc.Spec.Deployment
	motes := d.Motes() / d.Shards
	minutes := 4 * 24 * 60
	if quick {
		minutes /= 4
	}
	traces := in.sc.Config.Traces[:motes]
	v["store.append_ns"], _ = measure(minutes*motes, func(i int) {
		m, t := i%motes, simtime.Time(i/motes)*simtime.Minute
		if err := bk.Append(radio.NodeID(1+m), store.Record{T: t, V: traces[m].Value(t)}); err != nil {
			panic(err)
		}
	})
	if st := bk.Stats(); st.Dropped != 0 {
		return fmt.Errorf("flash probe: %d records dropped", st.Dropped)
	}
	end := simtime.Time(minutes) * simtime.Minute
	read := func(t0 simtime.Time) float64 {
		ns, _ := measure(200, func(i int) {
			recs, err := bk.QueryRange(radio.NodeID(1+i%motes), t0, t0+2*simtime.Hour)
			if err != nil {
				panic(err)
			}
			sink = recs
		})
		return ns / 1e3
	}
	v["store.query_range_recent_us"] = read(end - 2*simtime.Hour)
	v["store.query_range_aged_us"] = read(simtime.Hour)
	return nil
}

// probeRounds prices a delivered continuous round in allocations: the
// same clock steps with the standing specs closed, then open again.
func (in *instance) probeRounds(ctx context.Context, v map[string]float64, steps int) error {
	steps = max(steps, 4)
	for _, st := range in.streams {
		st.Close()
	}
	in.streams = nil
	run := func(streams []*core.ResultStream) (float64, error) {
		var stepErr error
		_, allocs := measure(steps, func(int) {
			if err := in.advance(ctx); err != nil {
				stepErr = err
			}
			for _, st := range streams {
				if _, ok := <-st.Results(); !ok {
					stepErr = fmt.Errorf("probe: standing stream closed")
				}
			}
		})
		return allocs, stepErr
	}
	bare, err := run(nil)
	if err != nil {
		return err
	}
	for _, sp := range in.sched.Standing {
		st, err := in.cl.Query(ctx, sp)
		if err != nil {
			return err
		}
		in.streams = append(in.streams, st)
	}
	with, err := run(in.streams)
	if err != nil {
		return err
	}
	v["core.round_allocs"] = (with - bare) / float64(len(in.streams))
	return nil
}

// probeCluster times the binary codecs on real inputs — a fleet scatter
// and the partials a site would answer it with, and the frames the
// transport wrapper captured — then one domain snapshot and one
// migration there and back.
func (in *instance) probeCluster(ctx context.Context, v map[string]float64, n int) error {
	co := in.co
	spec := in.sched.Ops[0].Spec.BindWindow(in.vnow)
	local := co.Network().MoteIDs()
	parts, err := co.Network().GatherLocal(spec, local)
	if err != nil {
		return err
	}
	v["query.scatter_codec_ns"], _ = measure(n, func(int) {
		buf := query.EncodeScatter(spec, local)
		if _, _, _, err := query.DecodeScatter(buf); err != nil {
			panic(err)
		}
		got, err := query.DecodeRoundPartials(spec, query.EncodeRoundPartials(parts))
		if err != nil {
			panic(err)
		}
		sink = got
	})
	if frames := in.conn.frames; len(frames) > 0 {
		v["wire.frame_codec_ns"], _ = measure(n, func(i int) {
			f, err := wire.DecodeFrame(wire.EncodeFrame(frames[i%len(frames)]))
			if err != nil {
				panic(err)
			}
			sink = f
		})
	}

	var blob bytes.Buffer
	t0 := time.Now()
	if err := co.Network().SnapshotDomain(0, &blob); err != nil {
		return err
	}
	v["snap.domain_snapshot_ms"] = float64(time.Since(t0)) / 1e6
	v["snap.domain_bytes"] = float64(blob.Len())

	lastDomain := in.sc.Spec.Deployment.Shards - 1 // hosted by the remote site
	t0 = time.Now()
	if err := co.MigrateDomain(ctx, lastDomain, 0); err != nil {
		return err
	}
	if err := co.MigrateDomain(ctx, lastDomain, 1); err != nil {
		return err
	}
	v["cluster.migrate_ms"] = float64(time.Since(t0)) / 1e6
	return nil
}
