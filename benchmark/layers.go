package main

import (
	"presto/internal/cluster"
	"presto/internal/energy"
	"presto/internal/obs"
	"presto/internal/proxy"
	"presto/internal/serve"
	"presto/internal/store"
	"presto/internal/wire"
)

// flashRecordBytes is what one archived record occupies on the flash
// device (store's record encoding: time, value, bound).
const flashRecordBytes = 20

// counters is one reading of every public stat the layer metrics are
// deltas of.
type counters struct {
	proxy     proxy.Stats
	routing   store.RoutingStats
	backend   store.BackendStats
	submitted uint64
	replica   uint64 // NOW queries the wired replica served
	bypassed  uint64
	energy    energy.Meter
	serve     serve.Stats
	sites     []cluster.ConnStats
}

func (in *instance) readCounters() counters {
	n := in.local()
	c := counters{
		proxy:    n.ProxyStats(),
		routing:  n.StoreStats(),
		backend:  n.StoreBackendStats(),
		bypassed: n.ReplicaBypassed(),
		energy:   n.TotalMoteEnergy(),
	}
	c.submitted, c.replica, _, _ = n.EngineStats()
	if in.srv != nil {
		c.serve = in.srv.Snapshot()
	}
	if in.co != nil {
		c.sites = in.co.SiteStats()
	}
	return c
}

// scatterTraffic is the frames and bytes, both directions, of the kinds
// that carry query rounds (lease traffic is left to lease_step_ms).
func scatterTraffic(sites []cluster.ConnStats) (frames, bytes uint64) {
	for _, s := range sites {
		for _, k := range []wire.FrameKind{wire.FrameScatter, wire.FrameScatterBatch} {
			frames += s.SentKind[k]
			bytes += s.SentKindBytes[k]
		}
		for _, k := range []wire.FrameKind{wire.FramePartials, wire.FramePartialsBatch} {
			frames += s.RecvKind[k]
			bytes += s.RecvKindBytes[k]
		}
	}
	return frames, bytes
}

func p50(xs []float64) float64 { return percentile(xs, 0.50) }
func p99(xs []float64) float64 { return percentile(xs, 0.99) }

// steadyRate is the single-client throughput of the second half of a
// fixed pass — answered ops over the time spent in ops, steps and waits —
// leaving the first half out as warm-up. Trace overhead compares two of
// them: the same prefix untraced and traced.
func steadyRate(r *passResult) float64 {
	var answered, ms float64
	for _, e := range r.events[len(r.events)/2:] {
		answered += float64(e.answered)
		ms += float64(e.ms)
	}
	return ratio(answered, ms/1e3)
}

// layerMetrics turns one traced pass into the per-layer metric values
// that come from counters and spans (probes add theirs afterwards).
// before/after bracket the traced pass tr; ref is the same prefix run
// untraced on a twin set-up.
func (in *instance) layerMetrics(before, after counters, ref, tr *passResult, spans []span) map[string]float64 {
	v := map[string]float64{}
	d := in.sc.Spec.Deployment
	ops := float64(tr.queryOps)
	answers := float64(tr.answers)
	steps := tr.durations(evStep)
	vhours := float64(len(steps)) * step.Hours()
	moteDays := float64(d.Motes()) * vhours / 24

	v["failed_share"] = ratio(float64(tr.failed), float64(tr.attempted))
	v["virt_lat_p99_ms"] = p99(tr.virtLat)
	v["bound_violation_share"] = ratio(float64(tr.violations), float64(tr.entries))
	de := after.energy.Total() - before.energy.Total()
	if in.co == nil { // a coordinator sees only its own window's motes
		if in.w.bootstrap > 0 { // the headline is about model-driven motes
			v["mote_mj_per_answer"] = ratio(de*1e3, answers)
		}
		v["mote.energy_mj_per_mote_day"] = ratio(de*1e3, moteDays)
		v["mote.radio_share"] = ratio(after.energy.Radio()-before.energy.Radio(), de)
	}

	// serve: spans and Snapshot deltas.
	self := selfTimes(spans)
	var handler, handlerSelf, opSelf, submit, submitSelf, rtt []float64
	var rootSelf, rootTotal float64
	for _, s := range spans {
		ms := float64(s.EndNS-s.StartNS) / 1e6
		selfMS := float64(self[s.Span]) / 1e6
		switch s.Name {
		case spanOp:
			opSelf = append(opSelf, selfMS)
			rootSelf += selfMS
			rootTotal += ms
		case spanHandler:
			handler = append(handler, ms)
			handlerSelf = append(handlerSelf, selfMS)
		case spanSubmit:
			submit = append(submit, ms)
			submitSelf = append(submitSelf, selfMS)
		case spanSiteRTT:
			rtt = append(rtt, ms)
		}
	}
	if in.w.HTTP {
		v["serve.handler_ms_p50"] = p50(handler)
		v["serve.self_ms_p50"] = p50(handlerSelf)
		v["serve.http_overhead_ms_p50"] = p50(opSelf)
		sb, sa := before.serve, after.serve
		hits, misses := float64(sa.Cache.Hits-sb.Cache.Hits), float64(sa.Cache.Misses-sb.Cache.Misses)
		v["serve.cache_hit_share"] = ratio(hits, hits+misses)
		v["serve.cache_evictions_per_op"] = ratio(float64(sa.Cache.Evictions-sb.Cache.Evictions), ops)
		v["serve.throttled"] = float64(sa.Admit.Throttled - sb.Admit.Throttled)
	}
	v["core.submit_ms_p50"] = p50(submit)
	v["core.submit_ms_p99"] = p99(submit)
	v["bench.unattributed_share"] = ratio(rootSelf, rootTotal)
	v["bench.trace_overhead_share"] = 1 - ratio(steadyRate(tr), steadyRate(ref))

	// core: clock steps and the replica fast path.
	advMS := sum(steps)
	v["advance_vh_per_s"] = ratio(vhours, advMS/1e3)
	v["advance_p99_ms"] = p99(steps)
	v["core.advance_us_per_mote_hour"] = ratio(advMS*1e3, float64(d.Motes())*vhours)
	v["core.replica_served_share"] = ratio(float64(after.replica-before.replica), float64(after.submitted-before.submitted))
	v["core.replica_bypassed"] = float64(after.bypassed - before.bypassed)
	v["core.rounds_delivered_share"] = ratio(float64(tr.roundsOK), float64(tr.roundsDue))

	// store: routing decisions and the archive device.
	rb, ra := before.routing, after.routing
	routed, served := float64(ra.Routed-rb.Routed), float64(ra.ArchiveServed-rb.ArchiveServed)
	v["store.routed_per_op"] = ratio(routed, ops)
	v["store.archive_served_share"] = ratio(served, served+routed)
	v["store.archive_stale_share"] = ratio(float64(ra.ArchiveStale-rb.ArchiveStale), served+routed)
	v["store.replica_routed_share"] = ratio(float64(ra.ReplicaRouted-rb.ReplicaRouted), float64(ra.ReplicaRouted-rb.ReplicaRouted)+routed)
	bb, ba := before.backend, after.backend
	appends := float64(ba.Appends - bb.Appends)
	written := float64(ba.PagesWritten - bb.PagesWritten)
	v["store.read_amp"] = ratio(float64(ba.RecordsScanned-bb.RecordsScanned), float64(ba.RecordsMatched-bb.RecordsMatched))
	v["store.pages_read_per_op"] = ratio(float64(ba.PagesRead-bb.PagesRead), ops)
	v["store.pages_written_per_krec"] = ratio(written, appends/1e3)
	v["store.compactions"] = float64(ba.Compactions - bb.Compactions)
	v["store.wavelet_chunks"] = float64(ba.WaveletChunks - bb.WaveletChunks)
	v["store.dropped"] = float64(ba.Dropped) // since the deployment was built: must stay 0
	if written > 0 {
		v["write_amp"] = ratio(written*float64(flashGeometry.PageSize), appends*flashRecordBytes)
	}

	// proxy: answer provenance and pulls. Archive-served answers never
	// reach a proxy, so the store's count stands in for that source.
	pb, pa := before.proxy, after.proxy
	proxyAnswers := float64(pa.QueriesAnswered-pb.QueriesAnswered) + served
	for src := proxy.Source(0); int(src) < proxy.NumSources; src++ {
		n := float64(pa.AnswersBySource[src] - pb.AnswersBySource[src])
		if src == proxy.FromArchive {
			n += served
		}
		v["proxy.answers_"+src.String()+"_share"] = ratio(n, proxyAnswers)
	}
	pulls := float64(pa.PullsIssued - pb.PullsIssued)
	joined := float64(pa.PullsCoalesced - pb.PullsCoalesced)
	v["proxy.pulls_per_answer"] = ratio(pulls, proxyAnswers)
	v["proxy.pulls_coalesced_share"] = ratio(joined, pulls+joined+float64(pa.PullsQueued-pb.PullsQueued))
	v["proxy.pulls_timed_out"] = float64(pa.PullsTimedOut - pb.PullsTimedOut)
	v["proxy.staleness_pulls"] = float64(pa.StalenessPulls - pb.StalenessPulls)
	pushes := float64(pa.PushesReceived-pb.PushesReceived) + float64(pa.BatchesReceived-pb.BatchesReceived) +
		float64(pa.EventsReceived-pb.EventsReceived)
	if in.co == nil {
		v["proxy.pushes_per_mote_day"] = ratio(pushes, moteDays)
		v["mote.wakeups_per_answer"] = ratio(pulls, answers)
	}

	// set-up spans.
	v["model.bootstrap_ms"] = float64(in.times.bootstrap) / 1e6
	v["scenario.generate_ms"] = float64(in.times.generate) / 1e6

	// cluster: lease steps, site round trips, wire traffic.
	if in.co != nil {
		v["cluster.lease_step_ms_p50"] = p50(steps)
		v["cluster.lease_step_ms_p99"] = p99(steps)
		v["cluster.site_rtt_ms_p50"] = p50(rtt)
		v["cluster.site_rtt_ms_p99"] = p99(rtt)
		v["cluster.coord_self_ms_p50"] = p50(submitSelf)
		f0, b0 := scatterTraffic(before.sites)
		f1, b1 := scatterTraffic(after.sites)
		v["cluster.frames_per_op"] = ratio(float64(f1-f0), ops)
		v["cluster.wire_bytes_per_op"] = ratio(float64(b1-b0), ops)
		v["cluster.site_errs"] = float64(tr.siteErrs)
		v["cluster.overhead_ratio"] = ratio(p50(ref.durations(evOp)), p50(ref.twinLat))
	}
	return v
}

// routeShares reads the route mix the engine wrapper tallied from the
// program's own obs.Trace during the route pass.
func (in *instance) routeShares(v map[string]float64) {
	var total float64
	for _, k := range obs.RouteKinds() {
		total += float64(in.wrap.routeCount[k].Load())
	}
	for _, k := range obs.RouteKinds() {
		v["obs.route_share."+k.String()] = ratio(float64(in.wrap.routeCount[k].Load()), total)
	}
}
