package core

// Metrics registration: the deployment's scattered counters — proxy
// answer provenance, store routing, archive backend activity, engine
// and bridge traffic — registered into an obs.Registry as read-at-
// scrape functions. Nothing here adds hot-path cost: every series reads
// the counters the engine already keeps.

import (
	"presto/internal/obs"
	"presto/internal/proxy"
	"presto/internal/store"
)

// ProxyStats aggregates every hosted proxy's activity counters.
func (n *Network) ProxyStats() proxy.Stats {
	per := make([]proxy.Stats, len(n.shards))
	n.eachShard(func(s *shard) {
		for _, p := range s.proxies {
			addProxyStats(&per[s.slot], p.Stats())
		}
	})
	var total proxy.Stats
	for i := range per {
		addProxyStats(&total, per[i])
	}
	return total
}

func addProxyStats(dst *proxy.Stats, src proxy.Stats) {
	dst.PushesReceived += src.PushesReceived
	dst.BatchesReceived += src.BatchesReceived
	dst.EventsReceived += src.EventsReceived
	dst.PullsIssued += src.PullsIssued
	dst.PullsCoalesced += src.PullsCoalesced
	dst.PullsQueued += src.PullsQueued
	dst.PullsTimedOut += src.PullsTimedOut
	dst.StalenessPulls += src.StalenessPulls
	dst.QueriesAnswered += src.QueriesAnswered
	dst.RangeSlotsCached += src.RangeSlotsCached
	dst.RangeSlotsPredicted += src.RangeSlotsPredicted
	dst.ReplicaForwarded += src.ReplicaForwarded
	dst.ReplicaAbsorbed += src.ReplicaAbsorbed
	for i := range src.AnswersBySource {
		dst.AnswersBySource[i] += src.AnswersBySource[i]
	}
}

// RegisterMetrics registers the deployment's counters, and its engine's,
// into reg. Values are read at scrape time, so registration is cheap and
// scrapes see live state. Call once per registry (duplicate registration
// panics).
func (n *Network) RegisterMetrics(reg *obs.Registry) { n.eng.RegisterMetrics(reg) }

// registerMetrics registers the hosted domains' counters: those of an
// engine's local site.
func (n *Network) registerMetrics(reg *obs.Registry) {
	// Proxy routing outcomes — the paper's headline: how many answers
	// each provenance produced, fleet-wide.
	for s := 0; s < proxy.NumSources; s++ {
		src := proxy.Source(s)
		reg.CounterFunc("presto_proxy_answers_total", "Query answers by provenance.",
			obs.L("source", src.String()),
			func() uint64 { return n.ProxyStats().AnswersBySource[src] })
	}
	reg.CounterFunc("presto_proxy_range_slots_total", "Range-answer slots by what filled them.",
		obs.L("source", "cache"), func() uint64 { return n.ProxyStats().RangeSlotsCached })
	reg.CounterFunc("presto_proxy_range_slots_total", "Range-answer slots by what filled them.",
		obs.L("source", "model"), func() uint64 { return n.ProxyStats().RangeSlotsPredicted })
	reg.CounterFunc("presto_proxy_pulls_total", "Mote rendezvous pulls issued.", nil,
		func() uint64 { return n.ProxyStats().PullsIssued })
	reg.CounterFunc("presto_proxy_pulls_timedout_total", "Rendezvous pulls that timed out.", nil,
		func() uint64 { return n.ProxyStats().PullsTimedOut })
	reg.CounterFunc("presto_proxy_staleness_pulls_total", "Rendezvous forced by per-query freshness bounds.", nil,
		func() uint64 { return n.ProxyStats().StalenessPulls })

	// Store routing decisions.
	routing := []struct {
		decision string
		read     func(store.RoutingStats) uint64
	}{
		{"proxy", func(r store.RoutingStats) uint64 { return r.Routed }},
		{"replica", func(r store.RoutingStats) uint64 { return r.ReplicaRouted }},
		{"replica-stale", func(r store.RoutingStats) uint64 { return r.ReplicaStale }},
		{"archive", func(r store.RoutingStats) uint64 { return r.ArchiveServed }},
		{"archive-stale", func(r store.RoutingStats) uint64 { return r.ArchiveStale }},
	}
	for _, rt := range routing {
		rt := rt
		reg.CounterFunc("presto_store_routing_total", "Store routing decisions by outcome.",
			obs.L("decision", rt.decision),
			func() uint64 { return rt.read(n.StoreStats()) })
	}

	// Archive backend: appends, flash traffic, aging passes, drops, and
	// the read-amplification the wavelet chunk directory achieves.
	reg.CounterFunc("presto_store_backend_appends_total", "Records appended to the archive backend.", nil,
		func() uint64 { return n.StoreBackendStats().Appends })
	reg.GaugeFunc("presto_store_backend_records", "Records currently archived.", nil,
		func() float64 { return float64(n.StoreBackendStats().Records) })
	reg.CounterFunc("presto_store_backend_pages_written_total", "Flash pages written.", nil,
		func() uint64 { return n.StoreBackendStats().PagesWritten })
	reg.CounterFunc("presto_store_backend_pages_read_total", "Flash pages read.", nil,
		func() uint64 { return n.StoreBackendStats().PagesRead })
	reg.CounterFunc("presto_store_backend_aging_passes_total", "Flash aging/compaction passes.", nil,
		func() uint64 { return n.StoreBackendStats().Compactions })
	reg.CounterFunc("presto_store_backend_coarsened_total", "Records coarsened by aging.", nil,
		func() uint64 { return n.StoreBackendStats().Coarsened })
	reg.CounterFunc("presto_store_backend_dropped_total", "Records shed by a full archive device.", nil,
		func() uint64 { return n.StoreBackendStats().Dropped })
	reg.GaugeFunc("presto_store_backend_read_amp", "Archive read amplification (records scanned per matched).", nil,
		func() float64 { return n.StoreBackendStats().ReadAmp() })

	// Engine and bridge.
	reg.CounterFunc("presto_engine_queries_submitted_total", "Queries submitted to the engine.", nil,
		func() uint64 { submitted, _, _, _ := n.EngineStats(); return submitted })
	reg.CounterFunc("presto_engine_replica_served_total", "NOW queries served by the wired replica fast path.", nil,
		func() uint64 { _, served, _, _ := n.EngineStats(); return served })
	reg.CounterFunc("presto_engine_replica_bypassed_total", "Replica fast-path bypasses by freshness bound.", nil,
		n.ReplicaBypassed)
	reg.CounterFunc("presto_engine_bridge_sent_total", "Replica bridge messages sent.", nil,
		func() uint64 { _, _, sent, _ := n.EngineStats(); return sent })
	reg.CounterFunc("presto_engine_bridge_delivered_total", "Replica bridge messages delivered.", nil,
		func() uint64 { _, _, _, delivered := n.EngineStats(); return delivered })
	reg.CounterFunc("presto_retrain_failures_total", "Background model retrain failures.", nil,
		n.RetrainFailures)
}
