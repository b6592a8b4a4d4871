// Package proxy implements the PRESTO proxy: the tethered middle tier
// that caches sensor data, predicts what it has not seen, controls its
// motes, and answers user queries interactively.
//
// Section 3: "The PRESTO proxy comprises two components: a cache of
// summary information about the data observed at the remote sensors and a
// prediction engine that is responsible for data extrapolation,
// model-driven push, and query-sensor matching."
//
// Query path (Section 2, "System Operation"): on a query the proxy first
// checks its cache; on a miss it extrapolates from the model if the
// extrapolated error bound meets the query's precision; only when
// extrapolation is insufficient does it pull from the mote's archive —
// paying one duty-cycle rendezvous — and the pulled data refines the cache
// so subsequent queries hit.
package proxy

import (
	"fmt"
	"slices"
	"time"

	"presto/internal/cache"
	"presto/internal/model"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// Pull coalescing: every query that misses cache and model pays a
// duty-cycle rendezvous in the seed design — the exact cost PRESTO exists
// to amortize. The proxy therefore keeps at most one archive pull in
// flight per mote: queries arriving while one is outstanding either join
// it as waiters (their range is covered) or queue to be merged into a
// single follow-up rendezvous when the current one resolves. N concurrent
// cold-cache queries on one mote cost one rendezvous, not N.

// Config sets proxy behaviour.
type Config struct {
	ID radio.NodeID
	// SharedHistory mirrors the motes' confirmed-history ring size: a
	// cache walk predicts from that many confirmed entries before each
	// slot, which the cache cursor keeps, so the proxy keeps no ring.
	SharedHistory int
	// PullTimeout bounds how long a query waits for a mote's archive
	// before answering best-effort from the cache/model.
	PullTimeout time.Duration
	// SpatialExtrapolation enables answering a mote's queries from its
	// co-located siblings' data when its own data is missing (§2).
	SpatialExtrapolation bool
}

// DefaultConfig returns a proxy configuration with a 30 s pull timeout.
func DefaultConfig(id radio.NodeID) Config {
	return Config{ID: id, SharedHistory: 4, PullTimeout: 30 * time.Second}
}

// Source labels how a query answer was produced.
type Source int

// Answer provenance, mirroring the cache but with the pull path explicit.
const (
	FromCache Source = iota
	FromModel
	FromPull
	FromTimeout // pull timed out; best-effort model answer
	FromSpatial // extrapolated from co-located sibling motes
	FromArchive // served whole from the domain's archival store backend
)

// NumSources is the number of answer sources.
const NumSources = int(FromArchive) + 1

// String names the source.
func (s Source) String() string {
	switch s {
	case FromCache:
		return "cache"
	case FromModel:
		return "model"
	case FromPull:
		return "pull"
	case FromTimeout:
		return "timeout"
	case FromSpatial:
		return "spatial"
	case FromArchive:
		return "archive"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Answer is a completed query result.
type Answer struct {
	Mote     radio.NodeID
	Entries  []cache.Entry // time-ordered values with per-entry bounds
	Source   Source        // dominant provenance
	IssuedAt simtime.Time
	DoneAt   simtime.Time
}

// Latency returns the query's response time.
func (a Answer) Latency() time.Duration { return time.Duration(a.DoneAt - a.IssuedAt) }

// Value returns the single value of a point answer (first entry).
func (a Answer) Value() (float64, bool) {
	if len(a.Entries) == 0 {
		return 0, false
	}
	return a.Entries[0].V, true
}

// Fold receives a range answer's entries, in time order, in place of an
// Answer carrying them: the aggregate push-down target. A slot served
// from the cache arrives through Observe; a run of slots that share one
// prediction arrives through one ObserveRun, which must leave the fold
// exactly as n Observe calls would. *query.Partial is the one
// implementation (the proxy cannot import query).
type Fold interface {
	Observe(v, errBound float64)
	ObserveRun(v, errBound float64, n int)
}

// moteState is everything the proxy tracks per managed mote.
type moteState struct {
	id             radio.NodeID
	series         *cache.Series
	mdl            model.Model
	delta          float64
	sampleInterval simtime.Time
	lastHeard      simtime.Time
	spatial        *spatialState

	// inflight is the single outstanding archive rendezvous, if any;
	// pullQueue holds requests it could not cover, merged and issued when
	// it resolves.
	inflight  *inflightPull
	pullQueue []queuedPull
	// replicaOnly marks a mote mirrored over the wired-replica bridge:
	// the proxy has no radio path to it, so pulls degrade to best-effort
	// local answers instead of a rendezvous.
	replicaOnly bool
}

// pullDone consumes a resolved archive fetch.
type pullDone func(recs []wire.Rec, errBound float64, timedOut bool)

// inflightPull is one outstanding archive rendezvous with its waiting
// queries; the response (or timeout) fans out to every waiter.
type inflightPull struct {
	id      uint32
	mote    radio.NodeID
	t0, t1  simtime.Time
	quantum float64
	waiters []pullDone
	timeout simtime.Handle
}

// covers reports whether the in-flight rendezvous will satisfy a request
// for [t0, t1] at the given quantum (0 = lossless, which covers any
// quantum; a lossy in-flight pull covers only equal-or-looser requests).
func (fl *inflightPull) covers(t0, t1 simtime.Time, quantum float64) bool {
	if t0 < fl.t0 || t1 > fl.t1 {
		return false
	}
	return fl.quantum == 0 || (quantum > 0 && fl.quantum <= quantum)
}

// queuedPull is a request the in-flight rendezvous could not cover.
type queuedPull struct {
	t0, t1  simtime.Time
	quantum float64
	done    pullDone
}

// ReplicaTap receives a copy of every confirmed-data and model message a
// proxy handles, in wire form, for forwarding to a wired replica.
type ReplicaTap func(mote radio.NodeID, kind radio.Kind, payload []byte)

// ArchiveSink receives every confirmed observation a proxy accepts —
// pushes, batches, event records, archive pull responses — so a domain
// with an archival store backend (internal/store's flash tier) keeps a
// copy. errBound is 0 for exact values and the codec's bound for lossy
// batches and pulls.
type ArchiveSink func(mote radio.NodeID, t simtime.Time, v, errBound float64)

// Stats counts proxy activity.
type Stats struct {
	PushesReceived  uint64
	BatchesReceived uint64
	EventsReceived  uint64
	PullsIssued     uint64
	PullsCoalesced  uint64 // pull requests that joined an in-flight rendezvous
	PullsQueued     uint64 // pull requests deferred behind an in-flight rendezvous
	PullsTimedOut   uint64
	StalenessPulls  uint64 // rendezvous forced by a per-query freshness bound
	QueriesAnswered uint64
	AnswersBySource [NumSources]uint64 // indexed by Source
	// What range answers were made of, slot by slot: a range labelled
	// FromCache is, on a value-driven deployment, mostly extrapolation.
	RangeSlotsCached    uint64 // slots served from a cached entry
	RangeSlotsPredicted uint64 // slots extrapolated from the model

	ReplicaForwarded uint64 // messages copied out through the replica tap
	ReplicaAbsorbed  uint64 // bridged messages applied to replica motes
}

// Proxy is a PRESTO proxy node.
type Proxy struct {
	cfg    Config
	sim    *simtime.Simulator
	ep     *radio.Endpoint
	motes  map[radio.NodeID]*moteState
	pulls  map[uint32]*inflightPull
	nextID uint32
	stats  Stats
	tap    ReplicaTap
	sink   ArchiveSink

	watches   []*watch
	nextWatch WatchID

	// shared backs the model's shared-history window, reused across
	// queries (a proxy is confined to its domain's worker).
	shared []model.Record
}

// New attaches a proxy to the medium. Proxies are tethered: their radio is
// always listening and their energy is not metered (not the constraint the
// paper optimizes).
func New(sim *simtime.Simulator, medium *radio.Medium, cfg Config) (*Proxy, error) {
	if cfg.SharedHistory <= 0 {
		cfg.SharedHistory = 4
	}
	if cfg.PullTimeout <= 0 {
		cfg.PullTimeout = 30 * time.Second
	}
	p := &Proxy{
		cfg:    cfg,
		sim:    sim,
		motes:  make(map[radio.NodeID]*moteState),
		pulls:  make(map[uint32]*inflightPull),
		shared: make([]model.Record, 0, cfg.SharedHistory),
	}
	var err error
	p.ep, err = medium.Attach(cfg.ID, nil, 0, p.handle)
	if err != nil {
		return nil, fmt.Errorf("proxy %d: %w", cfg.ID, err)
	}
	return p, nil
}

// ID returns the proxy's node id.
func (p *Proxy) ID() radio.NodeID { return p.cfg.ID }

// Now returns the proxy's domain clock.
func (p *Proxy) Now() simtime.Time { return p.sim.Now() }

// Stats returns activity counters.
func (p *Proxy) Stats() Stats { return p.stats }

// Register adopts a mote: the proxy will accept its pushes and can query
// and control it. delta is the current push threshold (must match what the
// mote runs, normally set via ShipModel).
func (p *Proxy) Register(id radio.NodeID, sampleInterval time.Duration, delta float64) {
	p.motes[id] = &moteState{
		id:             id,
		series:         cache.NewSeries(),
		mdl:            model.ConstLast{},
		delta:          delta,
		sampleInterval: simtime.Time(sampleInterval),
	}
}

// RegisterReplica adopts a mote in replica-only mode: the proxy accepts
// bridged copies of its confirmed data and models (AbsorbReplica) and
// answers queries from them, but has no radio path to the mote itself, so
// queries that would need an archive pull answer best-effort instead.
// This is the receive side of Section 5's wired replication.
func (p *Proxy) RegisterReplica(id radio.NodeID, sampleInterval time.Duration, delta float64) {
	p.Register(id, sampleInterval, delta)
	p.motes[id].replicaOnly = true
}

// SetReplicaTap registers a callback that receives a copy of every
// confirmed-data and model message this proxy handles, for forwarding to
// its wired replica. Pass nil to stop forwarding.
func (p *Proxy) SetReplicaTap(tap ReplicaTap) { p.tap = tap }

// SetArchiveSink registers the domain's archival store: every confirmed
// observation this proxy accepts is copied into it. Pass nil to stop
// archiving.
func (p *Proxy) SetArchiveSink(sink ArchiveSink) { p.sink = sink }

// archive copies one confirmed observation to the sink.
func (p *Proxy) archive(mote radio.NodeID, t simtime.Time, v, errBound float64) {
	if p.sink != nil {
		p.sink(mote, t, v, errBound)
	}
}

// forwardReplica copies a wire message out through the tap.
func (p *Proxy) forwardReplica(mote radio.NodeID, kind radio.Kind, payload []byte) {
	if p.tap == nil {
		return
	}
	p.stats.ReplicaForwarded++
	p.tap(mote, kind, payload)
}

// AbsorbReplica applies one bridged wire message for a replica-only mote:
// confirmed observations refine the mirrored cache, model updates install
// the model the managing proxy trained. Messages for motes this proxy
// does not replicate are dropped. Mirrored data never reaches the archive
// sink: the owning domain already archives it, and range queries always
// settle there — archiving here would store every record twice.
func (p *Proxy) AbsorbReplica(mote radio.NodeID, kind radio.Kind, payload []byte) {
	st, ok := p.motes[mote]
	if !ok || !st.replicaOnly {
		return
	}
	switch kind {
	case wire.KindPush:
		push, err := wire.DecodePush(payload)
		if err != nil {
			return
		}
		st.lastHeard = p.sim.Now()
		st.series.Insert(cache.Entry{T: push.T, V: push.V, Source: cache.Pushed})
		p.fireWatches(mote, cache.Entry{T: push.T, V: push.V, Source: cache.Pushed})
	case wire.KindBatch:
		b, err := wire.DecodeBatch(payload)
		if err != nil {
			return
		}
		st.lastHeard = p.sim.Now()
		for i, v := range b.Values {
			tt := b.Start + simtime.Time(i)*b.Interval
			st.series.Insert(cache.Entry{T: tt, V: v, Source: cache.Pushed, ErrBound: b.ErrBound})
		}
	case wire.KindEvents:
		resp, err := wire.DecodePullResp(payload)
		if err != nil {
			return
		}
		st.lastHeard = p.sim.Now()
		for _, r := range resp.Records {
			st.series.Insert(cache.Entry{T: r.T, V: r.V, Source: cache.Pushed})
		}
	case wire.KindPullResp:
		resp, err := wire.DecodePullResp(payload)
		if err != nil {
			return
		}
		for _, r := range resp.Records {
			st.series.Insert(cache.Entry{T: r.T, V: r.V, Source: cache.Pulled, ErrBound: resp.ErrBound})
		}
	case wire.KindModelUpdate:
		mu, err := wire.DecodeModelUpdate(payload)
		if err != nil {
			return
		}
		m, err := model.Unmarshal(mu.Params)
		if err != nil {
			return
		}
		st.mdl = m
		st.delta = mu.Delta
	default:
		return
	}
	p.stats.ReplicaAbsorbed++
}

// Motes lists managed mote ids in ascending order: the motes this proxy
// has a radio path to, not the replicas it mirrors for another proxy.
func (p *Proxy) Motes() []radio.NodeID {
	out := make([]radio.NodeID, 0, len(p.motes))
	for id, st := range p.motes {
		if !st.replicaOnly {
			out = append(out, id)
		}
	}
	slices.Sort(out)
	return out
}

// Series exposes a mote's cache series (experiments inspect provenance).
func (p *Proxy) Series(id radio.NodeID) (*cache.Series, bool) {
	st, ok := p.motes[id]
	if !ok {
		return nil, false
	}
	return st.series, true
}

// ShipModel installs a model + delta proxy-side and transmits the
// parameters to the mote.
func (p *Proxy) ShipModel(id radio.NodeID, m model.Model, delta float64) error {
	st, ok := p.motes[id]
	if !ok {
		return fmt.Errorf("proxy: mote %d not registered", id)
	}
	st.mdl = m
	st.delta = delta
	payload := wire.EncodeModelUpdate(wire.ModelUpdate{Delta: delta, Params: m.Marshal()})
	p.forwardReplica(id, wire.KindModelUpdate, payload)
	if st.replicaOnly {
		return nil // replica motes have no radio path; local install only
	}
	return p.ep.Send(id, wire.KindModelUpdate, payload)
}

// TrainAndShip trains a SeasonalAnchored model on the mote's confirmed
// cache history in [t0, t1] and ships it. Returns the trained model.
func (p *Proxy) TrainAndShip(id radio.NodeID, t0, t1 simtime.Time, bins int, delta float64) (model.Model, error) {
	st, ok := p.motes[id]
	if !ok {
		return nil, fmt.Errorf("proxy: mote %d not registered", id)
	}
	recs := st.series.ConfirmedRange(t0, t1)
	m, err := model.TrainSeasonalAnchored(recs, bins, simtime.Day)
	if err != nil {
		return nil, fmt.Errorf("proxy: training mote %d: %w", id, err)
	}
	if err := p.ShipModel(id, m, delta); err != nil {
		return nil, err
	}
	return m, nil
}

// Configure transmits an over-the-air retune to a mote (query–sensor
// matching output).
func (p *Proxy) Configure(id radio.NodeID, c wire.Config) error {
	if _, ok := p.motes[id]; !ok {
		return fmt.Errorf("proxy: mote %d not registered", id)
	}
	return p.ep.Send(id, wire.KindConfig, wire.EncodeConfig(c))
}

// handle processes mote → proxy traffic.
func (p *Proxy) handle(pkt radio.Packet) {
	st, ok := p.motes[pkt.Src]
	if !ok && pkt.Kind != wire.KindPullResp {
		return // unknown mote
	}
	switch pkt.Kind {
	case wire.KindPush:
		push, err := wire.DecodePush(pkt.Payload)
		if err != nil {
			return
		}
		p.stats.PushesReceived++
		st.lastHeard = p.sim.Now()
		st.series.Insert(cache.Entry{T: push.T, V: push.V, Source: cache.Pushed})
		p.archive(pkt.Src, push.T, push.V, 0)
		p.observeSpatial(pkt.Src, push.T, push.V)
		p.fireWatches(pkt.Src, cache.Entry{T: push.T, V: push.V, Source: cache.Pushed})
		p.forwardReplica(pkt.Src, pkt.Kind, pkt.Payload)
	case wire.KindBatch:
		b, err := wire.DecodeBatch(pkt.Payload)
		if err != nil {
			return
		}
		p.stats.BatchesReceived++
		st.lastHeard = p.sim.Now()
		for i, v := range b.Values {
			// The codec's real bound: delta-coded batches are lossy
			// (quantum/2), and cache and archive answers must honor it.
			e := cache.Entry{T: b.Start + simtime.Time(i)*b.Interval, V: v, Source: cache.Pushed, ErrBound: b.ErrBound}
			st.series.Insert(e)
			p.archive(pkt.Src, e.T, v, b.ErrBound)
			p.observeSpatial(pkt.Src, e.T, v)
			p.fireWatches(pkt.Src, e)
		}
		p.forwardReplica(pkt.Src, pkt.Kind, pkt.Payload)
	case wire.KindEvents:
		resp, err := wire.DecodePullResp(pkt.Payload)
		if err != nil {
			return
		}
		p.stats.EventsReceived++
		st.lastHeard = p.sim.Now()
		for _, r := range resp.Records {
			st.series.Insert(cache.Entry{T: r.T, V: r.V, Source: cache.Pushed})
			p.archive(pkt.Src, r.T, r.V, 0)
			p.observeSpatial(pkt.Src, r.T, r.V)
			p.fireWatches(pkt.Src, cache.Entry{T: r.T, V: r.V, Source: cache.Pushed})
		}
		p.forwardReplica(pkt.Src, pkt.Kind, pkt.Payload)
	case wire.KindPullResp:
		resp, err := wire.DecodePullResp(pkt.Payload)
		if err != nil {
			return
		}
		if p.completePull(pkt.Src, resp) {
			p.forwardReplica(pkt.Src, pkt.Kind, pkt.Payload)
		}
	}
}

// ---------------------------------------------------------------------------
// Queries

// QueryPoint answers a single-instant query for mote id at time t with the
// given precision (maximum tolerated error). The callback fires exactly
// once, possibly synchronously for cache/model answers. This is the
// paper's NOW query when t == sim.Now(), and a PAST point query otherwise.
func (p *Proxy) QueryPoint(id radio.NodeID, t simtime.Time, precision float64, cb func(Answer)) {
	st, ok := p.motes[id]
	issued := p.sim.Now()
	if !ok {
		cb(Answer{Mote: id, IssuedAt: issued, DoneAt: issued})
		return
	}
	if e, src, ok := p.localAnswer(st, t, precision); ok {
		p.finish(cb, Answer{Mote: id, Entries: []cache.Entry{e}, Source: src, IssuedAt: issued, DoneAt: p.sim.Now()})
		return
	}
	p.pullPoint(st, t, issued, cb)
}

// pullPoint pays the archive rendezvous for a point query at t (step 3 of
// the paper's query path), answering best-effort from the model on
// timeout.
func (p *Proxy) pullPoint(st *moteState, t simtime.Time, issued simtime.Time, cb func(Answer)) {
	id := st.id
	maxGap := time.Duration(st.sampleInterval)
	t0, t1 := t-st.sampleInterval, t+st.sampleInterval
	if t0 < 0 {
		t0 = 0
	}
	p.pull(st, t0, t1, 0, func(recs []wire.Rec, errBound float64, timedOut bool) {
		if timedOut {
			p.finish(cb, Answer{Mote: id, Entries: []cache.Entry{p.predict(st, t)}, Source: FromTimeout, IssuedAt: issued, DoneAt: p.sim.Now()})
			return
		}
		e, ok := st.series.At(t, maxGap)
		if !ok {
			e = p.predict(st, t)
		}
		p.finish(cb, Answer{Mote: id, Entries: []cache.Entry{e}, Source: FromPull, IssuedAt: issued, DoneAt: p.sim.Now()})
	})
}

// predict extrapolates one instant from the mote's model and the confirmed
// history up to it; the push contract bounds the error by delta.
func (p *Proxy) predict(st *moteState, t simtime.Time) cache.Entry {
	c := p.cursor(st, t)
	return cache.Entry{T: t, V: st.mdl.Predict(t, c.Shared(t)), Source: cache.Predicted, ErrBound: st.delta}
}

// localAnswer tries the pull-free answer paths for one instant, in the
// paper's order, reporting ok=false when meeting the precision would
// require an archive pull.
func (p *Proxy) localAnswer(st *moteState, t simtime.Time, precision float64) (cache.Entry, Source, bool) {
	// 1. Cache: accept an entry within one sample interval whose bound
	// meets the precision.
	if e, ok := st.series.At(t, time.Duration(st.sampleInterval)); ok && e.ErrBound <= precision {
		return e, FromCache, true
	}
	// 2a. Spatial extrapolation: co-located siblings' data plus the
	// learned offset, when its bound meets the precision and beats the
	// mote's own model bound (useful when delta is loose or the mote is
	// silent/dead).
	if se, ok := p.spatialEstimate(st.id, t); ok && se.ErrBound <= precision && se.ErrBound < st.delta {
		st.series.Insert(se)
		return se, FromSpatial, true
	}
	// 2b. Extrapolate: the model plus the push contract bounds the error
	// by delta wherever the mote has been silent.
	if st.delta <= precision {
		e := p.predict(st, t)
		st.series.Insert(e)
		return e, FromModel, true
	}
	return cache.Entry{}, FromCache, false
}

// QueryLocal answers a point query only if cache, spatial extrapolation,
// or the model can meet the precision — it never pulls. A wired replica
// uses this to serve what it can instantly, forwarding the rest to the
// managing proxy's domain.
func (p *Proxy) QueryLocal(id radio.NodeID, t simtime.Time, precision float64) (Answer, bool) {
	st, ok := p.motes[id]
	if !ok {
		return Answer{}, false
	}
	issued := p.sim.Now()
	e, src, ok := p.localAnswer(st, t, precision)
	if !ok {
		return Answer{}, false
	}
	a := Answer{Mote: id, Entries: []cache.Entry{e}, Source: src, IssuedAt: issued, DoneAt: p.sim.Now()}
	p.stats.QueriesAnswered++
	if int(a.Source) < len(p.stats.AnswersBySource) {
		p.stats.AnswersBySource[a.Source]++
	}
	return a, true
}

// QueryNow answers the paper's NOW query: current value within precision.
func (p *Proxy) QueryNow(id radio.NodeID, precision float64, cb func(Answer)) {
	p.QueryPoint(id, p.sim.Now(), precision, cb)
}

// FreshWithin reports whether the proxy's newest confirmed observation for
// a mote is at most maxStale older than asOf. Callers comparing across
// simulation domains pass the owning domain's clock as asOf — confirmed
// data carries the owning domain's timestamps, so the check is immune to
// the loose alignment of domain clocks.
func (p *Proxy) FreshWithin(id radio.NodeID, asOf simtime.Time, maxStale time.Duration) bool {
	st, ok := p.motes[id]
	if !ok {
		return false
	}
	e, ok := st.series.LastConfirmed()
	if !ok {
		return false
	}
	return asOf-e.T <= simtime.Time(maxStale)
}

// QueryNowBounded answers a NOW query under a per-query freshness bound:
// when the newest confirmed observation is older than maxStale, the local
// cache/model answer — however precise its error bound — is rejected as a
// stale snapshot and the proxy pays an archive rendezvous to resample the
// mote. maxStale <= 0 means unbounded (plain QueryNow).
func (p *Proxy) QueryNowBounded(id radio.NodeID, precision float64, maxStale time.Duration, cb func(Answer)) {
	now := p.sim.Now()
	st, ok := p.motes[id]
	if !ok {
		cb(Answer{Mote: id, IssuedAt: now, DoneAt: now})
		return
	}
	if maxStale <= 0 || p.FreshWithin(id, now, maxStale) {
		p.QueryPoint(id, now, precision, cb)
		return
	}
	p.stats.StalenessPulls++
	p.pullPoint(st, now, now, cb)
}

// QueryRange answers a PAST query over [t0, t1]: one entry per sample
// interval, each within precision if at all possible. Gaps that the model
// cannot cover within precision trigger a single archive pull for the
// whole span. Given a fold, the entries go into it when the answer is
// made and the Answer handed to cb carries none.
//
// maxStale > 0 is a per-query freshness bound. It only bites when the
// window's tail overlaps the staleness horizon (t1 + maxStale >= now):
// such a query is partially "now-like", so a cache/model view whose
// newest confirmed observation is older than maxStale is a stale snapshot
// — the proxy pays an archive rendezvous over the span before answering,
// exactly as QueryNowBounded does for NOW. Purely historical windows are
// answered as if unbounded.
func (p *Proxy) QueryRange(id radio.NodeID, t0, t1 simtime.Time, precision float64, maxStale time.Duration, fold Fold, cb func(Answer)) {
	st, ok := p.motes[id]
	now := p.sim.Now()
	if !ok || t1 < t0 {
		cb(Answer{Mote: id, IssuedAt: now, DoneAt: now})
		return
	}
	if maxStale > 0 && t1+simtime.Time(maxStale) >= now && !p.FreshWithin(id, now, maxStale) {
		p.stats.StalenessPulls++
	} else if c := p.cursor(st, t0); st.delta <= precision || p.cached(st, c, t0, t1, precision) {
		p.answerRange(st, c, t0, t1, precision, FromCache, now, fold, cb)
		return
	}
	p.pullRange(st, t0, t1, precision, now, fold, cb)
}

// pullRange pays the archive rendezvous for a range query and answers
// from the refined cache: what QueryRange does on a cache/model miss or a
// stale snapshot.
func (p *Proxy) pullRange(st *moteState, t0, t1 simtime.Time, precision float64, issued simtime.Time, fold Fold, cb func(Answer)) {
	// Lossy pull when the query precision allows it: quantize to half the
	// precision budget, leaving the other half for sampling-offset error.
	quantum := 0.0
	if precision > 0 {
		quantum = precision / 2
	}
	// Pad the span by one sample interval each side (as QueryPoint does)
	// so a narrow span still fetches the samples bracketing it.
	pt0, pt1 := t0-st.sampleInterval, t1+st.sampleInterval
	if pt0 < 0 {
		pt0 = 0
	}
	p.pull(st, pt0, pt1, quantum, func(recs []wire.Rec, errBound float64, timedOut bool) {
		src := FromPull
		if timedOut {
			src = FromTimeout
		}
		// The pull changed the cache: a cursor from before it is stale.
		p.answerRange(st, p.cursor(st, t0), t0, t1, precision, src, issued, fold, cb)
	})
}

// walkRange walks [t0, t1]'s slot grid, one slot per sample interval
// from t0, over a mote's cache. A slot with an entry within half a step
// is answered on its own: by that entry, picked as Series.At picks it,
// or by the model at bound delta where the entry is looser than the
// precision. A stretch of slots with no entry within half a step is
// answered as one run: its first slot's prediction, held to the next
// entry's reach or the end of the model's flat piece (model.FlatUntil).
// No entry lies inside such a stretch, so the shared history, and with
// it the prediction, holds across the run. One forward cursor serves the
// whole window: no per-slot search, no allocation beyond the answer.
// The walk advances its own copy of c, which must start at t0.
//
// Given a fold, the walk folds each cached slot through Observe and each
// run through one ObserveRun. Else, to materialise, it returns the
// window's entries in one exact-size slice. Else it decides a pull:
// it stops at the first predicted slot. It reports how many slots the
// window has and how many were predicted.
func (p *Proxy) walkRange(st *moteState, c cache.Cursor, t0, t1 simtime.Time, precision float64, fold Fold, materialise bool) (entries []cache.Entry, slots, predicted int) {
	step := st.sampleInterval
	if step <= 0 {
		step = simtime.Minute
	}
	half := step / 2
	slots = int((t1-t0)/step) + 1
	if materialise {
		entries = make([]cache.Entry, 0, slots)
	}
	// piece is the index of the first slot past the model's current flat
	// piece; 0 before the first run asks for one. FlatUntil is the same
	// at every instant of a piece, so a later run inside it is cut where
	// the piece ends without asking again.
	piece := 0
	for t, left := t0, slots; left > 0; {
		e, hit := c.At(t, time.Duration(half))
		n := 1
		if !hit || e.ErrBound > precision {
			if fold == nil && !materialise {
				return nil, slots, 1
			}
			if !hit {
				n = left
				if nt, ok := c.Next(); ok && nt-half <= t1 {
					n = min(n, int((nt-half-t-1)/step)+1)
				}
				k := slots - left // t's slot
				if k >= piece {
					piece = slots
					if f := st.mdl.FlatUntil(t); f <= t1 {
						piece = k + int((f-t-1)/step) + 1
					}
				}
				n = min(n, piece-k)
			}
			e = cache.Entry{T: t, V: st.mdl.Predict(t, c.Shared(t)), Source: cache.Predicted, ErrBound: st.delta}
			predicted += n
		}
		switch {
		case materialise:
			entries = append(entries, e)
			for range n - 1 {
				e.T += step
				entries = append(entries, e)
			}
		case fold == nil: // a pull decision emits nothing
		case n == 1:
			fold.Observe(e.V, e.ErrBound)
		default:
			fold.ObserveRun(e.V, e.ErrBound, n)
		}
		left -= n
		t += simtime.Time(n) * step
	}
	return entries, slots, predicted
}

// cursor starts a walk of a mote's cache at t0, its shared-history
// window in the proxy's reusable buffer.
func (p *Proxy) cursor(st *moteState, t0 simtime.Time) cache.Cursor {
	return st.series.Cursor(t0, p.cfg.SharedHistory, p.shared)
}

// cached reports whether the cache alone answers every slot of [t0, t1]
// at precision, so that no pull is due. The decision walk stops before
// its first prediction, so it never reads c's shared history and leaves
// c, which it walks a copy of, ready for the answer.
func (p *Proxy) cached(st *moteState, c cache.Cursor, t0, t1 simtime.Time, precision float64) bool {
	_, _, predicted := p.walkRange(st, c, t0, t1, precision, nil, false)
	return predicted == 0
}

// answerRange answers a range query from one walk, folded when the
// caller gave a fold target, else materialised.
func (p *Proxy) answerRange(st *moteState, c cache.Cursor, t0, t1 simtime.Time, precision float64, src Source, issued simtime.Time, fold Fold, cb func(Answer)) {
	entries, slots, predicted := p.walkRange(st, c, t0, t1, precision, fold, fold == nil)
	p.stats.RangeSlotsPredicted += uint64(predicted)
	p.stats.RangeSlotsCached += uint64(slots - predicted)
	p.finish(cb, Answer{Mote: st.id, Entries: entries, Source: src, IssuedAt: issued, DoneAt: p.sim.Now()})
}

// insertPulled refines the cache with archive records.
func (p *Proxy) insertPulled(st *moteState, recs []wire.Rec, errBound float64) {
	for _, r := range recs {
		st.series.Insert(cache.Entry{T: r.T, V: r.V, Source: cache.Pulled, ErrBound: errBound})
		p.archive(st.id, r.T, r.V, errBound)
	}
}

// pull requests archive records in [t0, t1], coalescing with the mote's
// in-flight rendezvous when possible: a covered request joins as a
// waiter, an uncovered one queues for the merged follow-up. done fires
// exactly once, after the cache has been refined with the response.
func (p *Proxy) pull(st *moteState, t0, t1 simtime.Time, quantum float64, done pullDone) {
	if st.replicaOnly {
		// Replica mirrors have no radio path to the mote: answer
		// best-effort from local state via the timeout path, instantly.
		done(nil, 0, true)
		return
	}
	if fl := st.inflight; fl != nil {
		if fl.covers(t0, t1, quantum) {
			p.stats.PullsCoalesced++
			fl.waiters = append(fl.waiters, done)
			return
		}
		p.stats.PullsQueued++
		st.pullQueue = append(st.pullQueue, queuedPull{t0: t0, t1: t1, quantum: quantum, done: done})
		return
	}
	p.issuePull(st, t0, t1, quantum, []pullDone{done})
}

// issuePull sends one archive rendezvous with timeout.
func (p *Proxy) issuePull(st *moteState, t0, t1 simtime.Time, quantum float64, waiters []pullDone) {
	p.nextID++
	p.stats.PullsIssued++
	fl := &inflightPull{id: p.nextID, mote: st.id, t0: t0, t1: t1, quantum: quantum, waiters: waiters}
	fl.timeout = p.sim.Schedule(p.cfg.PullTimeout, func() {
		p.stats.PullsTimedOut++
		p.resolvePull(st, fl, nil, 0, true)
	})
	st.inflight = fl
	p.pulls[fl.id] = fl
	payload := wire.EncodePullReq(wire.PullReq{ID: fl.id, T0: t0, T1: t1, Quantum: quantum})
	if err := p.ep.Send(st.id, wire.KindPullReq, payload); err != nil {
		// Unknown/detached mote: let the timeout fire (keeps one code path).
		return
	}
}

// resolvePull retires an in-flight rendezvous: the cache is refined once,
// the result fans out to every waiter, and any queued requests are merged
// into a single follow-up rendezvous.
func (p *Proxy) resolvePull(st *moteState, fl *inflightPull, recs []wire.Rec, errBound float64, timedOut bool) {
	delete(p.pulls, fl.id)
	if st.inflight == fl {
		st.inflight = nil
	}
	fl.timeout.Cancel()
	if !timedOut {
		p.insertPulled(st, recs, errBound)
	}
	for _, w := range fl.waiters {
		w(recs, errBound, timedOut)
	}
	p.issueQueued(st)
}

// issueQueued merges every deferred pull into one covering rendezvous:
// the union of the spans, at the tightest quantum requested (0 =
// lossless dominates).
func (p *Proxy) issueQueued(st *moteState) {
	if st.inflight != nil || len(st.pullQueue) == 0 {
		return
	}
	q := st.pullQueue
	st.pullQueue = nil
	t0, t1, quantum := q[0].t0, q[0].t1, q[0].quantum
	waiters := make([]pullDone, len(q))
	for i, r := range q {
		waiters[i] = r.done
		if r.t0 < t0 {
			t0 = r.t0
		}
		if r.t1 > t1 {
			t1 = r.t1
		}
		if r.quantum == 0 || quantum == 0 {
			quantum = 0
		} else if r.quantum < quantum {
			quantum = r.quantum
		}
	}
	p.issuePull(st, t0, t1, quantum, waiters)
}

// completePull resolves the rendezvous a response answers, reporting
// whether the response was expected (late and duplicate responses are
// dropped).
func (p *Proxy) completePull(src radio.NodeID, resp wire.PullResp) bool {
	fl, ok := p.pulls[resp.ID]
	if !ok || fl.mote != src {
		return false // late or duplicate response
	}
	st, ok := p.motes[src]
	if !ok {
		delete(p.pulls, resp.ID)
		return false
	}
	st.lastHeard = p.sim.Now()
	p.resolvePull(st, fl, resp.Records, resp.ErrBound, false)
	return true
}

// finish records stats and invokes the callback.
func (p *Proxy) finish(cb func(Answer), a Answer) {
	p.stats.QueriesAnswered++
	if int(a.Source) < len(p.stats.AnswersBySource) {
		p.stats.AnswersBySource[a.Source]++
	}
	cb(a)
}
