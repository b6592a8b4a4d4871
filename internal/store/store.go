// Package store provides PRESTO's unified logical view: "a single logical
// store across tens to hundreds of proxies and thousands of remote
// sensors" (Section 1).
//
// Users query the store by mote and time; the store routes each query to
// the managing proxy through the distributed index, preferring a wired
// replica when the managing proxy is wireless (Section 5's replication
// for low-latency responses), and merges cross-proxy detection streams in
// global time order. The abstraction hides which proxy owns which mote,
// whether the answer came from the archive backend, cache, model, or a
// mote archive pull, and the vagaries of the lossy sensor tier.
//
// The proxies' caches hold every confirmed observation once: in a "mem"
// deployment they are the domain's in-memory archive. A "flash"
// deployment also gives the domain an archival Backend (backend.go):
// proxies copy each confirmed observation into it, and PAST and AGG
// queries whose span it covers within precision are answered straight
// from it. NOW queries under a freshness bound (query.Query.MaxStaleness)
// consult the replica's snapshot age before accepting a replica answer.
package store

import (
	"time"

	"presto/internal/cache"
	"presto/internal/index"
	"presto/internal/obs"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// RoutingStats counts the store's routing and serving decisions.
type RoutingStats struct {
	Routed        uint64 // queries routed to managing proxies
	ReplicaRouted uint64 // queries offered to a wired replica
	ReplicaStale  uint64 // replica offers rejected by a per-query freshness bound
	ArchiveServed uint64 // range queries served whole from the archive backend
	// ArchiveStale counts range queries the archive covered but refused
	// to serve because the window tail overlaps "now" and the archive's
	// newest record for the mote is older than the query's MaxStaleness —
	// the proxy path must pay the rendezvous instead.
	ArchiveStale uint64
}

// Store is the unified logical store.
type Store struct {
	ix        *index.Index
	proxies   map[index.ProxyID]*proxy.Proxy
	backend   Backend
	intervals map[radio.NodeID]simtime.Time // per-mote sample interval

	// declined collects, per Execute call, the motes neither replica nor
	// archive answered, for the proxy pass.
	declined []declinedMote
	// gated holds a PAST/AGG round's per-mote gate verdicts; reqMotes,
	// reqLo, reqHi and reqOut are the round's one archive read, whose
	// per-mote record buffers are reused round to round. Stores are
	// confined to their shard worker, so one set suffices.
	gated        []gatedMote
	reqMotes     []radio.NodeID
	reqLo, reqHi []simtime.Time
	reqOut       [][]Record

	// domain is the global index of the simulation domain this store
	// serves; routing decisions annotated onto a query's trace carry it.
	domain int

	rstats RoutingStats
}

// New creates the store of global simulation domain `domain` over an
// index, with no archive backend: the proxies' caches are the archive
// until SetBackend installs one.
func New(ix *index.Index, domain int) *Store {
	return &Store{
		ix:        ix,
		domain:    domain,
		proxies:   make(map[index.ProxyID]*proxy.Proxy),
		intervals: make(map[radio.NodeID]simtime.Time),
	}
}

// SetBackend installs the archive backend (per-domain configuration; see
// core.Config.StoreBackend). Proxies attached before or after the swap
// archive into whatever backend is current. Passing nil leaves the
// proxies' caches as the only archive, with no archive-served answers.
func (s *Store) SetBackend(b Backend) { s.backend = b }

// BackendStats returns the archive backend's counters (zero value
// without a backend).
func (s *Store) BackendStats() BackendStats {
	if s.backend == nil {
		return BackendStats{}
	}
	return s.backend.Stats()
}

// AddProxy attaches a proxy under an index id and wires its confirmed
// traffic into the domain's archive backend, when it has one.
func (s *Store) AddProxy(id index.ProxyID, p *proxy.Proxy, wired bool) {
	s.proxies[id] = p
	s.ix.RegisterProxy(id, wired)
	p.SetArchiveSink(func(m radio.NodeID, t simtime.Time, v, errBound float64) {
		if s.backend == nil {
			return
		}
		// An Append error means the device is full and archiving is
		// degraded; the backend accounts the actual records it sheds in
		// BackendStats.Dropped (the failed record itself may be retained
		// and served). The deployment keeps running either way — archive
		// coverage decays and queries fall back to the proxy path.
		_ = s.backend.Append(m, Record{T: t, V: v, ErrBound: errBound})
	})
}

// AdoptMote records that proxy id manages the mote (routing state) and the
// mote's sample interval (archive coverage checks).
func (s *Store) AdoptMote(m radio.NodeID, id index.ProxyID, sampleInterval time.Duration) {
	s.ix.RegisterMote(m, id)
	s.intervals[m] = simtime.Time(sampleInterval)
}

// Index exposes the underlying distributed index.
func (s *Store) Index() *index.Index { return s.ix }

// routeKindFor maps a proxy answer source onto the trace vocabulary.
func routeKindFor(src proxy.Source) obs.RouteKind {
	switch src {
	case proxy.FromCache:
		return obs.RouteCacheHit
	case proxy.FromModel:
		return obs.RouteModelHit
	case proxy.FromPull:
		return obs.RouteRendezvous
	case proxy.FromTimeout:
		return obs.RouteTimeout
	case proxy.FromSpatial:
		return obs.RouteSpatial
	case proxy.FromArchive:
		return obs.RouteArchiveHit
	}
	return obs.RouteNone
}

// replica returns the wired replica proxy for a mote's managing proxy,
// if one is attached.
func (s *Store) replica(pid index.ProxyID) (*proxy.Proxy, bool) {
	w, ok := s.ix.ReplicaFor(pid)
	if !ok {
		return nil, false
	}
	rp, ok := s.proxies[w]
	return rp, ok
}

// declinedMote is a mote awaiting the proxy pass of an Execute call.
type declinedMote struct {
	mote radio.NodeID
	p    *proxy.Proxy
}

// Archive gate verdicts for one PAST/AGG mote.
const (
	gateDecline = iota // declined on RAM-only checks: no archive read
	gateStale          // declined for a stale tail (traced as a stale bypass)
	gateRead           // in the round's archive read
)

// gatedMote is one PAST/AGG mote between the archive gate and its answer.
type gatedMote struct {
	mote    radio.NodeID
	pid     index.ProxyID
	step    simtime.Time // sample interval, for gateRead
	verdict int
}

// Execute routes one round of a spec: every mote in motes once, in two
// passes. cb fires exactly once per mote that could be routed —
// synchronously, or later from the owning kernel when the proxy pays a
// mote rendezvous; motes that could not (unknown to the index, proxy not
// attached, malformed spec) are counted in failed. tr, when non-nil,
// collects each routing decision where it is made.
//
// The first pass serves what never reaches a managing proxy. NOW motes
// are offered to the managing proxy's wired replica (Section 5's
// low-latency replication) — unless the spec carries a freshness bound the
// replica's snapshot cannot meet. PAST and AGG motes are served from the
// domain's archive backend when the archived records cover every sample
// slot of the span within the requested precision, and the archive is read
// once per round, in three steps: every mote is gated on RAM-only checks
// (index lookup, freshness bound, newest-record pre-check), one
// Backend.QueryRanges call reads the motes that passed, and the answers
// follow in mote order. A freshness bound applies when the window tail
// overlaps "now": an archive whose newest record for the mote is staler
// than MaxStaleness declines (ArchiveStale).
//
// The second pass hands each declined mote to its managing proxy (cache /
// model / mote rendezvous, bounds enforced by QueryNowBounded and
// QueryRange).
//
// fold is the aggregate push-down, given for AGG rounds and nil
// otherwise: every mote's slot entries go straight into it — no entry slice, no Answer.Entries —
// and cb receives a Result that carries provenance and timing only. The
// fold order is a contract, because float sums depend on it and answers
// are compared bit for bit across commits and across cluster layouts:
// archive-served motes in mote order, then the proxies' synchronous
// answers in mote order, then rendezvous answers as they land — each
// mote's entries in time order, exactly as materializing them and calling
// ObserveResult would. A mote the archive declines leaves the fold
// untouched until its proxy answers.
func (s *Store) Execute(spec query.Spec, motes []radio.NodeID, fold *query.Partial, tr *obs.Trace, cb func(query.Result)) (failed int) {
	if spec.Validate() != nil {
		return len(motes)
	}
	s.declined = s.declined[:0]
	if spec.Type == query.Now {
		for _, m := range motes {
			pid, err := s.ix.ProxyFor(m)
			if err != nil {
				failed++
				continue
			}
			if !s.serveReplica(spec.QueryFor(m), pid, tr, cb) {
				failed += s.decline(m, pid)
			}
		}
	} else {
		failed = s.serveArchive(spec, motes, fold, tr, cb)
	}
	if len(s.declined) == 0 {
		return failed
	}
	// One closure per round, not per mote: the answer names its mote.
	onAnswer := func(a proxy.Answer) {
		tr.Route(int64(a.Mote), s.domain, routeKindFor(a.Source))
		cb(query.Result{Query: spec.QueryFor(a.Mote), Answer: a})
	}
	var pfold proxy.Fold // stays a nil interface when fold is nil
	if fold != nil {
		pfold = fold
	}
	for _, d := range s.declined {
		s.rstats.Routed++
		if spec.Type == query.Now {
			// Without a bound QueryNowBounded is exactly QueryNow.
			d.p.QueryNowBounded(d.mote, spec.Precision, spec.MaxStaleness, onAnswer)
		} else {
			// The bound only bites when the window tail overlaps "now".
			d.p.QueryRange(d.mote, spec.T0, spec.T1, spec.Precision, spec.MaxStaleness, pfold, onAnswer)
		}
	}
	return failed
}

// decline queues a mote for the proxy pass, reporting 1 when its
// managing proxy is not attached (the mote fails).
func (s *Store) decline(m radio.NodeID, pid index.ProxyID) int {
	p, ok := s.proxies[pid]
	if !ok {
		return 1
	}
	s.declined = append(s.declined, declinedMote{mote: m, p: p})
	return 0
}

// serveReplica is Execute's first pass for one NOW mote: the managing
// proxy's wired replica. It reports whether the mote was answered.
func (s *Store) serveReplica(q query.Query, pid index.ProxyID, tr *obs.Trace, cb func(query.Result)) bool {
	rp, ok := s.replica(pid)
	if !ok {
		return false
	}
	s.rstats.ReplicaRouted++ // replica was tried (the routing decision)
	if q.MaxStaleness > 0 && !rp.FreshWithin(q.Mote, rp.Now(), q.MaxStaleness) {
		s.rstats.ReplicaStale++
		tr.Route(int64(q.Mote), s.domain, obs.RouteStaleBypass)
		return false // snapshot too stale: the managing proxy decides
	}
	a, ok := rp.QueryLocal(q.Mote, rp.Now(), q.Precision)
	if !ok {
		return false
	}
	tr.Route(int64(q.Mote), s.domain, obs.RouteReplicaHit)
	cb(query.Result{Query: q, Answer: a})
	return true
}

// serveArchive is Execute's first pass for a PAST/AGG round: gate every
// mote, read the archive once for the motes that passed, then answer in
// mote order — a stale bypass is traced where its mote falls, so the
// trace's route sequence is the mote order. Motes the archive does not
// serve are queued for the proxy pass. Returns the motes that failed.
func (s *Store) serveArchive(spec query.Spec, motes []radio.NodeID, fold *query.Partial, tr *obs.Trace, cb func(query.Result)) (failed int) {
	s.gated = s.gated[:0]
	s.reqMotes, s.reqLo, s.reqHi = s.reqMotes[:0], s.reqLo[:0], s.reqHi[:0]
	for _, m := range motes {
		pid, err := s.ix.ProxyFor(m)
		if err != nil {
			failed++
			continue
		}
		g := gatedMote{mote: m, pid: pid}
		g.step, g.verdict = s.archiveGate(spec.QueryFor(m), pid)
		if g.verdict == gateRead {
			// Candidates around [T0-step, T1+step]: the slots at either
			// end may be covered by a record just outside the window.
			s.reqMotes = append(s.reqMotes, m)
			s.reqLo = append(s.reqLo, max(spec.T0-g.step, 0))
			s.reqHi = append(s.reqHi, spec.T1+g.step)
		}
		s.gated = append(s.gated, g)
	}
	var readErr error
	if n := len(s.reqMotes); n > 0 {
		for len(s.reqOut) < n {
			s.reqOut = append(s.reqOut, nil)
		}
		readErr = s.backend.QueryRanges(s.reqMotes, s.reqLo, s.reqHi, s.reqOut[:n])
	}
	k := 0
	for _, g := range s.gated {
		switch g.verdict {
		case gateStale:
			tr.Route(int64(g.mote), s.domain, obs.RouteStaleBypass)
		case gateRead:
			recs := s.reqOut[k]
			k++
			if readErr != nil || len(recs) == 0 {
				break
			}
			q := spec.QueryFor(g.mote)
			if a, ok := s.archiveAnswer(q, g.pid, recs, g.step, fold); ok {
				s.rstats.ArchiveServed++
				tr.Route(int64(g.mote), s.domain, obs.RouteArchiveHit)
				cb(query.Result{Query: q, Answer: a})
				continue
			}
		}
		failed += s.decline(g.mote, g.pid)
	}
	return failed
}

// archiveGate runs a range query's archive gates, all RAM only, and
// returns the mote's sample interval with the verdict. The archive
// declines without a read when there is no backend, the interval is
// unknown, the tail is stale, or the newest archived record cannot reach
// the last sample slot.
func (s *Store) archiveGate(q query.Query, pid index.ProxyID) (simtime.Time, int) {
	if s.backend == nil {
		return 0, gateDecline
	}
	step := s.intervals[q.Mote]
	if step <= 0 {
		return 0, gateDecline
	}
	// A freshness-bounded query whose window tail overlaps "now" (the tail
	// sits within MaxStaleness of the present) must not be answered from a
	// snapshot older than the bound: the archive may simply not have heard
	// about the tail yet, and the sample-slot coverage check cannot see
	// records that never arrived. If the archive's newest record for the
	// mote is too old, decline — the managing proxy enforces the bound end
	// to end (proxy.QueryRange pays the rendezvous).
	if q.MaxStaleness > 0 {
		if p, ok := s.proxies[pid]; ok {
			now := p.Now()
			if q.T1+simtime.Time(q.MaxStaleness) >= now {
				if last, ok := s.backend.Latest(q.Mote); !ok || now-last.T > simtime.Time(q.MaxStaleness) {
					s.rstats.ArchiveStale++
					return 0, gateStale
				}
			}
		}
	}
	// Cheap pre-check: if the newest archived record cannot cover the last
	// sample slot (the slot grid is T0-based, so it may stop short of T1),
	// the span is uncoverable — leave the mote out of the (flash
	// page-reading) range read entirely.
	lastSlot := q.T0 + (q.T1-q.T0)/step*step
	if last, ok := s.backend.Latest(q.Mote); !ok || last.T+step/2 < lastSlot {
		return 0, gateDecline
	}
	return step, gateRead
}

// slotCover walks the T0-based sample-slot grid over time-sorted recs,
// calling emit (when non-nil) for each slot's accepted record, skipping
// records shared by adjacent slots. Returns false as soon as any slot
// has no record within half a step meeting the precision. Shared by the
// materializing and folding archive paths so both accept identical
// records in identical order — the fold's float accumulation is
// bit-identical to folding the materialized entries.
func slotCover(recs []Record, t0, t1, step simtime.Time, precision float64, emit func(Record)) bool {
	j := 0
	prevT := simtime.Time(-1)
	emitted := false
	for t := t0; t <= t1; t += step {
		// recs is time-sorted and t is increasing, so the first candidate
		// at or after t only ever moves forward (no per-slot binary search).
		for j < len(recs) && recs[j].T < t {
			j++
		}
		best := -1
		if j < len(recs) {
			best = j
		}
		if j > 0 && (best == -1 || t-recs[j-1].T <= recs[j].T-t) {
			best = j - 1
		}
		if best < 0 {
			return false
		}
		r := recs[best]
		gap := r.T - t
		if gap < 0 {
			gap = -gap
		}
		if gap > step/2 || r.ErrBound > precision {
			return false // slot uncovered: proxy path decides
		}
		if emitted && r.T == prevT {
			continue // off-grid T0: two adjacent slots share one record
		}
		emitted, prevT = true, r.T
		if emit != nil {
			emit(r)
		}
	}
	return true
}

// archiveAnswer answers a range query from the archive's candidate
// records: it succeeds when every sample slot in [T0, T1] has a record
// within half a sample interval whose error bound meets the precision.
// The slot records become the answer's entries, or go into fold when one
// is given.
func (s *Store) archiveAnswer(q query.Query, pid index.ProxyID, recs []Record, step simtime.Time, fold *query.Partial) (proxy.Answer, bool) {
	var entries []cache.Entry
	emit := func(r Record) {
		entries = append(entries, cache.Entry{T: r.T, V: r.V, Source: cache.Pulled, ErrBound: r.ErrBound})
	}
	if fold != nil {
		// Coverage first, fold after: fold must stay untouched unless the
		// whole span is covered, and a fold into a temporary merged after
		// the fact would change the float accumulation order. The records
		// were just read, so the second walk is cache-hot.
		if !slotCover(recs, q.T0, q.T1, step, q.Precision, nil) {
			return proxy.Answer{}, false
		}
		emit = func(r Record) { fold.Observe(r.V, r.ErrBound) }
	}
	if !slotCover(recs, q.T0, q.T1, step, q.Precision, emit) {
		return proxy.Answer{}, false
	}
	now := simtime.Time(0)
	if p, ok := s.proxies[pid]; ok {
		now = p.Now()
	}
	return proxy.Answer{
		Mote:     q.Mote,
		Entries:  entries,
		Source:   proxy.FromArchive,
		IssuedAt: now,
		DoneAt:   now,
	}, true
}

// Detections returns the globally time-ordered detection stream in
// [t0, t1] across all proxies.
func (s *Store) Detections(t0, t1 simtime.Time) []index.Detection {
	return s.ix.ScanDetections(t0, t1)
}

// Publish adds a detection to the global index on behalf of a proxy.
func (s *Store) Publish(d index.Detection) error {
	return s.ix.PublishDetection(d)
}

// RoutingStats reports the store's routing and serving counters.
func (s *Store) RoutingStats() RoutingStats { return s.rstats }
