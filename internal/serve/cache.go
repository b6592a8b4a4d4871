package serve

// The semantic answer cache. PRESTO answers carry explicit contracts —
// an achieved error bound and the virtual instant the answer was
// computed at — so the front door can serve a cached answer to ANY later
// query whose precision is looser than the cached bound and whose
// staleness allowance has not yet run out. Matching is semantic, not
// byte equality: the cache key is the *shape* of the question (mote set,
// window, operator) and the hit decision re-checks the new query's
// contract against what the cached answer actually achieved — the same
// provenance-and-bound discipline internal/cache applies per sensor,
// lifted to whole answers at the serving tier.

import (
	"math"
	"sync"
	"time"

	"presto/internal/query"
	"presto/internal/simtime"
)

// CacheConfig sizes the answer cache.
type CacheConfig struct {
	// MaxEntries bounds the cache; the least-recently-used entry is
	// evicted beyond it. 0 means DefaultCacheEntries; negative disables
	// the cache entirely.
	MaxEntries int
	// TTL is the wall-clock lifetime of an entry regardless of semantic
	// freshness — the backstop that keeps a frozen simulation clock from
	// pinning answers forever. 0 means DefaultCacheTTL.
	TTL time.Duration
}

// Cache defaults.
const (
	DefaultCacheEntries = 4096
	DefaultCacheTTL     = 5 * time.Minute
)

// CacheStats is a snapshot of cache behaviour.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Entries   int    `json:"entries"`
	Inserts   uint64 `json:"inserts"`
	Evictions uint64 `json:"evictions"`
}

// HitRatio is hits over lookups (0 when nothing was looked up).
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// cacheKey identifies the shape of a question: which motes, which window
// shape, which operator — query.Spec.AppendShapeKey's canonical bytes.
// Requested precision and staleness are NOT part of the key — they are
// contracts checked against the cached answer's achieved bound and age
// at lookup time. The one exception is Mode, whose answer is binned at
// the requested precision, so different precisions genuinely ask
// different questions there.
type cacheKey string

// keyStack sizes the stack buffer a lookup builds its key in: the 48-byte
// header plus 26 mote ids before the key spills to the heap.
const keyStack = 256

// entry is one cached answer, kept as the bytes a response writes, with
// the contract it achieved.
type entry struct {
	key cacheKey
	// body is the answer's JSON encoding with its trailing newline,
	// shared read-only with every response that serves it.
	body []byte
	// bound is the worst-case error the answer actually carries: the
	// merged ErrBound for aggregates, the worst per-entry bound for
	// NOW/PAST snapshots.
	bound float64
	// at is the virtual instant the answer was computed (its round's
	// merge clock); age at lookup is now - at.
	at simtime.Time
	// fixed marks a purely historical window ([T0, T1] given explicitly):
	// history is immutable, so age only matters while the window tail
	// still overlaps the staleness horizon, mirroring the engine's own
	// range-freshness rule.
	fixed bool
	t1    simtime.Time
	// stored is the wall-clock insertion time for TTL eviction.
	stored time.Time

	prev, next *entry // LRU list, most recent at head
}

// AnswerCache is a bounded, staleness-aware semantic answer cache. It
// stores each answer encoded, as the response body a hit writes, keyed by
// the question's shape (cacheKey) and tagged with the bound and age the
// answer achieved. Safe for concurrent use.
type AnswerCache struct {
	mu      sync.Mutex
	cfg     CacheConfig
	entries map[cacheKey]*entry
	head    *entry // most recently used
	tail    *entry // least recently used
	stats   CacheStats
	clock   func() time.Time // wall clock; replaceable in tests
}

// NewAnswerCache builds a cache with the config's limits (zero values
// take the defaults).
func NewAnswerCache(cfg CacheConfig) *AnswerCache {
	if cfg.MaxEntries == 0 {
		cfg.MaxEntries = DefaultCacheEntries
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultCacheTTL
	}
	return &AnswerCache{
		cfg:     cfg,
		entries: make(map[cacheKey]*entry),
		clock:   time.Now,
	}
}

// cacheable reports whether a spec's answers can live in the cache at
// all: one-shot and no closure selector (a closure has no canonical
// key). A Mode spec with a NaN precision has no bin width to key by.
func cacheable(spec query.Spec) bool {
	if spec.Continuous != nil || spec.Select.Where != nil {
		return false
	}
	return !(spec.Type == query.Agg && spec.Agg == query.Mode && math.IsNaN(spec.Precision))
}

// keyFor materializes a spec's cache key. Mote order is irrelevant to the
// answer (results sort by mote, merges fold in domain order), so the key
// sorts ids.
func keyFor(spec query.Spec) cacheKey {
	var buf [keyStack]byte
	return cacheKey(spec.AppendShapeKey(buf[:0]))
}

// achievedBound is the worst-case error the answer carries: the merged
// bound for aggregates, the worst per-entry bound otherwise. The second
// return is false when the answer carries no values to bound (nothing
// worth caching).
func achievedBound(res query.SetResult) (float64, bool) {
	if res.Count > 0 && len(res.Results) == 0 {
		return res.ErrBound, true
	}
	worst, any := 0.0, false
	for _, r := range res.Results {
		for _, e := range r.Answer.Entries {
			any = true
			if e.ErrBound > worst {
				worst = e.ErrBound
			}
		}
	}
	return worst, any
}

// Lookup returns the encoded body of a cached answer that satisfies the
// spec's contract, if one exists: the cached answer's achieved bound must
// be within the spec's precision, and its age within the spec's
// staleness allowance. The body is the cache's own copy, shared with
// every other hit: write it, never modify it. The key is built on the
// stack, so a hit allocates nothing.
//
// Age rules, mirroring the engine's freshness semantics:
//   - NOW and trailing windows re-bind to "now" every execution, so a
//     cached answer is a snapshot of the instant it was computed. It may
//     stand in for a new execution only while now - at <= MaxStaleness;
//     an unbounded (zero) staleness requires the clock not to have moved
//     at all — unbounded means "the engine's default guarantee", and the
//     engine would answer at the current instant.
//   - Fixed PAST/AGG windows are immutable history once the staleness
//     horizon clears the window tail (T1 + MaxStaleness < now): any age
//     hits. While the tail still overlaps the horizon, the engine itself
//     would refuse a snapshot older than the bound, so the cache does
//     too.
func (c *AnswerCache) Lookup(spec query.Spec, now simtime.Time) ([]byte, bool) {
	if c == nil || c.cfg.MaxEntries < 0 || !cacheable(spec) {
		return nil, false
	}
	var buf [keyStack]byte
	key := spec.AppendShapeKey(buf[:0])
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[cacheKey(key)]
	if ok && c.clock().Sub(e.stored) > c.cfg.TTL {
		c.remove(e)
		c.stats.Evictions++
		ok = false
	}
	if !ok || !satisfies(e, spec, now) {
		c.stats.Misses++
		return nil, false
	}
	c.moveToFront(e)
	c.stats.Hits++
	return e.body, true
}

// satisfies checks the spec's contract against the entry's achieved one.
func satisfies(e *entry, spec query.Spec, now simtime.Time) bool {
	if e.bound > spec.Precision {
		return false
	}
	age := now - e.at
	if age < 0 {
		// A cluster client's clock snapshot can lag the round's merge
		// clock by a lease; a "future" answer is simply fresh.
		age = 0
	}
	allowed := simtime.Time(spec.MaxStaleness)
	if e.fixed {
		// Purely historical once the staleness horizon clears the tail;
		// with no bound at all, history is history.
		if spec.MaxStaleness == 0 || e.t1+allowed < now {
			return true
		}
		return age <= allowed
	}
	// NOW / trailing: the answer is a snapshot of e.at.
	return age <= allowed
}

// Insert encodes a round's answer once and returns the body to write:
// its JSON encoding with a trailing newline. A clean answer is kept, as
// those same bytes, with the contract it achieved. Rounds with errors,
// failed motes or dead sites are never cached — a partial answer must
// not masquerade as the fleet's — and neither are shapes the cache does
// not key; their body is returned all the same.
func (c *AnswerCache) Insert(spec query.Spec, res query.SetResult) ([]byte, error) {
	body, err := query.EncodeSetResultJSON(res)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	if c == nil || c.cfg.MaxEntries < 0 || !cacheable(spec) {
		return body, nil
	}
	if res.Err != nil || res.Failed > 0 || len(res.SiteErrs) > 0 {
		return body, nil
	}
	bound, ok := achievedBound(res)
	if !ok {
		return body, nil
	}
	e := &entry{
		key:    keyFor(spec),
		body:   body,
		bound:  bound,
		at:     res.At,
		fixed:  spec.Trailing == 0 && spec.Type != query.Now,
		t1:     spec.T1,
		stored: c.clock(),
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, dup := c.entries[e.key]; dup {
		c.remove(old)
	}
	c.entries[e.key] = e
	c.pushFront(e)
	c.stats.Inserts++
	for len(c.entries) > c.cfg.MaxEntries {
		c.remove(c.tail)
		c.stats.Evictions++
	}
	return body, nil
}

// Stats snapshots the counters.
func (c *AnswerCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	return s
}

// ---------------------------------------------------------------------------
// Intrusive LRU list (callers hold c.mu)

func (c *AnswerCache) pushFront(e *entry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *AnswerCache) remove(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	delete(c.entries, e.key)
}

func (c *AnswerCache) moveToFront(e *entry) {
	if c.head == e {
		return
	}
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.pushFront(e)
}
