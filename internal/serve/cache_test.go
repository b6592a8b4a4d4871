package serve

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// mkAggResult fabricates a clean merged aggregate computed at instant at
// with achieved bound.
func mkAggResult(at simtime.Time, value, bound float64) query.SetResult {
	return query.SetResult{At: at, Value: value, ErrBound: bound, Count: 4}
}

// mkNowResult fabricates a clean per-mote snapshot whose worst entry
// bound is bound.
func mkNowResult(at simtime.Time, bound float64) query.SetResult {
	return query.SetResult{At: at, Results: []query.Result{{
		Query: query.Query{Mote: 1},
		Answer: proxy.Answer{Mote: 1, Source: proxy.FromModel, Entries: []cache.Entry{
			{T: at, V: 20, ErrBound: bound / 2, Source: cache.Predicted},
			{T: at - simtime.Minute, V: 19, ErrBound: bound, Source: cache.Predicted},
		}},
	}}}
}

// TestCacheSemanticContract is the safety property: a hit is NEVER
// served whose achieved error bound exceeds the request's precision, or
// whose age exceeds the request's staleness allowance — across random
// insert/lookup/clock-advance interleavings, for NOW, fixed-window and
// trailing-window specs.
func TestCacheSemanticContract(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 5000
	c := NewAnswerCache(CacheConfig{MaxEntries: 64})

	// A small universe of spec shapes so inserts and lookups collide.
	shape := func() query.Spec {
		switch rng.Intn(3) {
		case 0:
			return query.Spec{Type: query.Now, Select: query.SelectMotes(radio.NodeID(1 + rng.Intn(3)))}
		case 1:
			t0 := simtime.Time(rng.Intn(4)) * simtime.Hour
			return query.Spec{Type: query.Agg, Agg: query.Mean, T0: t0, T1: t0 + 2*simtime.Hour}
		default:
			return query.Spec{Type: query.Agg, Agg: query.Max,
				Trailing: time.Duration(1+rng.Intn(3)) * time.Hour}
		}
	}

	now := simtime.Time(0)
	// Remember what was inserted per key shape so hits can be audited.
	type fact struct {
		bound float64
		at    simtime.Time
	}
	facts := map[cacheKey]fact{}

	for i := 0; i < trials; i++ {
		now += simtime.Time(rng.Intn(int(10 * time.Minute)))
		spec := shape()
		spec.Precision = float64(rng.Intn(40)) / 10 // 0 .. 3.9
		spec.MaxStaleness = time.Duration(rng.Intn(4)) * 30 * time.Minute

		if rng.Intn(2) == 0 { // insert a fresh answer for this shape
			bound := float64(rng.Intn(30)) / 10
			var res query.SetResult
			if spec.Type == query.Now {
				res = mkNowResult(now, bound)
			} else {
				res = mkAggResult(now, 20, bound)
			}
			c.Insert(spec, res)
			facts[keyFor(spec)] = fact{bound: bound, at: now}
			continue
		}

		res, ok := c.Lookup(spec, now)
		if !ok {
			continue
		}
		f, known := facts[keyFor(spec)]
		if !known {
			t.Fatalf("trial %d: hit with no recorded insert: %+v", i, res)
		}
		if f.bound > spec.Precision {
			t.Fatalf("trial %d: hit with bound %.2f > precision %.2f", i, f.bound, spec.Precision)
		}
		age := now - f.at
		stale := age > simtime.Time(spec.MaxStaleness)
		switch {
		case spec.Type == query.Now && stale:
			t.Fatalf("trial %d: NOW hit aged %v > staleness %v", i, age, spec.MaxStaleness)
		case spec.Trailing > 0 && stale:
			t.Fatalf("trial %d: trailing hit aged %v > staleness %v (stale snapshot)", i, age, spec.MaxStaleness)
		case spec.Trailing == 0 && spec.Type != query.Now && stale:
			// Fixed windows may serve old answers — but only once the
			// staleness horizon has cleared the window tail (or no bound
			// was set at all). Inside the overlap, stale is a bug.
			if spec.MaxStaleness > 0 && spec.T1+simtime.Time(spec.MaxStaleness) >= now {
				t.Fatalf("trial %d: fixed-window hit aged %v inside the staleness overlap", i, age)
			}
		}
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("property test never exercised a hit")
	}
	if st.Misses == 0 {
		t.Fatal("property test never exercised a miss")
	}
}

// TestCacheTrailingNeverStale pins the satellite requirement directly: a
// trailing window re-binds [now-d, now] at execution, so a cached round
// must never answer once the clock has moved past its staleness
// allowance — and with no allowance at all, any clock movement at all
// invalidates it.
func TestCacheTrailingNeverStale(t *testing.T) {
	c := NewAnswerCache(CacheConfig{})
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, Trailing: time.Hour, Precision: 1}
	at := 10 * simtime.Hour
	c.Insert(spec, mkAggResult(at, 20, 0.5))

	if _, ok := c.Lookup(spec, at); !ok {
		t.Fatal("un-aged lookup should hit (clock has not moved)")
	}
	if _, ok := c.Lookup(spec, at+simtime.Second); ok {
		t.Fatal("unbounded-staleness trailing lookup hit a stale snapshot")
	}
	spec.MaxStaleness = 30 * time.Minute
	if _, ok := c.Lookup(spec, at+29*simtime.Minute); !ok {
		t.Fatal("trailing lookup within the staleness allowance should hit")
	}
	if _, ok := c.Lookup(spec, at+31*simtime.Minute); ok {
		t.Fatal("trailing lookup beyond the staleness allowance hit")
	}
}

// TestCacheSemanticMatch pins the headline behaviour: a looser-precision
// repeat of the same question is answered from cache; a stricter one is
// not.
func TestCacheSemanticMatch(t *testing.T) {
	c := NewAnswerCache(CacheConfig{})
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, T0: simtime.Hour, T1: 3 * simtime.Hour, Precision: 0.5}
	now := 5 * simtime.Hour
	c.Insert(spec, mkAggResult(now, 21, 0.4)) // achieved bound 0.4

	loose := spec
	loose.Precision = 2.0
	if _, ok := c.Lookup(loose, now); !ok {
		t.Fatal("looser-precision repeat should hit")
	}
	strict := spec
	strict.Precision = 0.3
	if _, ok := c.Lookup(strict, now); ok {
		t.Fatal("stricter-precision repeat hit (bound 0.4 > precision 0.3)")
	}
	// Different mote set: a different question.
	other := spec
	other.Select = query.SelectMotes(1, 2)
	if _, ok := c.Lookup(other, now); ok {
		t.Fatal("different mote set hit the all-motes entry")
	}
	// Mote order is not part of the question.
	c.Insert(other, mkAggResult(now, 21, 0.4))
	swapped := spec
	swapped.Select = query.SelectMotes(2, 1)
	if _, ok := c.Lookup(swapped, now); !ok {
		t.Fatal("mote order changed the cache key")
	}
}

// TestCacheModePrecisionIsPartOfTheKey: Mode answers are binned at the
// requested precision, so a different precision is a different question
// even though it is "looser".
func TestCacheModePrecisionIsPartOfTheKey(t *testing.T) {
	c := NewAnswerCache(CacheConfig{})
	spec := query.Spec{Type: query.Agg, Agg: query.Mode, T0: 0, T1: simtime.Hour, Precision: 0.5}
	now := 2 * simtime.Hour
	c.Insert(spec, mkAggResult(now, 20.25, 0.3))
	loose := spec
	loose.Precision = 2.0
	if _, ok := c.Lookup(loose, now); ok {
		t.Fatal("Mode hit across precisions (bin width differs)")
	}
	if _, ok := c.Lookup(spec, now); !ok {
		t.Fatal("Mode repeat at the same precision should hit")
	}
}

// TestCacheNeverStoresDirtyRounds: errors, failed motes and dead sites
// must not be cached.
func TestCacheNeverStoresDirtyRounds(t *testing.T) {
	c := NewAnswerCache(CacheConfig{})
	spec := query.Spec{Type: query.Agg, Agg: query.Mean, T0: 0, T1: simtime.Hour, Precision: 1}
	now := 2 * simtime.Hour
	bad := []query.SetResult{
		{At: now, Err: query.ErrEmptyAggregate},
		{At: now, Value: 20, Count: 2, Failed: 1},
		{At: now, Value: 20, Count: 2, SiteErrs: []query.SiteError{{Site: 1}}},
	}
	for i, res := range bad {
		c.Insert(spec, res)
		if _, ok := c.Lookup(spec, now); ok {
			t.Fatalf("dirty round %d was cached", i)
		}
	}
	// Continuous and predicate specs are not cacheable shapes.
	cont := spec
	cont.Continuous = &query.Continuous{Every: time.Minute}
	c.Insert(cont, mkAggResult(now, 20, 0.1))
	if _, ok := c.Lookup(cont, now); ok {
		t.Fatal("continuous spec was cached")
	}
}

// TestCacheLRUAndTTL: capacity evicts least-recently-used; TTL evicts on
// wall age regardless of semantic freshness.
func TestCacheLRUAndTTL(t *testing.T) {
	c := NewAnswerCache(CacheConfig{MaxEntries: 2, TTL: time.Hour})
	wall := time.Unix(0, 0)
	c.clock = func() time.Time { return wall }
	now := simtime.Hour

	specN := func(n int) query.Spec {
		return query.Spec{Type: query.Agg, Agg: query.Mean,
			T0: simtime.Time(n) * simtime.Hour, T1: simtime.Time(n+1) * simtime.Hour, Precision: 1}
	}
	c.Insert(specN(1), mkAggResult(now, 1, 0))
	c.Insert(specN(2), mkAggResult(now, 2, 0))
	if _, ok := c.Lookup(specN(1), now); !ok { // touch 1 → 2 becomes LRU
		t.Fatal("entry 1 missing")
	}
	c.Insert(specN(3), mkAggResult(now, 3, 0)) // evicts 2
	if _, ok := c.Lookup(specN(2), now); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Lookup(specN(1), now); !ok {
		t.Fatal("recently-used entry was evicted")
	}
	wall = wall.Add(2 * time.Hour) // TTL passes
	if _, ok := c.Lookup(specN(1), now); ok {
		t.Fatal("TTL-expired entry served")
	}
	st := c.Stats()
	if st.Evictions < 2 {
		t.Fatalf("evictions=%d, want >=2 (one LRU, one TTL)", st.Evictions)
	}
}

// TestCacheHitAllocs: a hit builds its key on the stack and returns the
// stored bytes, so it allocates nothing — sorted or unsorted motes.
func TestCacheHitAllocs(t *testing.T) {
	c := NewAnswerCache(CacheConfig{})
	now := 2 * simtime.Hour
	for _, motes := range [][]radio.NodeID{
		nil,
		{1, 2, 3, 4, 5, 6, 7, 8},
		{8, 3, 5, 1, 7, 2, 6, 4},
	} {
		spec := query.Spec{Type: query.Agg, Agg: query.Mean, Select: query.SelectMotes(motes...),
			Trailing: time.Hour, Precision: 1, MaxStaleness: time.Hour}
		if _, err := c.Insert(spec, mkAggResult(now, 20, 0.5)); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := c.Lookup(spec, now); !ok {
				t.Fatal("lookup missed")
			}
		})
		if allocs != 0 {
			t.Fatalf("hit on motes %v: %v allocs, want 0", motes, allocs)
		}
	}
}

// TestCacheConcurrentHits: hits share one stored body across goroutines
// while other keys are inserted and evicted around them.
func TestCacheConcurrentHits(t *testing.T) {
	c := NewAnswerCache(CacheConfig{MaxEntries: 4})
	now := 2 * simtime.Hour
	hot := query.Spec{Type: query.Agg, Agg: query.Mean, T0: 0, T1: simtime.Hour, Precision: 1}
	want, err := c.Insert(hot, mkAggResult(now, 21, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	want = bytes.Clone(want)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if body, ok := c.Lookup(hot, now); ok && !bytes.Equal(body, want) {
					t.Errorf("goroutine %d: hit body %q, want %q", g, body, want)
					return
				}
				cold := hot
				cold.T1 = simtime.Time(2+g*1000+i) * simtime.Hour
				if _, err := c.Insert(cold, mkAggResult(now, float64(i), 0.5)); err != nil {
					t.Error(err)
					return
				}
				if g == 0 { // re-plant what eviction took
					if _, err := c.Insert(hot, mkAggResult(now, 21, 0.5)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCacheInsertReturnsServedBody: Insert hands back the body it
// encoded — for a cached and an uncacheable round alike — and a hit
// returns those very bytes.
func TestCacheInsertReturnsServedBody(t *testing.T) {
	c := NewAnswerCache(CacheConfig{})
	now := 2 * simtime.Hour
	spec := query.Spec{Type: query.Now, Select: query.SelectMotes(1), Precision: 1}
	res := mkNowResult(now, 0.5)
	body, err := c.Insert(spec, res)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := query.EncodeSetResultJSON(res)
	if err != nil {
		t.Fatal(err)
	}
	if want := append(enc, '\n'); !bytes.Equal(body, want) {
		t.Fatalf("Insert returned %q, want %q", body, want)
	}
	hit, ok := c.Lookup(spec, now)
	if !ok || !bytes.Equal(hit, body) {
		t.Fatalf("hit %q (ok=%v), want the inserted body", hit, ok)
	}
	dirty, err := c.Insert(spec, query.SetResult{At: now, Err: query.ErrNoMotes})
	if err != nil || !bytes.HasSuffix(dirty, []byte("\n")) || !bytes.Contains(dirty, []byte(query.CodeNoMotes)) {
		t.Fatalf("uncached round's body %q, %v", dirty, err)
	}
}

// TestCacheKeySeparatesQuestions: the byte key tells apart exactly the
// questions that differ in shape, and only those.
func TestCacheKeySeparatesQuestions(t *testing.T) {
	base := query.Spec{Type: query.Agg, Agg: query.Mean, Select: query.SelectMotes(2, 1),
		T0: simtime.Hour, T1: 2 * simtime.Hour, Precision: 1}
	same := []func(*query.Spec){
		func(s *query.Spec) { s.Select = query.SelectMotes(1, 2) },
		func(s *query.Spec) { s.Precision = 3 },
		func(s *query.Spec) { s.MaxStaleness = time.Hour },
		func(s *query.Spec) { s.Deadline = time.Second },
	}
	differ := []func(*query.Spec){
		func(s *query.Spec) { s.Type = query.Past },
		func(s *query.Spec) { s.Agg = query.Max },
		func(s *query.Spec) { s.T0 = 0 },
		func(s *query.Spec) { s.T1 = 3 * simtime.Hour },
		func(s *query.Spec) { s.T0, s.T1, s.Trailing = 0, 0, time.Hour },
		func(s *query.Spec) { s.Select = query.SelectMotes(1) },
		func(s *query.Spec) { s.Select = query.SelectMotes(1, 2, 2) },
		func(s *query.Spec) { s.Select = query.SelectAll() },
		func(s *query.Spec) { s.Agg = query.Mode },
	}
	for i, f := range same {
		s := base
		f(&s)
		if keyFor(s) != keyFor(base) {
			t.Errorf("same-question edit %d changed the key", i)
		}
	}
	for i, f := range differ {
		s := base
		f(&s)
		if keyFor(s) == keyFor(base) {
			t.Errorf("different-question edit %d kept the key", i)
		}
	}
	mode := base
	mode.Agg = query.Mode
	tighter := mode
	tighter.Precision = 0.5
	if keyFor(mode) == keyFor(tighter) {
		t.Error("Mode keys ignore the bin width")
	}
	negZero := mode
	negZero.Precision = math.Copysign(0, -1)
	zero := mode
	zero.Precision = 0
	if keyFor(negZero) != keyFor(zero) {
		t.Error("Mode bin widths -0 and +0 keyed apart")
	}
}
