// Package cache implements the PRESTO proxy's per-sensor summary cache.
//
// Section 3: the cache "differs significantly from both memory caches as
// well as web caches in that the cached data is either a lossy view or a
// higher-level semantic event-based view of the sensor data", and it "can
// be progressively refined as more accurate data is obtained from the
// remote sensors or as queries on past data result in missing portions of
// the cache being filled up".
//
// Every entry carries provenance (pushed / pulled / predicted) and an
// error bound: confirmed (pushed and pulled) values carry the bound of the
// codec that delivered them (0 for raw samples, the codec's bound for
// lossy batches and pulls); predicted values carry the model-driven-push
// threshold delta as their bound. Queries use the bound to decide whether
// a cached or extrapolated answer meets the requested precision — the
// mechanism behind experiment E6. A series keeps one copy per timestamp,
// the tightest confirmed one, so the confirmed entries are the proxy's
// archive of everything its mote confirmed.
package cache

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"presto/internal/model"
	"presto/internal/simtime"
)

// Source says how an entry got into the cache.
type Source int

// Provenance values, ordered by authority: at equal error bounds a higher
// source may replace a lower one at the same timestamp, never the reverse.
const (
	Predicted Source = iota // proxy model extrapolation
	Pulled                  // fetched from the mote archive (possibly lossy)
	Pushed                  // sent by the mote on model failure (exact)
)

// String names the source.
func (s Source) String() string {
	switch s {
	case Predicted:
		return "predicted"
	case Pulled:
		return "pulled"
	case Pushed:
		return "pushed"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// Entry is one cached observation.
type Entry struct {
	T        simtime.Time
	V        float64
	Source   Source
	ErrBound float64 // guaranteed |V - truth| <= ErrBound
}

// Series is the cache for one sensor: entries sorted by time, deduplicated
// by timestamp (tightest bound, then provenance). Not safe for concurrent
// use.
type Series struct {
	entries []Entry

	inserts, refinements uint64
}

// NewSeries returns an empty series.
func NewSeries() *Series { return &Series{} }

// Len returns the number of cached entries.
func (s *Series) Len() int { return len(s.entries) }

// find returns the index of the first entry with T >= t.
func (s *Series) find(t simtime.Time) int {
	return sort.Search(len(s.entries), func(i int) bool { return s.entries[i].T >= t })
}

// Insert adds an entry, keeping time order. At a timestamp already held,
// replaces decides which copy stays. An entry later than every other —
// a stream's next sample — appends without a search.
func (s *Series) Insert(e Entry) {
	if e.ErrBound < 0 {
		e.ErrBound = 0
	}
	if n := len(s.entries); n == 0 || e.T > s.entries[n-1].T {
		s.entries = append(s.entries, e)
		s.inserts++
		return
	}
	i := s.find(e.T)
	if i < len(s.entries) && s.entries[i].T == e.T {
		if old := s.entries[i]; replaces(e, old) {
			if e.Source > old.Source {
				s.refinements++
			}
			s.entries[i] = e
		}
		return
	}
	s.entries = append(s.entries, Entry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = e
	s.inserts++
}

// replaces reports whether e displaces old at the same timestamp. A
// prediction never displaces a confirmed entry, and any confirmed entry
// displaces a prediction. Between two confirmed copies the tighter bound
// wins, so a lossy pull cannot blur an exact sample; at equal bounds the
// stronger source wins. Equal sources at equal bounds overwrite (fresher
// data).
func replaces(e, old Entry) bool {
	if e.Source != Predicted && old.Source != Predicted && e.ErrBound != old.ErrBound {
		return e.ErrBound < old.ErrBound
	}
	return e.Source >= old.Source
}

// InsertBatch adds many entries (e.g. a decoded pull response).
func (s *Series) InsertBatch(es []Entry) {
	for _, e := range es {
		s.Insert(e)
	}
}

// At returns the entry nearest to t within maxGap, preferring the closest
// timestamp and breaking ties toward the earlier entry.
func (s *Series) At(t simtime.Time, maxGap time.Duration) (Entry, bool) {
	return nearest(s.entries, s.find(t), t, maxGap)
}

// nearest picks between entries[i-1] and entries[i], where i is the index
// of the first entry with T >= t.
func nearest(entries []Entry, i int, t simtime.Time, maxGap time.Duration) (Entry, bool) {
	if len(entries) == 0 {
		return Entry{}, false
	}
	best := i
	if i == len(entries) || (i > 0 && t-entries[i-1].T <= entries[i].T-t) {
		best = i - 1
	}
	e := entries[best]
	gap := e.T - t
	if gap < 0 {
		gap = -gap
	}
	if time.Duration(gap) > maxGap {
		return Entry{}, false
	}
	return e, true
}

// Cursor reads a series along a query's ascending slot grid: At is
// Series.At, Shared is the model's shared history, but the position in
// the entries and the history window only ever move forward, so a window
// of N slots costs O(N + entries) and allocates nothing. The times passed
// to one cursor must not decrease, and the series must not change while
// the cursor is in use. A copy walks on its own, but copies share the
// history buffer, so only one of them may call Shared.
type Cursor struct {
	entries []Entry
	next    int // first entry with T >= the last time passed to At
	seen    int // entries[:seen] have been offered to the shared window
	limit   int
	shared  []model.Record
}

// Cursor starts a walk at t0. The shared-history window holds at most
// limit records and lives in buf, which the caller owns and may reuse
// once the cursor is done (capacity >= limit keeps it off the heap).
func (s *Series) Cursor(t0 simtime.Time, limit int, buf []model.Record) Cursor {
	c := Cursor{entries: s.entries, next: s.find(t0), limit: limit, shared: buf[:0]}
	c.seen = c.next
	for i := c.next - 1; i >= 0 && len(c.shared) < limit; i-- {
		if e := s.entries[i]; e.Source != Predicted {
			c.shared = append(c.shared, model.Record{T: e.T, V: e.V})
		}
	}
	slices.Reverse(c.shared)
	return c
}

// At is Series.At for the next slot.
func (c *Cursor) At(t simtime.Time, maxGap time.Duration) (Entry, bool) {
	for c.next < len(c.entries) && c.entries[c.next].T < t {
		c.next++
	}
	return nearest(c.entries, c.next, t, maxGap)
}

// Next returns the time of the first entry at or after the last time
// passed to At, if there is one: where a stretch of slots that At found
// no entry for ends.
func (c *Cursor) Next() (simtime.Time, bool) {
	if c.next == len(c.entries) {
		return 0, false
	}
	return c.entries[c.next].T, true
}

// Shared returns the last <= limit confirmed entries with T <= t as model
// records, oldest first — the shared history a prediction at t keys off
// (see internal/model). The slice is the cursor's buffer: it is
// overwritten by the next call.
func (c *Cursor) Shared(t simtime.Time) []model.Record {
	for ; c.seen < len(c.entries) && c.entries[c.seen].T <= t; c.seen++ {
		e := c.entries[c.seen]
		if e.Source == Predicted || c.limit <= 0 {
			continue
		}
		if len(c.shared) == c.limit {
			c.shared = c.shared[:copy(c.shared, c.shared[1:])]
		}
		c.shared = append(c.shared, model.Record{T: e.T, V: e.V})
	}
	return c.shared
}

// Range returns entries with t0 <= T <= t1 in time order.
func (s *Series) Range(t0, t1 simtime.Time) []Entry {
	if t1 < t0 {
		return nil
	}
	lo := s.find(t0)
	hi := s.find(t1 + 1)
	out := make([]Entry, hi-lo)
	copy(out, s.entries[lo:hi])
	return out
}

// LastConfirmed returns the newest pushed or pulled entry, if any.
// Confirmed entries are the "shared history" that model predictions key
// off (see internal/model).
func (s *Series) LastConfirmed() (Entry, bool) {
	for i := len(s.entries) - 1; i >= 0; i-- {
		if s.entries[i].Source != Predicted {
			return s.entries[i], true
		}
	}
	return Entry{}, false
}

// ConfirmedRange returns confirmed entries in [t0, t1] as model records,
// e.g. as training data for model refresh.
func (s *Series) ConfirmedRange(t0, t1 simtime.Time) []model.Record {
	var out []model.Record
	for _, e := range s.Range(t0, t1) {
		if e.Source != Predicted {
			out = append(out, model.Record{T: e.T, V: e.V})
		}
	}
	return out
}

// Stats reports cache health.
type Stats struct {
	Entries     int
	Confirmed   int
	Predicted   int
	Inserts     uint64
	Refinements uint64
}

// Stats returns a snapshot.
func (s *Series) Stats() Stats {
	st := Stats{Entries: len(s.entries), Inserts: s.inserts, Refinements: s.refinements}
	for _, e := range s.entries {
		if e.Source == Predicted {
			st.Predicted++
		} else {
			st.Confirmed++
		}
	}
	return st
}
