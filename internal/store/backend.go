package store

// Per-domain archival backends. The paper's proxies "keep a full archival
// store of mote data": every confirmed observation a proxy sees — pushes,
// batches, event records, archive pull responses — is appended to the
// domain's backend, and PAST/AGG queries whose span the archive covers
// within precision are answered straight from it, without touching the
// proxy cache or paying a mote rendezvous.
//
// Backend is the seam PR 1 left behind the shard worker: each simulation
// domain owns one backend instance, accessed only from that domain's
// worker goroutine, so implementations need no internal locking. Two
// implementations ship: MemBackend (sorted in-memory runs, the seed
// behaviour) and FlashBackend (flashbackend.go — a log-structured store on
// simulated NAND, the paper's flash-archival proxy design).
//
// A range read is a set operation: the store asks for all of a round's
// archive-gated motes in one QueryRanges call, and each backend fills the
// caller's reusable per-mote buffers. The mem backend copies each mote's
// run; the flash backend decodes every page it touches once for the whole
// round, however many motes' records share it.

import (
	"fmt"
	"io"
	"sort"

	"presto/internal/radio"
	"presto/internal/simtime"
)

// Record is one archived confirmed observation.
type Record struct {
	T simtime.Time
	V float64
	// ErrBound is the guaranteed |V - truth| bound: 0 for pushed values,
	// the compression quantum for lossy pull responses.
	ErrBound float64
}

// BackendStats counts backend activity. Flash-specific fields stay zero on
// the in-memory backend.
type BackendStats struct {
	Appends uint64 // records appended
	// Records is the stored-record count. The mem backend dedupes on
	// append, so it counts unique timestamps; the log-structured flash
	// backend cannot afford a read per append, so duplicate-timestamp
	// backfills count until a compaction's dedupe retires them.
	Records     uint64
	QueryRanges uint64 // per-mote range reads served (one per requested mote)
	LatestReads uint64 // Latest calls served

	// Log-structured device accounting (FlashBackend only).
	PagesWritten   uint64 // flash pages programmed
	PagesRead      uint64 // flash pages read back
	RecordsScanned uint64 // records decoded while answering queries
	RecordsMatched uint64 // records actually returned by queries
	// RecordsSkipped counts records the wavelet per-chunk directory let
	// the query path avoid decoding (other motes' chunks, or chunks
	// outside the window, in touched segments). The directory's read-amp
	// delta is ReadAmpNoDir() - ReadAmp().
	RecordsSkipped uint64
	Compactions    uint64 // segment-compaction passes
	Coarsened      uint64 // records merged away by compaction (dedupe + grid thinning)
	WaveletChunks  uint64 // wavelet summary chunks written by aging compactions
	// Dropped counts records shed unserved when the device is full and
	// compaction cannot reclaim space (the bounded pending buffer
	// overflows). Shed records leave Records, so archive-coverage ratios
	// computed from these stats reflect what the store can actually serve.
	Dropped uint64
}

// ReadAmp is the read amplification of the query path so far: records
// decoded per record returned (1 = perfectly clustered, higher = the log
// layout made queries scan unrelated data).
func (s BackendStats) ReadAmp() float64 {
	if s.RecordsMatched == 0 {
		return 0
	}
	return float64(s.RecordsScanned) / float64(s.RecordsMatched)
}

// ReadAmpNoDir is what ReadAmp would have been without the wavelet
// per-chunk directory: every record the directory skipped would have
// been decoded. The difference against ReadAmp is the directory's
// saving.
func (s BackendStats) ReadAmpNoDir() float64 {
	if s.RecordsMatched == 0 {
		return 0
	}
	return float64(s.RecordsScanned+s.RecordsSkipped) / float64(s.RecordsMatched)
}

// Backend is a per-domain archival store of confirmed mote observations.
// Implementations are confined to one shard worker and need not be safe
// for concurrent use.
type Backend interface {
	// Append archives one confirmed observation. Out-of-order timestamps
	// are legal (pull responses backfill history); negative ones are
	// refused with a *NegativeTimeError.
	Append(m radio.NodeID, r Record) error
	// QueryRanges is the range read: for every i it sets out[i] to mote
	// ms[i]'s archived records with lo[i] <= T <= hi[i], in time order,
	// deduplicated by timestamp (tightest error bound wins), reusing
	// out[i]'s storage. The slices must have equal lengths; a mote may
	// appear more than once.
	QueryRanges(ms []radio.NodeID, lo, hi []simtime.Time, out [][]Record) error
	// QueryRange is the one-mote case of QueryRanges, returning a fresh
	// slice.
	QueryRange(m radio.NodeID, t0, t1 simtime.Time) ([]Record, error)
	// Latest returns the newest archived record for a mote.
	Latest(m radio.NodeID) (Record, bool)
	// Stats returns cumulative counters.
	Stats() BackendStats
	// Snapshot externalizes the backend's full state as deterministic
	// bytes (same state, same bytes). It must not mutate the backend.
	Snapshot(w io.Writer) error
	// Restore overwrites the backend with state captured by Snapshot on
	// a backend of the same kind and geometry.
	Restore(r io.Reader) error
}

// NegativeTimeError is Append's refusal of a record timestamped before
// time zero, which no backend archives.
type NegativeTimeError struct {
	Mote radio.NodeID
	T    simtime.Time
}

func (e *NegativeTimeError) Error() string {
	return fmt.Sprintf("store: mote %d record at negative time %d", e.Mote, e.T)
}

// checkRanges validates the shape of a QueryRanges request.
func checkRanges(ms []radio.NodeID, lo, hi []simtime.Time, out [][]Record) error {
	if len(lo) != len(ms) || len(hi) != len(ms) || len(out) != len(ms) {
		return fmt.Errorf("store: range read with %d motes, %d/%d bounds, %d outputs", len(ms), len(lo), len(hi), len(out))
	}
	for i := range ms {
		if hi[i] < lo[i] {
			return fmt.Errorf("store: inverted range [%v, %v]", lo[i], hi[i])
		}
	}
	return nil
}

// queryOne is QueryRange on top of a backend's QueryRanges.
func queryOne(b Backend, m radio.NodeID, t0, t1 simtime.Time) ([]Record, error) {
	out := [][]Record{nil}
	if err := b.QueryRanges([]radio.NodeID{m}, []simtime.Time{t0}, []simtime.Time{t1}, out); err != nil {
		return nil, err
	}
	return out[0], nil
}

// MemBackend archives records in per-mote time-sorted slices.
type MemBackend struct {
	series map[radio.NodeID][]Record
	stats  BackendStats
}

// NewMemBackend returns an empty in-memory backend.
func NewMemBackend() *MemBackend {
	return &MemBackend{series: make(map[radio.NodeID][]Record)}
}

// Append inserts in time order; a record at an existing timestamp replaces
// the stored one only if its error bound is tighter (refinement). A
// negative timestamp is refused, as FlashBackend refuses it.
func (b *MemBackend) Append(m radio.NodeID, r Record) error {
	if r.T < 0 {
		return &NegativeTimeError{Mote: m, T: r.T}
	}
	b.stats.Appends++
	s := b.series[m]
	i := sort.Search(len(s), func(i int) bool { return s[i].T >= r.T })
	if i < len(s) && s[i].T == r.T {
		if r.ErrBound <= s[i].ErrBound {
			s[i] = r
		}
		return nil
	}
	s = append(s, Record{})
	copy(s[i+1:], s[i:])
	s[i] = r
	b.series[m] = s
	b.stats.Records++
	return nil
}

// QueryRange returns the archived records in [t0, t1] in a fresh slice.
func (b *MemBackend) QueryRange(m radio.NodeID, t0, t1 simtime.Time) ([]Record, error) {
	return queryOne(b, m, t0, t1)
}

// QueryRanges copies each requested window of a mote's sorted run into
// out[i]; allocation-free once out's buffers have grown.
func (b *MemBackend) QueryRanges(ms []radio.NodeID, lo, hi []simtime.Time, out [][]Record) error {
	if err := checkRanges(ms, lo, hi, out); err != nil {
		return err
	}
	for i, m := range ms {
		s := b.series[m]
		a := sort.Search(len(s), func(j int) bool { return s[j].T >= lo[i] })
		z := sort.Search(len(s), func(j int) bool { return s[j].T > hi[i] })
		out[i] = append(out[i][:0], s[a:z]...)
		b.stats.QueryRanges++
		b.stats.RecordsScanned += uint64(z - a)
		b.stats.RecordsMatched += uint64(z - a)
	}
	return nil
}

// Latest returns the newest record for a mote.
func (b *MemBackend) Latest(m radio.NodeID) (Record, bool) {
	b.stats.LatestReads++
	s := b.series[m]
	if len(s) == 0 {
		return Record{}, false
	}
	return s[len(s)-1], true
}

// Stats returns cumulative counters.
func (b *MemBackend) Stats() BackendStats { return b.stats }

// dedupeSorted collapses records sharing a timestamp in a time-sorted
// slice, keeping the tightest error bound. Used by backends whose storage
// layout can hold both a pushed value and a lossy pulled copy of the same
// sample.
func dedupeSorted(recs []Record) []Record {
	if len(recs) < 2 {
		return recs
	}
	out := recs[:1]
	for _, r := range recs[1:] {
		last := &out[len(out)-1]
		if r.T == last.T {
			if r.ErrBound <= last.ErrBound {
				*last = r
			}
			continue
		}
		out = append(out, r)
	}
	return out
}
