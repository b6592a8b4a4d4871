package store

// The per-domain archival backend. The paper's proxies "keep a full
// archival store of mote data". In a "mem" deployment that store is the
// proxies' caches: every confirmed observation a proxy sees — pushes,
// batches, event records, archive pull responses — is kept there once,
// at its tightest bound, and the proxy answers range queries from it. A
// "flash" deployment adds a bounded, aged tier behind the caches: every
// confirmed observation is also appended to the domain's FlashBackend
// (flashbackend.go — a log-structured store on simulated NAND, the
// paper's flash-archival proxy design), and PAST/AGG queries whose span
// it covers within precision are answered straight from it, without
// touching the proxy cache or paying a mote rendezvous.
//
// Backend is the seam behind the shard worker: each simulation domain
// owns at most one backend instance, accessed only from that domain's
// worker goroutine, so implementations need no internal locking.
//
// A range read is a set operation: the store asks for all of a round's
// archive-gated motes in one QueryRanges call, and the flash backend
// decodes every page it touches once for the whole round, however many
// motes' records share it.

import (
	"fmt"
	"io"

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

// BackendStats counts backend activity; all zero in a domain without a
// backend.
type BackendStats struct {
	Appends uint64 // records appended
	// Records is the stored-record count. The log-structured flash
	// backend cannot afford a read per append, so duplicate-timestamp
	// backfills count until a compaction's dedupe retires them.
	Records     uint64
	QueryRanges uint64 // per-mote range reads served (one per requested mote)
	LatestReads uint64 // Latest calls served

	// Log-structured device accounting.
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

// dedupeSorted collapses records sharing a timestamp in a time-sorted
// slice, keeping the tightest error bound: the flash log can hold both a
// pushed value and a lossy pulled copy of the same sample.
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
