// Package archive implements the PRESTO mote's local archival store: the
// segment log of internal/flash configured for one mote's readings.
//
// Section 4 of the paper: "an archival file-system ... that provides
// energy-efficient archival of useful sensor data at each sensor as well as
// a simple time-based index structure to efficiently service read
// requests", and "if storage is constrained on each sensor, graceful aging
// of archived data can be enabled using wavelet-based multi-resolution
// techniques [10]".
//
// A record is a timestamp and a float32 value (12 bytes on flash),
// appended in time order. The log's index hook keeps each segment's
// [minT, maxT] and age level, a binary-searchable time index in RAM. Its
// aging hook re-encodes the oldest four segments at one quarter the
// temporal resolution (pairwise-of-pairwise means, i.e. two Haar
// approximation levels), so old data degrades in resolution instead of
// disappearing; only with fewer than four sealed is the oldest dropped.
package archive

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"

	"presto/internal/flash"
	"presto/internal/simtime"
	"presto/internal/snap"
)

// Errors returned by the store.
var (
	ErrOutOfOrder = errors.New("archive: append is older than the newest record")
	ErrTooSmall   = errors.New("archive: device needs at least 6 erase blocks")
	ErrFull       = errors.New("archive: device full and aging cannot reclaim space")
)

// ageFanIn is how many old blocks one aging pass consumes; their records
// are coarsened by the same factor, so the output fits in one quarter of
// the space and the pass nets ageFanIn-1 free blocks.
const ageFanIn = 4

// Record is one archived observation.
type Record struct {
	T simtime.Time
	V float64
}

// codec lays a record out as an int64 timestamp and a float32 value.
type codec struct{}

func (codec) Layout() (size, timeOffset int) { return 12, 0 }

func (codec) Put(slot []byte, r Record) {
	binary.LittleEndian.PutUint64(slot, uint64(r.T))
	binary.LittleEndian.PutUint32(slot[8:], math.Float32bits(float32(r.V)))
}

func (codec) Get(slot []byte) Record {
	return Record{
		T: simtime.Time(binary.LittleEndian.Uint64(slot)),
		V: float64(math.Float32frombits(binary.LittleEndian.Uint32(slot[8:]))),
	}
}

func (codec) Save(e *snap.Enc, r Record) {
	e.I64(int64(r.T))
	e.F64(r.V)
}

func (codec) Load(d *snap.Dec) Record { return Record{T: simtime.Time(d.I64()), V: d.F64()} }

// span is a segment's time index entry: the records it holds lie in
// [minT, maxT], at age level (0 = full resolution; each aging pass adds 1).
type span struct {
	minT, maxT simtime.Time
	level      int
}

func (sp span) Save(e *snap.Enc) {
	e.I64(int64(sp.minT))
	e.I64(int64(sp.maxT))
	e.Uvarint(uint64(sp.level))
}

func (span) Load(d *snap.Dec) span {
	return span{minT: simtime.Time(d.I64()), maxT: simtime.Time(d.I64()), level: int(d.Uvarint())}
}

func (span) Check(flash.Geometry, int) error { return nil }

type segment = flash.Segment[span]

// Store is the archival file system. Not safe for concurrent use (the
// simulation core is single-threaded).
type Store struct {
	log       *flash.Log[Record, span]
	newest    simtime.Time
	hasNewest bool

	appends, agePasses, dropped uint64
}

// Open initializes a store on an empty device.
func Open(dev *flash.Device) (*Store, error) {
	if dev.Geometry().NumBlocks < ageFanIn+2 {
		return nil, ErrTooSmall
	}
	s := &Store{}
	log, err := flash.NewLog(dev, flash.LogConfig[Record, span]{Codec: codec{}, Index: s.index, Age: s.age})
	if err != nil {
		return nil, fmt.Errorf("archive: %w", err)
	}
	s.log = log
	return s, nil
}

// Log returns the segment log the store configures (tests inspect and
// bend its table).
func (s *Store) Log() *flash.Log[Record, span] { return s.log }

// Append stores one record. Timestamps must be non-decreasing.
func (s *Store) Append(r Record) error {
	if s.hasNewest && r.T < s.newest {
		return ErrOutOfOrder
	}
	s.newest, s.hasNewest = r.T, true
	s.appends++
	return s.log.Append(r)
}

// Flush forces any buffered records onto flash (padding the final page).
func (s *Store) Flush() error { return s.log.Flush() }

// index extends a segment's time span over the page of recs just written.
func (s *Store) index(seg *segment, recs []Record) {
	if seg.Count == 0 {
		seg.Meta.minT = recs[0].T
	}
	seg.Meta.maxT = recs[len(recs)-1].T
}

// age coarsens the oldest ageFanIn sealed segments into out, freeing
// ageFanIn-1 blocks net. With fewer sealed it drops the oldest whole.
func (s *Store) age(sealed []segment, out *segment) (int, error) {
	if len(sealed) < ageFanIn {
		if len(sealed) == 0 {
			return 0, ErrFull
		}
		s.dropped += uint64(sealed[0].Count)
		return 1, nil
	}
	var recs []Record
	level := 0
	for i := range sealed[:ageFanIn] {
		var err error
		if recs, err = s.log.ReadSegment(&sealed[i], recs); err != nil {
			return 0, err
		}
		level = max(level, sealed[i].Meta.level)
	}
	out.Meta.level = level + 1
	if err := s.log.WriteRecords(out, coarsenRecords(recs, ageFanIn)); err != nil {
		return 0, err
	}
	s.agePasses++
	return ageFanIn, nil
}

// coarsenRecords reduces temporal resolution by factor: each group of
// factor consecutive records becomes one record carrying the group's mean
// value (two cascaded Haar approximation levels when factor is 4) and the
// group's *first* timestamp. Window-start timestamps — rather than group
// means — keep the archive's time coverage stable under repeated aging:
// the oldest timestamp never drifts forward, history only gets coarser.
func coarsenRecords(recs []Record, factor int) []Record {
	if factor < 2 || len(recs) == 0 {
		return recs
	}
	out := make([]Record, 0, (len(recs)+factor-1)/factor)
	for i := 0; i < len(recs); i += factor {
		end := i + factor
		if end > len(recs) {
			end = len(recs)
		}
		var sumV float64
		for _, r := range recs[i:end] {
			sumV += r.V
		}
		out = append(out, Record{T: recs[i].T, V: sumV / float64(end-i)})
	}
	return out
}

// Query returns all records with t0 <= T <= t1 in time order, including
// unflushed pending records. Aged regions return coarse records.
func (s *Store) Query(t0, t1 simtime.Time) ([]Record, error) {
	if t1 < t0 {
		return nil, fmt.Errorf("archive: inverted range [%v, %v]", t0, t1)
	}
	// Read every segment that may overlap, then the buffer, keeping the
	// window: segments are in time order and do not overlap, so a binary
	// search finds the first.
	var out []Record
	segs := s.log.Segs
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Meta.maxT >= t0 })
	for ; i < len(segs) && segs[i].Count > 0 && segs[i].Meta.minT <= t1; i++ {
		for p := 0; p < segs[i].Pages; p++ {
			page, err := s.log.ReadPage(segs[i].Block, p)
			if err != nil {
				return nil, err
			}
			for j := 0; j < s.log.PerPage(); j++ {
				if slot, ok := s.log.Slot(page, j); ok {
					if r := (codec{}).Get(slot); r.T >= t0 && r.T <= t1 {
						out = append(out, r)
					}
				}
			}
		}
	}
	for _, r := range s.log.Pending {
		if r.T >= t0 && r.T <= t1 {
			out = append(out, r)
		}
	}
	return out, nil
}

// LevelAt reports the resolution level covering time t (0 = full
// resolution) and whether any segment covers it.
func (s *Store) LevelAt(t simtime.Time) (int, bool) {
	for _, seg := range s.log.Segs {
		if seg.Count > 0 && t >= seg.Meta.minT && t <= seg.Meta.maxT {
			return seg.Meta.level, true
		}
	}
	for _, r := range s.log.Pending {
		if r.T == t {
			return 0, true
		}
	}
	return 0, false
}

// Bounds returns the oldest and newest archived timestamps and whether the
// store holds any data.
func (s *Store) Bounds() (oldest, newest simtime.Time, ok bool) {
	if segs := s.log.Segs; len(segs) > 0 && segs[0].Count > 0 {
		return segs[0].Meta.minT, s.newest, true
	}
	if p := s.log.Pending; len(p) > 0 {
		return p[0].T, s.newest, true
	}
	return 0, 0, false
}

// Stats reports store health for experiments.
type Stats struct {
	Appends    uint64
	AgePasses  uint64
	Dropped    uint64 // records lost to last-resort drops
	FreeBlocks int
	MaxLevel   int
	Records    int // records currently stored (flash + pending)
}

// Stats returns a snapshot of store counters.
func (s *Store) Stats() Stats {
	st := Stats{
		Appends:    s.appends,
		AgePasses:  s.agePasses,
		Dropped:    s.dropped,
		FreeBlocks: len(s.log.Free),
		Records:    len(s.log.Pending),
	}
	for _, seg := range s.log.Segs {
		st.Records += seg.Count
		st.MaxLevel = max(st.MaxLevel, seg.Meta.level)
	}
	return st
}
