package flash_test

import (
	"bytes"
	"math"
	"runtime"
	"testing"

	"presto/internal/archive"
	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/store"
)

// A restore and the appends and reads run after it may allocate at most
// restoreAllocPerByte bytes per input byte, plus restoreAllocSlack for
// the fixed workload on pinGeometry. The densest case is a segment table
// naming one block many times: each entry costs a few input bytes, and a
// range read decodes the block's records again for every one of them.
const (
	restoreAllocPerByte = 1 << 10
	restoreAllocSlack   = 8 << 20
)

// fillRecords is enough appends to fill pinGeometry's whole device with
// 12-byte records, and so to need a reclaim from any restored table.
var fillRecords = pinGeometry.NumBlocks * pinGeometry.PagesPerBlock * (pinGeometry.PageSize / 12)

// driveArchive restores data (a device block, then an archive block, as a
// mote snapshot lays them out) into a fresh mote archive. If both are
// accepted it appends until one aging pass has run or failed, then reads
// the whole range back.
func driveArchive(data []byte) {
	dev, _ := flash.New(pinGeometry, energy.Params{}, nil)
	st, _ := archive.Open(dev)
	r := bytes.NewReader(data)
	if dev.Restore(r) != nil || st.Restore(r) != nil {
		return
	}
	_, next, _ := st.Bounds()
	reclaims := st.Stats().AgePasses + st.Stats().Dropped
	for i := 0; i < fillRecords && st.Stats().AgePasses+st.Stats().Dropped == reclaims; i++ {
		next += simtime.Minute
		if st.Append(archive.Record{T: next, V: float64(i % 17)}) != nil {
			break
		}
	}
	_, _ = st.Query(0, math.MaxInt64)
}

// driveBackend restores data into a fresh wavelet-aged FlashBackend. If
// it is accepted it appends until one compaction has run or failed, then
// reads three motes' whole ranges back. It stops at the first failure
// because a compaction that fails on its inputs is retried, whole, by
// every later append.
func driveBackend(data []byte) {
	fb, _ := store.NewFlashBackendPolicy(pinGeometry, store.AgingPolicy{Mode: store.AgingWavelet})
	if fb.Restore(bytes.NewReader(data)) != nil {
		return
	}
	compactions := fb.Stats().Compactions
	for i := 0; i < fillRecords && fb.Stats().Compactions == compactions; i++ {
		if fb.Append(radio.NodeID(1+i%3), store.Record{T: simtime.Time(i) * simtime.Minute, V: float64(i % 17)}) != nil {
			break
		}
	}
	ms := []radio.NodeID{1, 2, 3}
	lo := make([]simtime.Time, 3)
	hi := []simtime.Time{math.MaxInt64, math.MaxInt64, math.MaxInt64}
	_ = fb.QueryRanges(ms, lo, hi, make([][]store.Record, 3))
}

// logSeeds are real snapshots of both configurations: empty, part-filled
// with a pending tail, and aged past several reclaim passes.
func logSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	for _, n := range []int{0, 100, 3000} {
		dev, _ := flash.New(pinGeometry, energy.Params{}, nil)
		st, _ := archive.Open(dev)
		for i := 0; i < n; i++ {
			if err := st.Append(archive.Record{T: simtime.Time(i) * simtime.Minute, V: float64(i % 11)}); err != nil {
				tb.Fatal(err)
			}
		}
		var blob bytes.Buffer
		if err := dev.Snapshot(&blob); err != nil {
			tb.Fatal(err)
		}
		if err := st.Snapshot(&blob); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, blob.Bytes())

		fb, err := store.NewFlashBackendPolicy(pinGeometry, store.AgingPolicy{Mode: store.AgingWavelet})
		if err != nil {
			tb.Fatal(err)
		}
		for i := 0; i < n; i++ {
			_ = fb.Append(radio.NodeID(1+i%3), store.Record{T: simtime.Time(i) * simtime.Minute, V: float64(i % 11), ErrBound: float64(i%3) / 8})
		}
		blob = bytes.Buffer{}
		if err := fb.Snapshot(&blob); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, blob.Bytes())
	}
	return seeds
}

// restoreAlloc reports the bytes driving both configurations from data
// allocates. One run is measured first; a reading over bound is retaken
// as an average over several runs before it counts (the allocator
// charges a whole span when it refills a size class).
func restoreAlloc(data []byte) (got, bound uint64) {
	bound = restoreAllocPerByte*uint64(len(data)) + restoreAllocSlack
	measure := func(runs int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			driveArchive(data)
			driveBackend(data)
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
	}
	if got = measure(1); got > bound {
		got = measure(4)
	}
	return got, bound
}

// TestLogRestoreSeeds runs the fuzz property over the seed snapshots and
// over every one-byte truncation point of the smallest, so go test
// checks it without -fuzz.
func TestLogRestoreSeeds(t *testing.T) {
	seeds := logSeeds(t)
	for i, s := range seeds {
		if got, bound := restoreAlloc(s); got > bound {
			t.Fatalf("seed %d: allocated %d bytes on %d, bound %d", i, got, len(s), bound)
		}
	}
	for n := range seeds[1] {
		driveBackend(seeds[1][:n])
		driveArchive(seeds[0][:min(n, len(seeds[0]))])
	}
}

// FuzzLogRestore restores arbitrary bytes into a mote archive and into a
// wavelet-aged FlashBackend; whatever either accepts must then survive
// appends through a reclaim and a whole-range read. The properties: no
// panic, and allocation linear in the input's length.
func FuzzLogRestore(f *testing.F) {
	for _, s := range logSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, bound := restoreAlloc(data); got > bound {
			t.Fatalf("allocated %d bytes on %d, bound %d", got, len(data), bound)
		}
	})
}
