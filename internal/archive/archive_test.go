package archive

import (
	"math"
	"testing"

	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/simtime"
)

func newStore(t *testing.T, geo flash.Geometry) (*Store, *flash.Device) {
	t.Helper()
	dev, err := flash.New(geo, energy.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	return st, dev
}

func smallGeo() flash.Geometry {
	return flash.Geometry{PageSize: 120, PagesPerBlock: 4, NumBlocks: 8}
}

func TestOpenRejectsTinyDevices(t *testing.T) {
	dev, _ := flash.New(flash.Geometry{PageSize: 256, PagesPerBlock: 4, NumBlocks: 3}, energy.DefaultParams(), nil)
	if _, err := Open(dev); err != ErrTooSmall {
		t.Fatalf("err=%v, want ErrTooSmall", err)
	}
	dev2, _ := flash.New(flash.Geometry{PageSize: 8, PagesPerBlock: 4, NumBlocks: 8}, energy.DefaultParams(), nil)
	if _, err := Open(dev2); err == nil {
		t.Fatal("page smaller than a record should fail")
	}
}

func TestAppendQueryRoundTrip(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	for i := 0; i < 50; i++ {
		r := Record{T: simtime.Time(i) * simtime.Minute, V: 20 + float64(i)*0.1}
		if err := st.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := st.Query(10*simtime.Minute, 20*simtime.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 11 {
		t.Fatalf("got %d records, want 11", len(got))
	}
	for i, r := range got {
		wantT := simtime.Time(10+i) * simtime.Minute
		if r.T != wantT {
			t.Fatalf("record %d at %v, want %v", i, r.T, wantT)
		}
		if math.Abs(r.V-(20+float64(10+i)*0.1)) > 1e-4 {
			t.Fatalf("record %d value %v", i, r.V)
		}
	}
}

func TestQueryIncludesPending(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	st.Append(Record{T: simtime.Minute, V: 1})
	// Not flushed (page holds 10 records); still visible.
	got, err := st.Query(0, simtime.Hour)
	if err != nil || len(got) != 1 {
		t.Fatalf("pending records invisible: %v, %v", got, err)
	}
}

func TestFlushPersistsPartialPage(t *testing.T) {
	st, dev := newStore(t, smallGeo())
	st.Append(Record{T: simtime.Minute, V: 7})
	if err := st.Flush(); err != nil {
		t.Fatal(err)
	}
	_, w, _ := dev.Stats()
	if w == 0 {
		t.Fatal("Flush wrote nothing")
	}
	got, _ := st.Query(0, simtime.Hour)
	if len(got) != 1 || got[0].V != 7 {
		t.Fatalf("after flush: %v", got)
	}
}

func TestAppendOutOfOrder(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	st.Append(Record{T: 10 * simtime.Minute, V: 1})
	if err := st.Append(Record{T: 5 * simtime.Minute, V: 2}); err != ErrOutOfOrder {
		t.Fatalf("err=%v, want ErrOutOfOrder", err)
	}
	// Equal timestamps are allowed (multiple events in one tick).
	if err := st.Append(Record{T: 10 * simtime.Minute, V: 3}); err != nil {
		t.Fatalf("equal timestamp rejected: %v", err)
	}
}

func TestQueryInvertedRange(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	if _, err := st.Query(simtime.Hour, 0); err == nil {
		t.Fatal("inverted range should fail")
	}
}

func TestBounds(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	if _, _, ok := st.Bounds(); ok {
		t.Fatal("empty store reported bounds")
	}
	st.Append(Record{T: simtime.Minute, V: 1})
	st.Append(Record{T: 2 * simtime.Minute, V: 2})
	lo, hi, ok := st.Bounds()
	if !ok || lo != simtime.Minute || hi != 2*simtime.Minute {
		t.Fatalf("bounds %v %v %v", lo, hi, ok)
	}
}

// fill appends n records at 1-minute spacing starting at start.
func fill(t *testing.T, st *Store, start simtime.Time, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		r := Record{T: start + simtime.Time(i)*simtime.Minute, V: float64(i % 100)}
		if err := st.Append(r); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
}

func TestAgingTriggersAndPreservesCoverage(t *testing.T) {
	// Device: 8 blocks x 4 pages x 10 records = 320 records capacity.
	st, _ := newStore(t, smallGeo())
	fill(t, st, 0, 2000)
	stats := st.Stats()
	if stats.AgePasses == 0 {
		t.Fatal("no aging passes despite 6x overfill")
	}
	if stats.MaxLevel == 0 {
		t.Fatal("aging never raised resolution level")
	}
	// Old data must still be queryable, just coarser.
	old, err := st.Query(0, 100*simtime.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(old) == 0 {
		t.Fatal("aging dropped all old data; want coarse records")
	}
	// And recent data at full resolution.
	lvl, ok := st.LevelAt(1999 * simtime.Minute)
	if !ok || lvl != 0 {
		t.Fatalf("recent data level=%d ok=%v, want 0 true", lvl, ok)
	}
}

func TestAgingCoarsensOldData(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	fill(t, st, 0, 2000)
	// Old region should be at a coarser level than recent region.
	oldRecs, _ := st.Query(0, 200*simtime.Minute)
	newRecs, _ := st.Query(1800*simtime.Minute, 1999*simtime.Minute)
	if len(oldRecs) == 0 || len(newRecs) == 0 {
		t.Fatal("missing data")
	}
	oldDensity := float64(len(oldRecs)) / 200
	newDensity := float64(len(newRecs)) / 200
	if oldDensity >= newDensity {
		t.Fatalf("old density %.3f >= new density %.3f; aging should coarsen old data", oldDensity, newDensity)
	}
}

func TestAgedValuesApproximateOriginal(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	// Slowly varying signal: group means stay close to the signal.
	n := 1500
	for i := 0; i < n; i++ {
		v := 20 + 5*math.Sin(2*math.Pi*float64(i)/500)
		if err := st.Append(Record{T: simtime.Time(i) * simtime.Minute, V: v}); err != nil {
			t.Fatal(err)
		}
	}
	recs, err := st.Query(0, 300*simtime.Minute)
	if err != nil || len(recs) == 0 {
		t.Fatalf("query: %v, %d recs", err, len(recs))
	}
	for _, r := range recs {
		want := 20 + 5*math.Sin(2*math.Pi*r.T.Minutes()/500)
		// Coarse records carry window means stamped at window start, so
		// they can lag the point value by up to half a window; with the
		// deepest aging here windows reach ~30 min, bounding the offset
		// well under 2 degrees for this signal.
		if math.Abs(r.V-want) > 2.0 {
			t.Fatalf("aged record at %v: %.3f vs signal %.3f", r.T, r.V, want)
		}
	}
}

func TestStatsAccounting(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	fill(t, st, 0, 100)
	s := st.Stats()
	if s.Appends != 100 {
		t.Errorf("Appends=%d", s.Appends)
	}
	if s.Records != 100 {
		t.Errorf("Records=%d, want 100 (no aging yet)", s.Records)
	}
	if s.FreeBlocks <= 0 {
		t.Errorf("FreeBlocks=%d", s.FreeBlocks)
	}
}

func TestLevelAtUncovered(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	if _, ok := st.LevelAt(simtime.Hour); ok {
		t.Fatal("empty store claims coverage")
	}
}

func TestQueryTimeOrder(t *testing.T) {
	st, _ := newStore(t, smallGeo())
	fill(t, st, 0, 1200) // forces aging: mixed coarse + fine segments
	recs, err := st.Query(0, 1200*simtime.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].T < recs[i-1].T {
			t.Fatalf("records out of order at %d: %v < %v", i, recs[i].T, recs[i-1].T)
		}
	}
}

func TestLongRunNeverErrors(t *testing.T) {
	// Sustained 10x-capacity appends must keep working (aging reclaims).
	st, _ := newStore(t, smallGeo())
	fill(t, st, 0, 3200)
	if st.Stats().AgePasses < 2 {
		t.Fatalf("expected multiple age passes, got %d", st.Stats().AgePasses)
	}
}

func TestCoarsenRecords(t *testing.T) {
	recs := []Record{{0, 1}, {simtime.Minute, 3}, {2 * simtime.Minute, 5}, {3 * simtime.Minute, 7}, {4 * simtime.Minute, 100}}
	out := coarsenRecords(recs, 4)
	if len(out) != 2 {
		t.Fatalf("len=%d, want 2", len(out))
	}
	if out[0].V != 4 {
		t.Errorf("group mean %v, want 4", out[0].V)
	}
	if out[1].V != 100 {
		t.Errorf("tail group %v, want 100", out[1].V)
	}
	if got := coarsenRecords(recs, 1); len(got) != len(recs) {
		t.Error("factor<2 should be identity")
	}
	if got := coarsenRecords(nil, 4); len(got) != 0 {
		t.Error("empty input should stay empty")
	}
}

func TestAppendAllocFreeWithinABlock(t *testing.T) {
	// Steady-state appends (no aging) allocate nothing once their block
	// is open: the page image and the buffer are reused, and the device
	// programs each page into the arena the block got at its first.
	st, _ := newStore(t, flash.Geometry{PageSize: 252, PagesPerBlock: 64, NumBlocks: 8})
	next := simtime.Time(0)
	add := func() {
		next += simtime.Minute
		if err := st.Append(Record{T: next, V: float64(next % 7)}); err != nil {
			t.Fatal(err)
		}
	}
	page := func() {
		for i := 0; i < st.log.PerPage(); i++ {
			add()
		}
	}
	page() // opens the first block
	if n := testing.AllocsPerRun(30, page); n != 0 {
		t.Fatalf("a page of appends allocated %.0f times, want 0", n)
	}
	if n := testing.AllocsPerRun(st.log.PerPage()-2, add); n != 0 {
		t.Fatalf("an append that programs no page allocated %.0f times, want 0", n)
	}
	if st.Stats().AgePasses != 0 || st.log.Cur < 0 {
		t.Fatal("workload left the first block; the bound is for steady state")
	}
}
