package flash

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"presto/internal/energy"
	"presto/internal/snap"
)

func newDev(t *testing.T) *Device {
	t.Helper()
	d, err := New(DefaultGeometry(), energy.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestGeometry(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumPages() != g.PagesPerBlock*g.NumBlocks {
		t.Error("NumPages inconsistent")
	}
	if g.Capacity() != g.NumPages()*g.PageSize {
		t.Error("Capacity inconsistent")
	}
	bad := Geometry{PageSize: 0, PagesPerBlock: 1, NumBlocks: 1}
	if err := bad.Validate(); err == nil {
		t.Error("zero page size should fail")
	}
	if _, err := New(bad, energy.DefaultParams(), nil); err == nil {
		t.Error("New with bad geometry should fail")
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := newDev(t)
	data := []byte("hello presto archive")
	if err := d.Write(7, data); err != nil {
		t.Fatal(err)
	}
	got, err := d.Read(7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("read %q, want %q", got, data)
	}
	if !d.Written(7) || d.Written(8) {
		t.Error("Written flags wrong")
	}
}

func TestReadReturnsCopy(t *testing.T) {
	d := newDev(t)
	d.Write(0, []byte{1, 2, 3})
	got, _ := d.Read(0, nil)
	got[0] = 99
	again, _ := d.Read(0, nil)
	if again[0] != 1 {
		t.Fatal("Read exposed internal buffer")
	}
}

func TestReadIntoCallerBuffer(t *testing.T) {
	// A read into a caller's buffer reuses its storage and costs exactly
	// what a fresh-copy read costs: one read op, one page of energy.
	var m energy.Meter
	p := energy.DefaultParams()
	d, err := New(DefaultGeometry(), p, &m)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(0, []byte{1, 2, 3})
	d.Write(1, []byte{4, 5})
	buf := make([]byte, 0, d.Geometry().PageSize)
	got, err := d.Read(0, buf)
	if err != nil || !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("read into buffer: %v %v", got, err)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("read did not reuse the caller's buffer")
	}
	got, _ = d.Read(1, got)
	if !bytes.Equal(got, []byte{4, 5}) {
		t.Fatalf("second read into buffer: %v", got)
	}
	if n := testing.AllocsPerRun(10, func() { got, _ = d.Read(0, got) }); n != 0 {
		t.Fatalf("read into a large-enough buffer allocated %.0f times", n)
	}
	r, _, _ := d.Stats()
	if want := uint64(2 + 11); r != want {
		t.Fatalf("reads %d, want %d", r, want)
	}
	if e, want := m.Get(energy.FlashRead), float64(r)*float64(d.Geometry().PageSize)*p.FlashReadJPerByte; math.Abs(e-want) > 1e-12*want {
		t.Fatalf("read energy %g, want %g", e, want)
	}
}

func TestWriteCopiesInput(t *testing.T) {
	d := newDev(t)
	data := []byte{1, 2, 3}
	d.Write(0, data)
	data[0] = 99
	got, _ := d.Read(0, nil)
	if got[0] != 1 {
		t.Fatal("Write aliased caller's buffer")
	}
}

// TestWriteIntoProgrammedBlockAllocFree: a block gets its arena at its
// first program; every later page of it, and every page after an erase
// (which keeps the arena), is programmed without allocating.
func TestWriteIntoProgrammedBlockAllocFree(t *testing.T) {
	d := newDev(t)
	ppb := d.Geometry().PagesPerBlock
	data := make([]byte, d.Geometry().PageSize)
	if err := d.Write(0, data); err != nil {
		t.Fatal(err)
	}
	next := 1
	write := func() {
		if err := d.Write(next, data); err != nil {
			t.Fatal(err)
		}
		next++
	}
	if n := testing.AllocsPerRun(ppb-2, write); n != 0 {
		t.Fatalf("writing into a programmed block allocated %.1f times per page", n)
	}
	if err := d.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	next = 0
	if n := testing.AllocsPerRun(ppb-1, write); n != 0 {
		t.Fatalf("writing into an erased block allocated %.1f times per page", n)
	}
}

// TestNewAllocatesPerBlock: an unwritten device costs its block table,
// however many pages its blocks hold.
func TestNewAllocatesPerBlock(t *testing.T) {
	newBytes := func(g Geometry) uint64 {
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := New(g, energy.DefaultParams(), nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	for _, g := range []Geometry{
		{PageSize: 256, PagesPerBlock: 16, NumBlocks: 128},
		{PageSize: 256, PagesPerBlock: 1024, NumBlocks: 128},
		{PageSize: 256, PagesPerBlock: 16, NumBlocks: 1024},
	} {
		if got, limit := newBytes(g), uint64(64*g.NumBlocks+512); got > limit {
			t.Errorf("New(%+v) allocated %d bytes, want at most %d for %d blocks", g, got, limit, g.NumBlocks)
		}
	}
}

// deviceBlob encodes a device snapshot of geometry g holding pages,
// unworn and with no operations counted.
func deviceBlob(t *testing.T, g Geometry, pages map[uint64][]byte) []byte {
	t.Helper()
	var e snap.Enc
	e.Uvarint(uint64(g.PageSize))
	e.Uvarint(uint64(g.PagesPerBlock))
	e.Uvarint(uint64(g.NumBlocks))
	e.U64(0)
	e.U64(0)
	e.U64(0)
	e.Uvarint(uint64(len(pages)))
	for p := range uint64(g.NumPages() + 1) {
		if data, ok := pages[p]; ok {
			e.Uvarint(p)
			e.Bytes(data)
		}
	}
	e.Uvarint(uint64(g.NumBlocks))
	for range g.NumBlocks {
		e.U32(0)
	}
	var blob bytes.Buffer
	if err := snap.WriteBlock(&blob, snap.TagFlash, e.Data()); err != nil {
		t.Fatal(err)
	}
	return blob.Bytes()
}

// TestRestoreRefusesWhatWriteRefuses: a snapshot page a Write could not
// have programmed — longer than a page, or past the device — is refused;
// a full page and an empty one restore.
func TestRestoreRefusesWhatWriteRefuses(t *testing.T) {
	g := Geometry{PageSize: 8, PagesPerBlock: 4, NumBlocks: 2}
	for _, c := range []struct {
		name  string
		pages map[uint64][]byte
		want  string // "" restores
	}{
		{"full and empty pages", map[uint64][]byte{0: make([]byte, 8), 5: {}}, ""},
		{"page longer than a page", map[uint64][]byte{1: make([]byte, 9)}, "page size 8"},
		{"page past the device", map[uint64][]byte{8: {1}}, "out of range"},
	} {
		d, err := New(g, energy.DefaultParams(), nil)
		if err != nil {
			t.Fatal(err)
		}
		err = d.Restore(bytes.NewReader(deviceBlob(t, g, c.pages)))
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%s: err %v, want one naming %q", c.name, err, c.want)
		case c.want == "":
			for p, data := range c.pages {
				if got, err := d.Read(int(p), nil); err != nil || !bytes.Equal(got, data) {
					t.Errorf("%s: page %d reads %v, %v; want %v", c.name, p, got, err, data)
				}
			}
		}
	}
}

func TestNANDSemantics(t *testing.T) {
	d := newDev(t)
	if err := d.Write(0, []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, []byte{2}); err != ErrNotErased {
		t.Fatalf("overwrite err=%v, want ErrNotErased", err)
	}
	if err := d.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, []byte{2}); err != nil {
		t.Fatalf("write after erase failed: %v", err)
	}
}

func TestErrors(t *testing.T) {
	d := newDev(t)
	g := d.Geometry()
	if err := d.Write(-1, nil); err != ErrOutOfRange {
		t.Error("negative page write")
	}
	if err := d.Write(g.NumPages(), nil); err != ErrOutOfRange {
		t.Error("past-end page write")
	}
	if _, err := d.Read(-1, nil); err != ErrOutOfRange {
		t.Error("negative page read")
	}
	if _, err := d.Read(3, nil); err != ErrNeverWritten {
		t.Error("unwritten read")
	}
	if err := d.Write(0, make([]byte, g.PageSize+1)); err != ErrPageSize {
		t.Error("oversized write")
	}
	if err := d.EraseBlock(g.NumBlocks); err != ErrOutOfRange {
		t.Error("past-end erase")
	}
	if err := d.EraseBlock(-1); err != ErrOutOfRange {
		t.Error("negative erase")
	}
}

func TestEraseClearsWholeBlock(t *testing.T) {
	d := newDev(t)
	g := d.Geometry()
	for p := 0; p < g.PagesPerBlock; p++ {
		if err := d.Write(p, []byte{byte(p)}); err != nil {
			t.Fatal(err)
		}
	}
	// Also write a page in the next block; it must survive.
	d.Write(g.PagesPerBlock, []byte{0xAA})
	d.EraseBlock(0)
	for p := 0; p < g.PagesPerBlock; p++ {
		if d.Written(p) {
			t.Fatalf("page %d survived erase", p)
		}
	}
	got, err := d.Read(g.PagesPerBlock, nil)
	if err != nil || got[0] != 0xAA {
		t.Fatal("erase spilled into next block")
	}
}

func TestWearAndStats(t *testing.T) {
	d := newDev(t)
	d.Write(0, []byte{1})
	d.Read(0, nil)
	d.Read(0, nil)
	d.EraseBlock(0)
	d.EraseBlock(0)
	r, w, e := d.Stats()
	if r != 2 || w != 1 || e != 2 {
		t.Fatalf("stats r=%d w=%d e=%d", r, w, e)
	}
	if d.Erases(0) != 2 || d.Erases(1) != 0 {
		t.Fatalf("wear wrong: %d, %d", d.Erases(0), d.Erases(1))
	}
	if d.Erases(-1) != 0 || d.Erases(1<<20) != 0 {
		t.Error("out-of-range Erases should be 0")
	}
}

func TestEnergyCharged(t *testing.T) {
	var m energy.Meter
	p := energy.DefaultParams()
	d, err := New(DefaultGeometry(), p, &m)
	if err != nil {
		t.Fatal(err)
	}
	d.Write(0, []byte{1})
	d.Read(0, nil)
	d.EraseBlock(0)
	wantW := float64(d.Geometry().PageSize) * p.FlashWriteJPerByte
	wantR := float64(d.Geometry().PageSize) * p.FlashReadJPerByte
	if m.Get(energy.FlashWrite) != wantW {
		t.Errorf("write energy %g, want %g", m.Get(energy.FlashWrite), wantW)
	}
	if m.Get(energy.FlashRead) != wantR {
		t.Errorf("read energy %g, want %g", m.Get(energy.FlashRead), wantR)
	}
	if m.Get(energy.FlashErase) != p.FlashEraseJPerBlock {
		t.Errorf("erase energy %g", m.Get(energy.FlashErase))
	}
}

func TestBlockOf(t *testing.T) {
	d := newDev(t)
	ppb := d.Geometry().PagesPerBlock
	if d.BlockOf(0) != 0 || d.BlockOf(ppb-1) != 0 || d.BlockOf(ppb) != 1 {
		t.Error("BlockOf wrong")
	}
}

// Property: data written to distinct pages is isolated — reading any page
// returns exactly what was last written there.
func TestPropertyPageIsolation(t *testing.T) {
	f := func(writes []uint8) bool {
		d, err := New(Geometry{PageSize: 8, PagesPerBlock: 4, NumBlocks: 8}, energy.DefaultParams(), nil)
		if err != nil {
			return false
		}
		want := map[int]byte{}
		for _, w := range writes {
			page := int(w) % d.Geometry().NumPages()
			if d.Written(page) {
				continue
			}
			if err := d.Write(page, []byte{w}); err != nil {
				return false
			}
			want[page] = w
		}
		for page, v := range want {
			got, err := d.Read(page, nil)
			if err != nil || len(got) != 1 || got[0] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
