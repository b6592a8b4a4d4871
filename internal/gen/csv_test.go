package gen

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"presto/internal/simtime"
)

func TestFromCSV(t *testing.T) {
	in := "epoch,temp\n0,20.5\n1,20.7\n2,21.0\n"
	tr, err := FromCSV(strings.NewReader(in), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Values) != 3 || tr.Values[0] != 20.5 || tr.Values[2] != 21.0 {
		t.Fatalf("values %v", tr.Values)
	}
	if tr.Interval != time.Minute {
		t.Fatalf("interval %v", tr.Interval)
	}
}

// TestFromCSVGapsRepeatPrevious: a blank, unparsable or non-finite cell
// (NaN and ±Inf parse as floats but are not samples; 1e400 overflows)
// repeats the previous sample.
func TestFromCSVGapsRepeatPrevious(t *testing.T) {
	in := "epoch,temp\n0,20.5\n1,\n2,not-a-number\n3,NaN\n4,+Inf\n5,-infinity\n6,1e400\n7,21.0\n"
	tr, err := FromCSV(strings.NewReader(in), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{20.5, 20.5, 20.5, 20.5, 20.5, 20.5, 20.5, 21.0}; !slices.Equal(tr.Values, want) {
		t.Fatalf("values %v, want %v", tr.Values, want)
	}
}

func TestFromCSVRaggedRows(t *testing.T) {
	in := "a,b,c\n1,20\n2,21,extra\n"
	tr, err := FromCSV(strings.NewReader(in), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Values) != 2 || tr.Values[1] != 21 {
		t.Fatalf("values %v", tr.Values)
	}
}

func TestFromCSVErrors(t *testing.T) {
	if _, err := FromCSV(strings.NewReader("h\n1\n"), -1, time.Minute); err == nil {
		t.Error("negative column accepted")
	}
	if _, err := FromCSV(strings.NewReader("h\n1\n"), 0, 0); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := FromCSV(strings.NewReader("header-only\n"), 0, time.Minute); err == nil {
		t.Error("header-only csv accepted")
	}
	if _, err := FromCSV(strings.NewReader("h\nx\nNaN\nInf\n"), 0, time.Minute); !errors.Is(err, ErrNoSamples) {
		t.Errorf("no parsable samples: got %v, want ErrNoSamples", err)
	}
}

// TestFromCSVLeadingBadRowsKeepTimeBase: blank, unparsable or non-finite
// rows before the first valid sample are skipped (no invented zeros), but
// the surviving samples must keep the timestamps their row positions
// imply — row i of the file lives at i*interval whether or not earlier
// rows parsed.
func TestFromCSVLeadingBadRowsKeepTimeBase(t *testing.T) {
	in := "epoch,temp\n0,\n1,not-a-number\n2,-Inf\n3,21.0\n4,21.5\n"
	tr, err := FromCSV(strings.NewReader(in), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Values) != 2 || tr.Values[0] != 21.0 || tr.Values[1] != 21.5 {
		t.Fatalf("values %v, want [21 21.5]", tr.Values)
	}
	if want := 3 * simtime.Minute; tr.Start != want {
		t.Fatalf("trace starts at %v, want %v (three leading rows skipped)", tr.Start, want)
	}
	if got := tr.At(0); got != 3*simtime.Minute {
		t.Fatalf("first sample at %v, want 3m", got)
	}
	// Value() honours the shifted base: asking at the skipped rows' times
	// clamps to the first real sample instead of reading a phantom zero.
	if v := tr.Value(4 * simtime.Minute); v != 21.5 {
		t.Fatalf("Value(4m) = %v, want 21.5", v)
	}
	// A file with no leading gap still starts at zero.
	clean, err := FromCSV(strings.NewReader("epoch,temp\n0,20.0\n"), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Start != 0 {
		t.Fatalf("clean trace starts at %v, want 0", clean.Start)
	}
}

// TestWriteCSVRoundTrip: what WriteCSV writes, FromCSV reads back bit
// for bit, and the event column marks the injected events.
func TestWriteCSVRoundTrip(t *testing.T) {
	cfg := DefaultTempConfig()
	cfg.Days = 1
	cfg.EventsPerDay = 4
	traces, err := Temperature(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := traces[0]
	var b strings.Builder
	if err := WriteCSV(&b, want); err != nil {
		t.Fatal(err)
	}
	got, err := FromCSV(strings.NewReader(b.String()), 1, want.Interval)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Values, want.Values) || got.Interval != want.Interval || got.Start != want.Start {
		t.Fatalf("round trip changed the trace: %d values at %v from %v, want %d at %v from %v",
			len(got.Values), got.Interval, got.Start, len(want.Values), want.Interval, want.Start)
	}
	active, err := FromCSV(strings.NewReader(b.String()), 2, want.Interval)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range active.Values {
		if (v == 1) != want.EventActive(i) {
			t.Fatalf("sample %d: event column %v, trace says %t", i, v, want.EventActive(i))
		}
	}
}

// FuzzFromCSV: on any bytes FromCSV never panics, returns only finite
// values, allocates in proportion to its input, and reads back bit for
// bit what WriteCSV writes of any trace it returns.
func FuzzFromCSV(f *testing.F) {
	// A presto-scenario -traces file, cut to its first samples.
	cfg := DefaultTempConfig()
	cfg.Days = 1
	cfg.EventsPerDay = 4
	traces, err := Temperature(cfg)
	if err != nil {
		f.Fatal(err)
	}
	head := *traces[0]
	head.Values = head.Values[:16]
	var b strings.Builder
	if err := WriteCSV(&b, &head); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(b.String()), uint8(1))
	f.Add([]byte(b.String()), uint8(2))
	f.Add([]byte("s,v\n0,1\n1,NaN\n2,+Inf\n3,-infinity\n4,0x1p-2\n5,-0\n"), uint8(1))
	f.Add([]byte("a,b,c\n1,20\n\"2\",\"21\",extra\n3\n"), uint8(1))
	// 50,000 short rows: holding every row at once allocates over 70 B
	// per input byte here.
	f.Add([]byte("v\n"+strings.Repeat("1\n", 50000)), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, col uint8) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		tr, err := FromCSV(bytes.NewReader(data), int(col%4), time.Minute)
		runtime.ReadMemStats(&after)
		// The reader reuses one record, so its per-field arrays (under
		// 200 B a field as they grow) are paid once, for the widest row.
		// Beyond that a row costs its cell string, a sample and, for an
		// unparsable cell, ParseFloat's error: under 48 B per input byte.
		// 64 KiB covers the reader's buffers. Materialising every row,
		// as reading the whole file first did, trips it.
		wide := widestRow(data)
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+256*wide+64<<10); got > limit {
			t.Fatalf("%d input bytes (widest row %d) allocated %d bytes (limit %d)", len(data), wide, got, limit)
		}
		if err != nil {
			return
		}
		for i, v := range tr.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("sample %d is %v", i, v)
			}
		}
		var out strings.Builder
		if err := WriteCSV(&out, tr); err != nil {
			t.Fatal(err)
		}
		again, err := FromCSV(strings.NewReader(out.String()), 1, tr.Interval)
		if err != nil {
			t.Fatalf("cannot read back our own csv: %v\n%s", err, out.String())
		}
		if len(again.Values) != len(tr.Values) || again.Start != 0 {
			t.Fatalf("read back %d samples from %v, want %d from 0", len(again.Values), again.Start, len(tr.Values))
		}
		for i, v := range tr.Values {
			if math.Float64bits(again.Values[i]) != math.Float64bits(v) {
				t.Fatalf("sample %d read back as %v, want %v", i, again.Values[i], v)
			}
		}
	})
}

// widestRow returns the byte length of data's longest CSV row: rows end
// at a newline outside quotes. It never undercounts a row the csv reader
// accepts, since a quote the reader would refuse only lengthens a row
// here.
func widestRow(data []byte) int {
	widest, start, quoted := 0, 0, false
	for i, c := range data {
		switch {
		case c == '"':
			quoted = !quoted
		case c == '\n' && !quoted:
			widest = max(widest, i-start)
			start = i + 1
		}
	}
	return max(widest, len(data)-start)
}
