package gen

import (
	"errors"
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

func TestFromCSVGapsRepeatPrevious(t *testing.T) {
	in := "epoch,temp\n0,20.5\n1,\n2,not-a-number\n3,21.0\n"
	tr, err := FromCSV(strings.NewReader(in), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{20.5, 20.5, 20.5, 21.0}
	for i, v := range want {
		if tr.Values[i] != v {
			t.Fatalf("values %v, want %v", tr.Values, want)
		}
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
	if _, err := FromCSV(strings.NewReader("h\nx\ny\n"), 0, time.Minute); !errors.Is(err, ErrNoSamples) {
		t.Errorf("no parsable samples: got %v, want ErrNoSamples", err)
	}
}

// TestFromCSVLeadingBadRowsKeepTimeBase: blank/unparsable rows before the
// first valid sample are skipped (no invented zeros), but the surviving
// samples must keep the timestamps their row positions imply — row i of
// the file lives at i*interval whether or not earlier rows parsed.
func TestFromCSVLeadingBadRowsKeepTimeBase(t *testing.T) {
	in := "epoch,temp\n0,\n1,not-a-number\n2,21.0\n3,21.5\n"
	tr, err := FromCSV(strings.NewReader(in), 1, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Values) != 2 || tr.Values[0] != 21.0 || tr.Values[1] != 21.5 {
		t.Fatalf("values %v, want [21 21.5]", tr.Values)
	}
	if want := 2 * simtime.Minute; tr.Start != want {
		t.Fatalf("trace starts at %v, want %v (two leading rows skipped)", tr.Start, want)
	}
	if got := tr.At(0); got != 2*simtime.Minute {
		t.Fatalf("first sample at %v, want 2m", got)
	}
	// Value() honours the shifted base: asking at the skipped rows' times
	// clamps to the first real sample instead of reading a phantom zero.
	if v := tr.Value(3 * simtime.Minute); v != 21.5 {
		t.Fatalf("Value(3m) = %v, want 21.5", v)
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
