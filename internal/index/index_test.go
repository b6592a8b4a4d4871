package index

import (
	"bytes"
	"errors"
	"sort"
	"testing"

	"presto/internal/simtime"
	"presto/internal/snap"
)

func TestMoteRouting(t *testing.T) {
	ix := New(1)
	ix.RegisterProxy(1, true)
	ix.RegisterProxy(2, false)
	ix.RegisterMote(10, 1)
	ix.RegisterMote(11, 2)
	p, err := ix.ProxyFor(10)
	if err != nil || p != 1 {
		t.Fatalf("ProxyFor(10)=%v,%v", p, err)
	}
	if _, err := ix.ProxyFor(99); err == nil {
		t.Fatal("unknown mote routed")
	}
	motes := ix.MotesOf(1)
	if len(motes) != 1 || motes[0] != 10 {
		t.Fatalf("MotesOf=%v", motes)
	}
	if len(ix.Proxies()) != 2 {
		t.Fatal("Proxies wrong")
	}
}

func TestMoteReassignment(t *testing.T) {
	ix := New(1)
	ix.RegisterProxy(1, true)
	ix.RegisterProxy(2, true)
	ix.RegisterMote(10, 1)
	ix.RegisterMote(10, 2)
	p, _ := ix.ProxyFor(10)
	if p != 2 {
		t.Fatalf("reassigned mote at %v", p)
	}
	if len(ix.MotesOf(1)) != 0 {
		t.Fatal("old proxy still lists mote")
	}
	if len(ix.MotesOf(2)) != 1 {
		t.Fatal("new proxy missing mote")
	}
}

func TestWiredReplica(t *testing.T) {
	ix := New(1)
	ix.RegisterProxy(1, true)
	ix.RegisterProxy(2, false)
	if err := ix.SetReplica(2, 1); err != nil {
		t.Fatal(err)
	}
	w, ok := ix.ReplicaFor(2)
	if !ok || w != 1 {
		t.Fatalf("ReplicaFor=%v,%v", w, ok)
	}
	if _, ok := ix.ReplicaFor(1); ok {
		t.Fatal("unexpected replica")
	}
	// Replica target must be wired.
	if err := ix.SetReplica(1, 2); err == nil {
		t.Fatal("wireless replica target accepted")
	}
	if !ix.Wired(1) || ix.Wired(2) {
		t.Fatal("Wired flags wrong")
	}
}

func TestDetectionOrdering(t *testing.T) {
	ix := New(1)
	// Publish out of order from different proxies.
	times := []simtime.Time{5 * simtime.Minute, simtime.Minute, 3 * simtime.Minute, 4 * simtime.Minute, 2 * simtime.Minute}
	for i, tt := range times {
		err := ix.PublishDetection(Detection{T: tt, Mote: 1, Proxy: ProxyID(i % 2), Kind: "vehicle"})
		if err != nil {
			t.Fatal(err)
		}
	}
	got := ix.ScanDetections(0, simtime.Hour)
	if len(got) != 5 {
		t.Fatalf("scanned %d", len(got))
	}
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i].T < got[j].T }) {
		t.Fatal("detections not time-ordered")
	}
	if ix.Published() != 5 {
		t.Fatalf("published=%d", ix.Published())
	}
}

func TestDetectionSameInstant(t *testing.T) {
	ix := New(1)
	for i := 0; i < 10; i++ {
		if err := ix.PublishDetection(Detection{T: simtime.Minute, Mote: 1, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	got := ix.ScanDetections(simtime.Minute, simtime.Minute+simtime.Second)
	if len(got) != 10 {
		t.Fatalf("same-instant detections lost: %d", len(got))
	}
}

func TestScanWindow(t *testing.T) {
	ix := New(1)
	for i := 0; i < 10; i++ {
		ix.PublishDetection(Detection{T: simtime.Time(i) * simtime.Minute, Mote: 1})
	}
	got := ix.ScanDetections(2*simtime.Minute, 5*simtime.Minute)
	if len(got) != 4 {
		t.Fatalf("window scan %d, want 4", len(got))
	}
}

func TestLookup(t *testing.T) {
	ix := New(1)
	ix.PublishDetection(Detection{T: simtime.Minute, Kind: "intruder"})
	d, ok := ix.LookupDetection(simtime.Minute)
	if !ok || d.Kind != "intruder" {
		t.Fatalf("lookup %+v %v", d, ok)
	}
	if _, ok := ix.LookupDetection(simtime.Hour); ok {
		t.Fatal("phantom detection")
	}
}

func TestHopsAccrue(t *testing.T) {
	ix := New(1)
	for i := 0; i < 200; i++ {
		ix.PublishDetection(Detection{T: simtime.Time(i) * simtime.Second})
	}
	ix.ResetHops()
	ix.ScanDetections(0, 200*simtime.Second)
	if ix.Hops() == 0 {
		t.Fatal("scan accrued no hops")
	}
}

func TestRestoreRejectsHugeCount(t *testing.T) {
	// A block whose pair count claims 2^62 elements must be refused as
	// corrupt before anything is sized by it.
	var e snap.Enc
	for i := 0; i < 6; i++ {
		e.U64(0) // published, hops, generator state
	}
	e.Uvarint(1 << 62)
	var buf bytes.Buffer
	if err := snap.WriteBlock(&buf, snap.TagIndex, e.Data()); err != nil {
		t.Fatal(err)
	}
	if err := New(1).Restore(&buf); !errors.Is(err, snap.ErrCorrupt) {
		t.Fatalf("Restore = %v, want an error wrapping snap.ErrCorrupt", err)
	}
}
