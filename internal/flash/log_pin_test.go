package flash_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"presto/internal/archive"
	"presto/internal/energy"
	"presto/internal/flash"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/store"
)

// pinGeometry is small enough that a few thousand appends force several
// reclaim passes on both configurations of the segment log.
var pinGeometry = flash.Geometry{PageSize: 256, PagesPerBlock: 8, NumBlocks: 8}

// logPin is what a seeded workload left behind: the sha256 of the
// snapshot blob, the device's (reads, writes, erases) right after the
// appends, and the sha256 of a whole-range read taken afterwards.
type logPin struct {
	snap, answers        string
	reads, writes, erase uint64
	reclaims             uint64
}

func (p logPin) String() string {
	return fmt.Sprintf("snap %s ops (%d, %d, %d) answers %s reclaims %d",
		p.snap, p.reads, p.writes, p.erase, p.answers, p.reclaims)
}

func hexSum(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }

// pinArchive drives a mote archive through a seeded append workload with
// an occasional Flush (so padded partial pages occur), then snapshots it
// and its device and reads the whole range back.
func pinArchive(t testing.TB) logPin {
	dev, err := flash.New(pinGeometry, energy.DefaultParams(), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := archive.Open(dev)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	now, v := simtime.Time(0), 20.0
	for i := 0; i < 6000; i++ {
		now += simtime.Time(30+rng.Intn(60)) * simtime.Second
		v += rng.NormFloat64() / 3
		if err := st.Append(archive.Record{T: now, V: v}); err != nil {
			t.Fatal(err)
		}
		if i%777 == 776 {
			if err := st.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	var blob bytes.Buffer
	if err := st.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	if err := dev.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	// A restored copy snapshots to the same bytes.
	dev2, _ := flash.New(pinGeometry, energy.DefaultParams(), nil)
	st2, _ := archive.Open(dev2)
	r := bytes.NewReader(blob.Bytes())
	var again bytes.Buffer
	if err := st2.Restore(r); err != nil {
		t.Fatal(err)
	}
	if err := dev2.Restore(r); err != nil {
		t.Fatal(err)
	}
	if st2.Snapshot(&again) != nil || dev2.Snapshot(&again) != nil || !bytes.Equal(again.Bytes(), blob.Bytes()) {
		t.Fatal("archive snapshot -> restore -> snapshot differs")
	}
	p := logPin{snap: hexSum(blob.Bytes()), reclaims: st.Stats().AgePasses}
	p.reads, p.writes, p.erase = dev.Stats()
	recs, err := st.Query(0, now)
	if err != nil {
		t.Fatal(err)
	}
	var ans []byte
	for _, r := range recs {
		ans = binary.LittleEndian.AppendUint64(ans, uint64(r.T))
		ans = binary.LittleEndian.AppendUint64(ans, math.Float64bits(r.V))
	}
	p.answers = hexSum(ans)
	return p
}

// pinBackend drives a proxy FlashBackend under the given aging mode
// through a seeded five-mote workload with late and duplicate-timestamp
// backfills, then snapshots it (the blob carries the device) and reads
// every mote's whole range back in one set read.
func pinBackend(t testing.TB, mode string) logPin {
	fb, err := store.NewFlashBackendPolicy(pinGeometry, store.AgingPolicy{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	const motes = 5
	var vals [motes]float64
	now := simtime.Hour
	fails := 0
	for i := 0; i < 4000; i++ {
		m := rng.Intn(motes)
		now += simtime.Time(5+rng.Intn(20)) * simtime.Second
		vals[m] += rng.NormFloat64() / 2
		r := store.Record{T: now, V: vals[m], ErrBound: float64(rng.Intn(4)) / 8}
		if rng.Intn(10) == 0 {
			r.T -= simtime.Time(rng.Intn(600)) * simtime.Second // a late backfill
		}
		if fb.Append(radio.NodeID(m+1), r) != nil {
			fails++
		}
	}
	var blob bytes.Buffer
	if err := fb.Snapshot(&blob); err != nil {
		t.Fatal(err)
	}
	// A restored copy snapshots to the same bytes.
	fb2, _ := store.NewFlashBackendPolicy(pinGeometry, store.AgingPolicy{Mode: mode})
	var again bytes.Buffer
	if err := fb2.Restore(bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatal(err)
	}
	if fb2.Snapshot(&again) != nil || !bytes.Equal(again.Bytes(), blob.Bytes()) {
		t.Fatal("backend snapshot -> restore -> snapshot differs")
	}
	p := logPin{snap: hexSum(blob.Bytes()), reclaims: fb.Stats().Compactions}
	p.reads, p.writes, p.erase = fb.Device().Stats()
	ms := make([]radio.NodeID, motes)
	lo := make([]simtime.Time, motes)
	hi := make([]simtime.Time, motes)
	out := make([][]store.Record, motes)
	for i := range ms {
		ms[i], hi[i] = radio.NodeID(i+1), now
	}
	if err := fb.QueryRanges(ms, lo, hi, out); err != nil {
		t.Fatal(err)
	}
	ans := binary.LittleEndian.AppendUint64(nil, uint64(fails))
	for _, recs := range out {
		ans = binary.LittleEndian.AppendUint64(ans, uint64(len(recs)))
		for _, r := range recs {
			ans = binary.LittleEndian.AppendUint64(ans, uint64(r.T))
			ans = binary.LittleEndian.AppendUint64(ans, math.Float64bits(r.V))
			ans = binary.LittleEndian.AppendUint64(ans, math.Float64bits(r.ErrBound))
		}
	}
	p.answers = hexSum(ans)
	return p
}

// TestLogByteIdentity pins both configurations of the segment log to the
// page bytes, device operation counts, snapshot blobs and answers they
// produced before the mote archive and the proxy backend shared one core.
// A change that moves any of them changes flash energy or a stored table.
func TestLogByteIdentity(t *testing.T) {
	cases := []struct {
		name string
		run  func(testing.TB) logPin
		want logPin
	}{
		{"archive", pinArchive, logPin{
			snap:    "aff5aa0138cadcc534d26ad0c96d6363b454fa3ee4887fb0d4ba2b8e9214f213",
			answers: "818453ff53e04ab8b6c05428f82d7805a8cac2d2ae12b4bfb55b505a7956fe3f",
			reads:   320, writes: 365, erase: 40, reclaims: 10,
		}},
		{"backend/wavelet", func(t testing.TB) logPin { return pinBackend(t, store.AgingWavelet) }, logPin{
			snap:    "fe6b8c7db3a41097ec0c42e36f0d54dcdf42a56f28322a69bf00fe876644193f",
			answers: "a7a4e48bf2f5ba28e7e21f4648dfd58f6e3cb85104c5afd3fc79bed84badd2c3",
			reads:   350, writes: 392, erase: 48, reclaims: 12,
		}},
		{"backend/uniform", func(t testing.TB) logPin { return pinBackend(t, store.AgingUniform) }, logPin{
			snap:    "efbdc9d3f476234ece1c0d4b6774682039de008a9ee84fc1a18fbabd276f509d",
			answers: "36a08cb87a7c179857a0ba301b4045568e5de418a4ecc2ea9a928e3f04b3e3e5",
			reads:   379, writes: 423, erase: 48, reclaims: 12,
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := c.run(t)
			if got.reclaims < 3 {
				t.Fatalf("workload ran %d reclaim passes, want at least 3", got.reclaims)
			}
			if got != c.want {
				t.Fatalf("got  %v\nwant %v", got, c.want)
			}
		})
	}
}
