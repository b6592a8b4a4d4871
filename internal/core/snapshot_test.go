package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"presto/internal/query"
	"presto/internal/snap"
)

// runSmall bootstraps a deployment and advances it far enough that every
// layer carries real state: models shipped, caches warm, archives
// populated, tickers armed, flights possibly in the air.
func runSmall(t *testing.T, n *Network) {
	t.Helper()
	if _, err := n.Bootstrap(30*time.Minute, 8, 1.0); err != nil {
		t.Fatal(err)
	}
	n.Run(17 * time.Minute)
}

// TestDomainSnapshotDeterministic is the seam's enforcement mechanism:
// snapshotting the same domain twice at the same instant yields
// identical bytes, and the first capture does not perturb the domain.
func TestDomainSnapshotDeterministic(t *testing.T) {
	n := buildSmall(t, func(c *Config) { c.Shards = 2 })
	defer n.Close()
	runSmall(t, n)

	for d := 0; d < 2; d++ {
		var a, b bytes.Buffer
		if err := n.SnapshotDomain(d, &a); err != nil {
			t.Fatalf("domain %d snapshot 1: %v", d, err)
		}
		if err := n.SnapshotDomain(d, &b); err != nil {
			t.Fatalf("domain %d snapshot 2: %v", d, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("domain %d: repeated snapshots differ (%d vs %d bytes)", d, a.Len(), b.Len())
		}
	}
}

// TestDomainSnapshotRestoreRoundTrip restores a live domain's blob onto
// a freshly built deployment and checks (a) re-snapshotting reproduces
// the blob bit-for-bit, and (b) both deployments give identical answers
// after advancing the same amount — the restored domain is the domain.
func TestDomainSnapshotRestoreRoundTrip(t *testing.T) {
	mut := func(c *Config) { c.Shards = 2 }
	orig := buildSmall(t, mut)
	defer orig.Close()
	runSmall(t, orig)

	blobs := make([]*bytes.Buffer, 2)
	for d := 0; d < 2; d++ {
		blobs[d] = new(bytes.Buffer)
		if err := orig.SnapshotDomain(d, blobs[d]); err != nil {
			t.Fatal(err)
		}
	}

	fresh := buildSmall(t, mut)
	defer fresh.Close()
	for d := 0; d < 2; d++ {
		if err := fresh.RestoreDomain(d, bytes.NewReader(blobs[d].Bytes())); err != nil {
			t.Fatalf("restore domain %d: %v", d, err)
		}
		var again bytes.Buffer
		if err := fresh.SnapshotDomain(d, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), blobs[d].Bytes()) {
			t.Fatalf("domain %d: snapshot -> restore -> snapshot differs (%d vs %d bytes)",
				d, again.Len(), blobs[d].Len())
		}
	}

	orig.Run(11 * time.Minute)
	fresh.Run(11 * time.Minute)
	for _, mid := range orig.MoteIDs() {
		now := orig.Now()
		q := query.Spec{Type: query.Past, T0: 0, T1: now, Precision: 0.5}
		ra, err := queryMote(orig, mid, q)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := queryMote(fresh, mid, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra.Answer.Entries) != len(rb.Answer.Entries) {
			t.Fatalf("mote %d: %d vs %d entries after restore",
				mid, len(ra.Answer.Entries), len(rb.Answer.Entries))
		}
		for i, ea := range ra.Answer.Entries {
			if ea != rb.Answer.Entries[i] {
				t.Fatalf("mote %d entry %d: %+v vs %+v", mid, i, ea, rb.Answer.Entries[i])
			}
		}
	}
	if orig.Now() != fresh.Now() {
		t.Fatalf("clocks diverged: %v vs %v", orig.Now(), fresh.Now())
	}
}

// TestDomainSnapshotRejectsCorruption flips bytes and truncates the blob
// at several cuts; every mutation must be rejected, never mis-restored.
func TestDomainSnapshotRejectsCorruption(t *testing.T) {
	n := buildSmall(t, nil)
	defer n.Close()
	runSmall(t, n)
	var blob bytes.Buffer
	if err := n.SnapshotDomain(0, &blob); err != nil {
		t.Fatal(err)
	}
	b := blob.Bytes()

	fresh := buildSmall(t, nil)
	defer fresh.Close()
	// Truncations at assorted depths.
	for _, cut := range []int{0, 4, 12, 13, len(b) / 3, len(b) - 5, len(b) - 1} {
		if err := fresh.RestoreDomain(0, bytes.NewReader(b[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// A flipped payload byte must fail the checksum (flip well past the
	// header so earlier structural checks don't mask the CRC).
	mut := append([]byte(nil), b...)
	mut[len(mut)/2] ^= 0xFF
	if err := fresh.RestoreDomain(0, bytes.NewReader(mut)); err == nil {
		t.Fatal("flipped byte accepted")
	}
	// Wrong domain index in the header.
	wrong := append([]byte(nil), b...)
	wrong[5] = 9
	if err := fresh.RestoreDomain(0, bytes.NewReader(wrong)); err == nil {
		t.Fatal("wrong domain accepted")
	}
	// The pristine blob must still restore onto this same network.
	if err := fresh.RestoreDomain(0, bytes.NewReader(b)); err != nil {
		t.Fatalf("pristine blob rejected after corrupt attempts: %v", err)
	}
}

// TestDomainSnapshotRefusesVersion1: a version-1 blob (whose mem
// domains carried a backend block) and a version-2 blob (whose proxy
// block carried each mote's shared history) are refused by their version
// byte, not misread into a checksum or decode error further in.
func TestDomainSnapshotRefusesVersion1(t *testing.T) {
	n := buildSmall(t, nil)
	defer n.Close()
	runSmall(t, n)
	var blob bytes.Buffer
	if err := n.SnapshotDomain(0, &blob); err != nil {
		t.Fatal(err)
	}
	for _, v := range []byte{1, 2} {
		// Re-seal the blob as version v under a valid checksum, so only
		// the version byte is wrong.
		old := bytes.Clone(blob.Bytes())
		old[4] = v
		body := old[:len(old)-4]
		cw := snap.NewWriter(io.Discard)
		if _, err := cw.Write(body); err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint32(old[len(body):], cw.Sum32())

		fresh := buildSmall(t, nil)
		err := fresh.RestoreDomain(0, bytes.NewReader(old))
		fresh.Close()
		want := fmt.Sprintf("snapshot version %d, this build reads 3", v)
		if err == nil || errors.Is(err, snap.ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("version-%d blob: err %v, want the snapshot-version refusal", v, err)
		}
	}
}

// TestAdoptDropDomain exercises elastic re-hosting inside one process: a
// domain is snapshotted, dropped, re-adopted, restored, and must answer
// exactly as an undisturbed twin deployment.
func TestAdoptDropDomain(t *testing.T) {
	mut := func(c *Config) {
		c.Shards = 2
		c.WiredFirstProxy = true
	}
	n := buildSmall(t, mut)
	defer n.Close()
	twin := buildSmall(t, mut)
	defer twin.Close()
	runSmall(t, n)
	runSmall(t, twin)

	var blob bytes.Buffer
	if err := n.SnapshotDomain(1, &blob); err != nil {
		t.Fatal(err)
	}
	if err := n.DropDomain(1); err != nil {
		t.Fatal(err)
	}
	if n.HostsDomain(1) {
		t.Fatal("still hosting dropped domain")
	}
	if _, err := n.ProxyFor(3); err == nil {
		t.Fatal("dropped domain's mote still routed")
	}
	if err := n.DropDomain(0); err == nil {
		t.Fatal("wired-replica home dropped")
	}
	if err := n.AdoptDomain(1); err != nil {
		t.Fatal(err)
	}
	if err := n.RestoreDomain(1, bytes.NewReader(blob.Bytes())); err != nil {
		t.Fatal(err)
	}

	n.Run(9 * time.Minute)
	twin.Run(9 * time.Minute)
	for _, mid := range n.MoteIDs() {
		q := query.Spec{Type: query.Past, T0: 0, T1: n.Now(), Precision: 0.5}
		ra, err := queryMote(n, mid, q)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := queryMote(twin, mid, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(ra.Answer.Entries) != len(rb.Answer.Entries) {
			t.Fatalf("mote %d: %d vs %d entries after adopt/drop",
				mid, len(ra.Answer.Entries), len(rb.Answer.Entries))
		}
		for i, ea := range ra.Answer.Entries {
			if ea != rb.Answer.Entries[i] {
				t.Fatalf("mote %d entry %d: %+v vs %+v", mid, i, ea, rb.Answer.Entries[i])
			}
		}
	}
}
