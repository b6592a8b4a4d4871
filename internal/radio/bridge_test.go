package radio

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"presto/internal/simtime"
)

func TestBridgeDeliversAcrossDomains(t *testing.T) {
	b := NewBridge(2 * time.Millisecond)
	simA, simB := simtime.New(1), simtime.New(2)
	var got []BridgeMsg
	b.AttachDomain(0, simA, func(m BridgeMsg) { got = append(got, m) })
	b.AttachDomain(1, simB, func(BridgeMsg) {})

	b.Send(BridgeMsg{Src: 1, Dst: 0, Mote: 7, Kind: 3, Payload: []byte{1, 2}})
	b.Send(BridgeMsg{Src: 1, Dst: 0, Mote: 8, Kind: 4})
	if len(got) != 0 {
		t.Fatal("delivered before drain")
	}
	if n := b.Drain(0); n != 2 {
		t.Fatalf("drained %d, want 2", n)
	}
	simA.RunFor(time.Millisecond)
	if len(got) != 0 {
		t.Fatal("delivered before the wired latency elapsed")
	}
	simA.RunFor(5 * time.Millisecond)
	if len(got) != 2 || got[0].Mote != 7 || got[1].Mote != 8 {
		t.Fatalf("got %+v", got)
	}
	sent, delivered := b.Stats()
	if sent != 2 || delivered != 2 {
		t.Fatalf("stats sent=%d delivered=%d", sent, delivered)
	}
}

func TestBridgeDropsUnknownDomain(t *testing.T) {
	b := NewBridge(0)
	b.Send(BridgeMsg{Dst: 9})
	if sent, _ := b.Stats(); sent != 0 {
		t.Fatalf("unknown destination accepted: sent=%d", sent)
	}
	if n := b.Drain(9); n != 0 {
		t.Fatalf("drained %d from unknown domain", n)
	}
}

func TestBridgeUplinkForwardsUnhostedDomains(t *testing.T) {
	// A windowed (cluster-site) process hosts only some domains; traffic
	// for the rest leaves through the uplink instead of dropping.
	b := NewBridge(time.Millisecond)
	sim := simtime.New(1)
	b.AttachDomain(1, sim, func(BridgeMsg) {})
	var up []BridgeMsg
	b.SetUplink(func(m BridgeMsg) { up = append(up, m) })

	b.Send(BridgeMsg{Src: 1, Dst: 0, Mote: 9, Kind: 2, Payload: []byte{5}})
	if len(up) != 1 || up[0].Mote != 9 {
		t.Fatalf("uplink got %+v", up)
	}
	if sent, _ := b.Stats(); sent != 1 {
		t.Fatalf("uplinked message not counted: sent=%d", sent)
	}
	// Locally-attached destinations still use the inbox, not the uplink.
	b.Send(BridgeMsg{Src: 0, Dst: 1, Mote: 3})
	if len(up) != 1 {
		t.Fatal("local traffic leaked to the uplink")
	}
	if n := b.Drain(1); n != 1 {
		t.Fatalf("drained %d local messages, want 1", n)
	}
}

func TestBridgeConcurrentSenders(t *testing.T) {
	// Senders race from many goroutines (the cross-domain case); the
	// receiving domain drains serially.
	b := NewBridge(time.Millisecond)
	sim := simtime.New(1)
	count := 0
	b.AttachDomain(0, sim, func(BridgeMsg) { count++ })
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				b.Send(BridgeMsg{Src: DomainID(g + 1), Dst: 0, Mote: NodeID(i)})
			}
		}(g)
	}
	wg.Wait()
	b.Drain(0)
	sim.RunFor(10 * time.Millisecond)
	if count != 400 {
		t.Fatalf("delivered %d, want 400", count)
	}
}

func TestBridgeSnapshotLaunchOrderAcrossSlotReuse(t *testing.T) {
	const lat = 10 * time.Millisecond
	b := NewBridge(lat)
	sim := simtime.New(1)
	var landed []byte
	b.AttachDomain(0, sim, func(m BridgeMsg) { landed = append(landed, m.Payload[0]) })
	send := func(c byte) { b.Send(BridgeMsg{Src: 1, Dst: 0, Mote: NodeID(c), Payload: []byte{c}}) }

	send('a')
	b.Drain(0)
	sim.RunFor(lat / 2)
	send('b')
	send('c')
	b.Drain(0)
	sim.RunFor(lat / 2) // 'a' lands, freeing slot 0
	if string(landed) != "a" {
		t.Fatalf("landed %q, want a", landed)
	}
	send('d')
	b.Drain(0)
	dom := b.domains[0]
	if dom.flights.slots[0].msg.Payload[0] != 'd' {
		t.Fatal("the fourth flight did not reuse the landed flight's slot")
	}
	send('e') // stays in the inbox

	var snapA bytes.Buffer
	if err := b.SnapshotDomain(0, &snapA); err != nil {
		t.Fatal(err)
	}
	b2 := NewBridge(lat)
	sim2 := simtime.New(1)
	var order []byte
	b2.AttachDomain(0, sim2, func(m BridgeMsg) { order = append(order, m.Payload[0]) })
	if err := b2.RestoreDomain(0, bytes.NewReader(snapA.Bytes())); err != nil {
		t.Fatal(err)
	}
	for i, fl := range b2.domains[0].flights.slots {
		if want := "bcd"[i]; fl.msg.Payload[0] != want {
			t.Fatalf("restored flight %d carries %q, want %q (launch order)", i, fl.msg.Payload[0], want)
		}
	}
	var snapB bytes.Buffer
	if err := b2.SnapshotDomain(0, &snapB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapA.Bytes(), snapB.Bytes()) {
		t.Fatal("snapshot → restore → snapshot changed the bytes")
	}
	sim2.RunUntil(simtime.Second)
	if string(order) != "bcd" {
		t.Fatalf("restored flights landed %q, want bcd", order)
	}
}
