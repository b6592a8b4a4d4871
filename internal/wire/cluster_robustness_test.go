package wire_test

// The cluster frame codecs parse bytes that arrive over TCP from other
// processes — the same trust level as the radio decoders, so the same
// contract: error on arbitrary input, never panic. This extends the
// garbage-robustness suite to every new cluster codec, including the
// spec/partial payload codecs that live in internal/query (they cannot
// be tested from package wire itself without an import cycle).

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/obs"
	"presto/internal/proxy"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// clusterDecoders is every cluster frame and query payload decoder.
func clusterDecoders() []decoder {
	spec := query.Spec{Type: query.Agg, T1: simtime.Hour, Agg: query.Mean, Precision: 0.5}
	return []decoder{
		{"DecodeFrame", func(b []byte) { _, _ = wire.DecodeFrame(b) }},
		{"DecodeHello", func(b []byte) { _, _ = wire.DecodeHello(b) }},
		{"DecodeAssign", func(b []byte) { _, _ = wire.DecodeAssign(b) }},
		{"DecodeBootstrap", func(b []byte) { _, _ = wire.DecodeBootstrap(b) }},
		{"DecodeAdvance", func(b []byte) { _, _ = wire.DecodeAdvance(b) }},
		{"DecodeErrString", func(b []byte) { _, _ = wire.DecodeErrString(b) }},
		{"DecodeBridgeMsg", func(b []byte) { _, _ = wire.DecodeBridgeMsg(b) }},
		{"DecodeSnapshotReq", func(b []byte) { _, _ = wire.DecodeSnapshotReq(b) }},
		{"DecodeSnapshotChunk", func(b []byte) { _, _ = wire.DecodeSnapshotChunk(b) }},
		{"query.DecodeScatter", func(b []byte) { _, _, _, _ = query.DecodeScatter(b) }},
		{"query.DecodeRoundPartials", func(b []byte) { _, _ = query.DecodeRoundPartials(spec, b) }},
		{"query.DecodeRoundPartialsTraced", func(b []byte) { _, _, _ = query.DecodeRoundPartialsTraced(spec, b) }},
	}
}

// validClusterFrames returns real encodings of every cluster message, so
// the mutation pass flips bits in buffers that start out parseable.
func validClusterFrames() [][]byte {
	p := query.NewPartial(0.5)
	p.Observe(20.5, 0.25)
	p.Observe(21.5, 0.5)
	res := query.Result{
		Query: query.Query{Type: query.Past, Mote: 3, T1: simtime.Hour},
		Answer: proxy.Answer{
			Mote: 3, Source: proxy.FromCache, IssuedAt: simtime.Hour, DoneAt: simtime.Hour + simtime.Second,
			Entries: []cache.Entry{{T: simtime.Minute, V: 20.5, ErrBound: 0.25, Source: cache.Pushed}},
		},
	}
	parts := []query.RoundPartial{
		{Domain: 0, Partial: p, Results: []query.Result{res}},
		{Domain: 2, Partial: query.NewPartial(0.5), Failed: 1},
	}
	spec := query.Spec{Type: query.Agg, T1: simtime.Hour, Agg: query.Mean, Precision: 0.5}
	past := query.Spec{Type: query.Past, T0: simtime.Hour, T1: 2 * simtime.Hour, Precision: 0.25,
		Deadline: 30 * time.Second, MaxStaleness: 5 * time.Minute}
	traced := query.AppendScatterTrace(query.EncodeScatter(spec, []radio.NodeID{1, 2, 5}), 0x5eed)
	return [][]byte{
		wire.EncodeFrame(wire.Frame{Kind: wire.FrameScatter, Seq: 7, Payload: []byte{1, 2, 3}}),
		wire.EncodeHello(wire.Hello{Version: wire.ProtoVersion, ConfigHash: 0xdeadbeef}),
		wire.EncodeAssign(wire.Assign{Site: 1, Sites: 2, FirstShard: 2, Shards: 2, ConfigHash: 42}),
		wire.EncodeBootstrap(wire.Bootstrap{TrainFor: simtime.Time(36 * time.Hour), Bins: 48, Delta: 1.0}),
		wire.EncodeAdvance(3 * simtime.Hour),
		wire.EncodeErrString("site lost"),
		wire.EncodeBridgeMsg(radio.BridgeMsg{Src: 1, Dst: 0, Mote: 5, Kind: 2, Payload: []byte{9, 9}}),
		wire.EncodeSnapshotReq(wire.SnapshotReq{Domain: 3, Drop: true}),
		wire.EncodeSnapshotChunk(wire.SnapshotChunk{Domain: 3, Final: true, Data: []byte{0x50, 0x44, 0x53, 0x4e}}),
		query.EncodeScatter(spec, []radio.NodeID{1, 2, 5}),
		query.EncodeRoundPartials(parts),
		query.AppendTraceRoutes(query.EncodeRoundPartials(parts), []obs.Route{
			{Mote: 3, Domain: 0, Kind: obs.RouteCacheHit}, {Mote: 5, Domain: 2, Kind: obs.RouteRendezvous},
		}),
		// A traced scatter (protocol v4 trace context after the window),
		// and a Past scatter carrying the per-mote deadline and staleness.
		traced,
		query.EncodeScatter(past, []radio.NodeID{4, 9}),
		// Whole frame bodies as they cross the wire: the coordinator's
		// traced scatter, a site's ok-prefixed partials reply, and a
		// site's failed snapshot exchange (0 + error string).
		wire.EncodeFrame(wire.Frame{Kind: wire.FrameScatter, Seq: 8, Payload: traced}),
		wire.EncodeFrame(wire.Frame{Kind: wire.FramePartials, Seq: 8,
			Payload: append([]byte{1}, query.EncodeRoundPartials(parts)...)}),
		wire.EncodeFrame(wire.Frame{Kind: wire.FrameSnapshotAck, Seq: 9,
			Payload: append([]byte{0}, wire.EncodeErrString("domain 3 not hosted")...)}),
	}
}

// TestClusterDecodersNeverPanicOnGarbage mirrors the mote↔proxy
// robustness suite for the cluster frame codecs: pure random buffers and
// mutated/truncated valid frames must produce errors, never panics.
func TestClusterDecodersNeverPanicOnGarbage(t *testing.T) {
	neverPanics(t, clusterDecoders(), garbage(rand.New(rand.NewSource(77)), validClusterFrames()))
}

// TestClusterCodecRoundTrips pins the codecs' fidelity: what a site
// encodes, the coordinator decodes bit-for-bit — the property the
// cluster's bit-identical-merge guarantee rests on.
func TestClusterCodecRoundTrips(t *testing.T) {
	spec := query.Spec{
		Type: query.Agg, T0: simtime.Hour, T1: 3 * simtime.Hour, Agg: query.Mode,
		Precision: 0.5, Deadline: time.Second, MaxStaleness: 30 * time.Minute,
	}
	motes := []radio.NodeID{1, 2, 7, 19}
	gotSpec, gotMotes, gotTrace, err := query.DecodeScatter(query.EncodeScatter(spec, motes))
	if err != nil {
		t.Fatal(err)
	}
	if gotSpec.Type != spec.Type || gotSpec.Agg != spec.Agg || gotSpec.T0 != spec.T0 ||
		gotSpec.T1 != spec.T1 || gotSpec.Precision != spec.Precision ||
		gotSpec.Deadline != spec.Deadline || gotSpec.MaxStaleness != spec.MaxStaleness {
		t.Fatalf("scatter spec round-trip: %+v != %+v", gotSpec, spec)
	}
	if gotTrace != 0 {
		t.Fatalf("untraced scatter decoded trace id %d, want 0", gotTrace)
	}
	if len(gotMotes) != len(motes) {
		t.Fatalf("mote list round-trip: %v != %v", gotMotes, motes)
	}
	for i := range motes {
		if gotMotes[i] != motes[i] {
			t.Fatalf("mote list round-trip: %v != %v", gotMotes, motes)
		}
	}

	p := query.NewPartial(0.5)
	for i := 0; i < 100; i++ {
		p.Observe(20+math.Sin(float64(i)), 0.01*float64(i))
	}
	res := query.Result{
		Query: spec.QueryFor(7),
		Answer: proxy.Answer{
			Mote: 7, Source: proxy.FromPull, IssuedAt: simtime.Hour, DoneAt: simtime.Hour + 3*simtime.Second,
			Entries: []cache.Entry{
				{T: simtime.Minute, V: 20.25, ErrBound: 0.125, Source: cache.Pushed},
				{T: 2 * simtime.Minute, V: -3.5, ErrBound: 0, Source: cache.Pulled},
			},
		},
	}
	parts := []query.RoundPartial{
		{Domain: 1, Partial: p, Results: []query.Result{res}, Failed: 2},
		{Domain: 3, Partial: query.NewPartial(0.5)},
	}
	got, err := query.DecodeRoundPartials(spec, query.EncodeRoundPartials(parts))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Domain != 1 || got[1].Domain != 3 || got[0].Failed != 2 {
		t.Fatalf("round partials shape: %+v", got)
	}
	gp := got[0].Partial
	if gp.Count != p.Count || gp.Sum != p.Sum || gp.Min != p.Min || gp.Max != p.Max ||
		gp.SumErr != p.SumErr || gp.MaxErr != p.MaxErr || gp.BinWidth != p.BinWidth {
		t.Fatalf("partial round-trip: %+v != %+v", gp, p)
	}
	if len(gp.Hist) != len(p.Hist) {
		t.Fatalf("hist round-trip: %d bins != %d", len(gp.Hist), len(p.Hist))
	}
	for b, c := range p.Hist {
		if gp.Hist[b] != c {
			t.Fatalf("hist bin %d: %d != %d", b, gp.Hist[b], c)
		}
	}
	gr := got[0].Results[0]
	if gr.Query != res.Query || gr.Answer.Source != res.Answer.Source ||
		gr.Answer.IssuedAt != res.Answer.IssuedAt || gr.Answer.DoneAt != res.Answer.DoneAt {
		t.Fatalf("result round-trip: %+v != %+v", gr, res)
	}
	for i, e := range res.Answer.Entries {
		if gr.Answer.Entries[i] != e {
			t.Fatalf("entry %d round-trip: %+v != %+v", i, gr.Answer.Entries[i], e)
		}
	}

	// The merge of decoded partials equals the merge of the originals —
	// the cluster's two-level tree ends in the same SetResult.
	a := query.MergeRounds(spec, 0, 0, parts)
	b := query.MergeRounds(spec, 0, 0, got)
	if a.Value != b.Value || a.ErrBound != b.ErrBound || a.Count != b.Count {
		t.Fatalf("merged decoded partials differ: %+v vs %+v", b, a)
	}
}

// TestSnapshotCodecRoundTrips pins the protocol-v3 snapshot codecs: a
// request and each chunk of a blob survive the wire exactly, and a chunk
// decode copies its data out (the receiver assembles across frames while
// the transport reuses its read buffer).
func TestSnapshotCodecRoundTrips(t *testing.T) {
	for _, req := range []wire.SnapshotReq{{Domain: 0}, {Domain: 7, Drop: true}, {Domain: 1 << 19}} {
		got, err := wire.DecodeSnapshotReq(wire.EncodeSnapshotReq(req))
		if err != nil {
			t.Fatalf("snapshot req %+v: %v", req, err)
		}
		if got != req {
			t.Fatalf("snapshot req round-trip: %+v != %+v", got, req)
		}
	}
	rng := rand.New(rand.NewSource(9))
	blob := make([]byte, 3*wire.SnapshotChunkSize/2)
	rng.Read(blob)
	var rebuilt []byte
	for off := 0; off < len(blob); off += wire.SnapshotChunkSize {
		end := off + wire.SnapshotChunkSize
		if end > len(blob) {
			end = len(blob)
		}
		c := wire.SnapshotChunk{Domain: 2, Final: end == len(blob), Data: blob[off:end]}
		buf := wire.EncodeSnapshotChunk(c)
		got, err := wire.DecodeSnapshotChunk(buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Domain != c.Domain || got.Final != c.Final || len(got.Data) != len(c.Data) {
			t.Fatalf("chunk shape: %d/%v/%d != %d/%v/%d",
				got.Domain, got.Final, len(got.Data), c.Domain, c.Final, len(c.Data))
		}
		buf[len(buf)-1] ^= 0xFF // decoded data must not alias the frame buffer
		rebuilt = append(rebuilt, got.Data...)
	}
	if string(rebuilt) != string(blob) {
		t.Fatal("reassembled blob differs from the original")
	}
}
