package cluster

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"presto/internal/core"
	"presto/internal/obs"
	"presto/internal/query"
	"presto/internal/radio"
	"presto/internal/wire"
)

// configHash fingerprints the deployment-defining parts of a Config.
// Coordinator and every site must be launched with the same deployment
// (same seed, partition, radio, store, push preset, traces) or none of
// the cluster's determinism guarantees hold; the hash turns a silent
// divergence into a join-time refusal. A preset is identified by name. Window fields are deliberately excluded — they are
// what the coordinator assigns. Trace contents are folded in (shape and
// every sample), since two processes with equally-long but different
// traces would otherwise join cleanly and diverge silently.
func configHash(cfg core.Config) uint64 {
	h := fnv.New64a()
	preset := ""
	if cfg.Preset != nil {
		preset = cfg.Preset.Name
	}
	fmt.Fprintf(h, "%d|%d|%d|%d|%v|%v|%v|%g|%q|%q|%v|%+v|%q|%t|%d",
		cfg.Seed, cfg.Proxies, cfg.MotesPerProxy, cfg.Shards,
		cfg.SampleInterval, cfg.LPLInterval, cfg.Flash,
		cfg.Delta, cfg.StoreBackend, cfg.StoreAging, cfg.StoreFlash,
		cfg.Radio, preset, cfg.WiredFirstProxy, len(cfg.Traces))
	// Per-mote heterogeneity overrides define the deployment as much as
	// the global knobs: two sites disagreeing on one mote's cadence would
	// diverge silently.
	fmt.Fprintf(h, "|msi%d", len(cfg.MoteSampleIntervals))
	for _, d := range cfg.MoteSampleIntervals {
		fmt.Fprintf(h, "|%d", d)
	}
	fmt.Fprintf(h, "|md%d", len(cfg.MoteDeltas))
	for _, d := range cfg.MoteDeltas {
		fmt.Fprintf(h, "|%x", math.Float64bits(d))
	}
	var buf [8]byte
	for _, tr := range cfg.Traces {
		fmt.Fprintf(h, "|%d|%v|%d|%d", tr.Start, tr.Interval, len(tr.Values), len(tr.Events))
		for _, v := range tr.Values {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// Serve joins a cluster as one site: dial the coordinator at addr,
// handshake (protocol version + config fingerprint), build the assigned
// window of the deployment's domains in this process, and serve frames
// until the coordinator closes the connection (a clean shutdown,
// returning nil) or ctx is cancelled.
//
// cfg must be the same global deployment config the coordinator was
// launched with; Serve applies the assigned FirstShard/SiteShards window
// itself. If the window excludes domain 0 and wired replication is on,
// the site's bridge uplink carries its proxies' replica traffic to the
// coordinator, which hosts the replica.
func Serve(ctx context.Context, t Transport, addr string, cfg core.Config) error {
	if cfg.SiteShards != 0 || cfg.FirstShard != 0 {
		return fmt.Errorf("cluster: Serve assigns the shard window itself (got [%d, +%d))",
			cfg.FirstShard, cfg.SiteShards)
	}
	conn, err := t.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()

	hash := configHash(cfg)
	if err := conn.Send(wire.Frame{
		Kind:    wire.FrameHello,
		Payload: wire.EncodeHello(wire.Hello{Version: wire.ProtoVersion, ConfigHash: hash}),
	}); err != nil {
		return err
	}
	f, err := conn.Recv()
	if err != nil {
		return fmt.Errorf("cluster: waiting for assignment: %w", err)
	}
	if f.Kind != wire.FrameAssign {
		return fmt.Errorf("cluster: expected assignment, got %v", f.Kind)
	}
	assign, err := wire.DecodeAssign(f.Payload)
	if err != nil {
		return err
	}
	if assign.ConfigHash != hash {
		return fmt.Errorf("cluster: coordinator runs a different deployment (config hash %x != %x)",
			assign.ConfigHash, hash)
	}

	cfg.FirstShard, cfg.SiteShards = assign.FirstShard, assign.Shards
	n, err := core.Build(cfg)
	if err != nil {
		return err
	}
	defer n.Close()
	if b := n.Bridge(); b != nil && assign.FirstShard > 0 {
		// Replica traffic for domains hosted elsewhere (the wired proxy's
		// domain 0 lives at the coordinator) leaves over the transport.
		// The uplink runs on a domain worker, and Conn.Send is
		// concurrency-safe and does not touch the serve loop.
		b.SetUplink(func(m radio.BridgeMsg) {
			_ = conn.Send(wire.Frame{Kind: wire.FrameBridge, Payload: wire.EncodeBridgeMsg(m)})
		})
	}

	// Unblock the serve loop's Recv when ctx ends.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()

	site := &site{Site: core.LocalSite(n), n: n, conn: conn}
	if sc, ok := conn.(SendCopier); ok {
		site.copies = sc.SendIsCopy()
	}
	if r, ok := conn.(RecvBufReuser); ok {
		// The serve loop decodes each frame before the next Recv (handle
		// copies what outlives it), so a persistent read buffer is safe.
		r.ReuseRecvBuffer()
	}
	for {
		f, err := conn.Recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// The coordinator hanging up is how a cluster run ends.
			return nil
		}
		if err := site.handle(ctx, f); err != nil {
			if errors.As(err, new(hungUp)) {
				// A reply the coordinator hung up on ends the run the
				// same way a failed Recv does.
				return ctx.Err()
			}
			return err
		}
	}
}

// site is the serving side of one joined process: a lease, scatter,
// snapshot or install frame runs the same core.LocalSite call the
// coordinator makes on its own window.
type site struct {
	core.Site
	n    *core.Network
	conn Conn
	// copies records whether conn.Send copies payloads out (SendCopier):
	// only then may pooled reply arenas be recycled after Send.
	copies bool
	// installs assembles in-flight domain-install blobs by seq: chunks of
	// one install share their FrameSnapshotChunk seq, and the final chunk
	// adopts + restores. Touched only by the serve loop.
	installs map[uint64][]byte
}

// handle executes one coordinator frame. Requests are answered with the
// frame's seq echoed; frames are handled strictly in order, which is
// what makes an advance lease a barrier — a scatter behind it executes
// at (or after) the leased instant, exactly like a command drained by an
// in-process worker mid-advance.
func (s *site) handle(ctx context.Context, f wire.Frame) error {
	switch f.Kind {
	case wire.FrameBootstrap:
		b, err := wire.DecodeBootstrap(f.Payload)
		if err != nil {
			return err
		}
		_, berr := s.n.Bootstrap(time.Duration(b.TrainFor), b.Bins, b.Delta)
		return s.reply(wire.FrameBootstrapAck, f.Seq, nil, berr)
	case wire.FrameAdvance:
		target, err := wire.DecodeAdvance(f.Payload)
		if err != nil {
			return err
		}
		_ = s.Advance(ctx, target) // a local lease cannot fail
		return s.send(wire.Frame{
			Kind: wire.FrameAdvanceAck, Seq: f.Seq, Payload: wire.EncodeAdvance(s.n.Now()),
		})
	case wire.FrameScatter:
		spec, motes, traceID, err := query.DecodeScatter(f.Payload)
		if err != nil {
			return err
		}
		// A scatter carrying trace context (protocol v4) gathers under a
		// site-local trace adopting the coordinator's id; the routing
		// decisions it collects ride back as the reply's route section.
		var tr *obs.Trace
		if traceID != 0 {
			tr = obs.NewTraceID(traceID)
		}
		// Enqueue the round's gathers synchronously — they must hit the
		// shard queues before a later advance frame's commands, which is
		// what pins the round to the leased clock — then collect, encode
		// and reply off the serve loop, so the loop can take the next
		// lease while the round executes (lease pipelining's site half).
		go s.replyRound(ctx, f.Seq, s.Gather(spec, motes, tr), tr)
		return nil
	case wire.FrameStart:
		s.n.Start()
		return s.reply(wire.FrameStartAck, f.Seq, nil, nil)
	case wire.FrameBridge:
		// Not routed to sites in the current topology (replica traffic
		// converges on the coordinator), but deliverable: absorb into the
		// local bridge if the destination domain lives here.
		m, err := wire.DecodeBridgeMsg(f.Payload)
		if err != nil {
			return err
		}
		if b := s.n.Bridge(); b != nil {
			b.Send(m)
		}
		return nil
	case wire.FrameSnapshotReq:
		req, err := wire.DecodeSnapshotReq(f.Payload)
		if err != nil {
			return err
		}
		return s.streamSnapshot(ctx, f.Seq, req)
	case wire.FrameSnapshotChunk:
		c, err := wire.DecodeSnapshotChunk(f.Payload)
		if err != nil {
			return err
		}
		return s.installChunk(ctx, f.Seq, c)
	default:
		return fmt.Errorf("cluster: unexpected frame %v from coordinator", f.Kind)
	}
}

// streamSnapshot serves a coordinator's snapshot request: capture the
// domain's blob (it must be quiescent — the serve loop is between
// frames, so no lease or scatter is executing), drop the domain if the
// request migrates it away, then stream the blob back as ordered chunks.
// Failure answers with an err-carrying FrameSnapshotAck instead of
// chunks. Runs synchronously on the serve loop: a migration is a
// cluster-wide barrier, nothing else should interleave.
func (s *site) streamSnapshot(ctx context.Context, seq uint64, req wire.SnapshotReq) error {
	blob, err := s.Snapshot(ctx, req.Domain, req.Drop)
	if err != nil {
		return s.reply(wire.FrameSnapshotAck, seq, nil, err)
	}
	return eachChunk(req.Domain, blob, func(c wire.SnapshotChunk) error {
		return s.send(wire.Frame{Kind: wire.FrameSnapshotChunk, Seq: seq, Payload: wire.EncodeSnapshotChunk(c)})
	})
}

// installChunk assembles a coordinator-sent domain blob; the final chunk
// installs it, answering with FrameSnapshotAck.
func (s *site) installChunk(ctx context.Context, seq uint64, c wire.SnapshotChunk) error {
	if s.installs == nil {
		s.installs = make(map[uint64][]byte)
	}
	buf := append(s.installs[seq], c.Data...)
	if !c.Final {
		s.installs[seq] = buf
		return nil
	}
	delete(s.installs, seq)
	return s.reply(wire.FrameSnapshotAck, seq, nil, s.Install(ctx, c.Domain, buf))
}

// reply sends a response frame whose payload starts with an ok byte:
// 1 + payload on success, 0 + error string on failure.
func (s *site) reply(kind wire.FrameKind, seq uint64, payload []byte, err error) error {
	var body []byte
	if err != nil {
		body = append([]byte{0}, wire.EncodeErrString(err.Error())...)
	} else {
		body = append([]byte{1}, payload...)
	}
	return s.send(wire.Frame{Kind: kind, Seq: seq, Payload: body})
}

// hungUp is a reply the connection refused: the coordinator has closed
// it, which is how a cluster run ends.
type hungUp struct{ err error }

func (h hungUp) Error() string { return "cluster: reply not sent: " + h.err.Error() }
func (h hungUp) Unwrap() error { return h.err }

// send writes one reply frame, marking a failure as hungUp.
func (s *site) send(f wire.Frame) error {
	if err := s.conn.Send(f); err != nil {
		return hungUp{err}
	}
	return nil
}

// replyRound collects a scatter frame's gathered round and answers with
// a pooled-arena encode of its partials, plus the route section when tr
// is non-nil — every routing decision is recorded by the time the last
// partial lands. Runs off the serve loop.
func (s *site) replyRound(ctx context.Context, seq uint64, p core.Pending, tr *obs.Trace) {
	parts, err := p.Collect(ctx)
	if err != nil {
		_ = s.reply(wire.FramePartials, seq, nil, err)
		return
	}
	query.SortRoundPartials(parts)
	arena := query.GetArena()
	body := append((*arena)[:0], 1)
	body = query.AppendRoundPartials(body, parts)
	if tr != nil {
		body = query.AppendTraceRoutes(body, tr.Routes())
	}
	_ = s.conn.Send(wire.Frame{Kind: wire.FramePartials, Seq: seq, Payload: body})
	*arena = body
	if s.copies {
		query.PutArena(arena)
	}
}

// decodeReply splits an ok-prefixed response back into payload or error.
func decodeReply(f wire.Frame) ([]byte, error) {
	if len(f.Payload) < 1 {
		return nil, wire.ErrShort
	}
	if f.Payload[0] == 1 {
		return f.Payload[1:], nil
	}
	msg, err := wire.DecodeErrString(f.Payload[1:])
	if err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("cluster: site error: %s", msg)
}
