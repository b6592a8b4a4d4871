package cluster

// Elastic cluster operations on top of the core snapshot seam: domain
// migration between live sites, cluster-wide domain checkpointing (with
// optional persistence to disk for warm failover), and re-admission of a
// restarted site. All three happen at lease boundaries — runMu is held,
// so no advance lease or continuous round launches mid-operation, which
// is exactly the engine-quiescence contract core.AdoptDomain /
// core.DropDomain / core.SnapshotDomain require.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"presto/internal/core"
	"presto/internal/query"
	"presto/internal/simtime"
	"presto/internal/wire"
)

// ---------------------------------------------------------------------------
// Snapshot plumbing (joined sites)

// Snapshot pulls domain d's blob from the site as a chunk stream; drop
// additionally makes the site stop hosting the domain.
func (l *siteLink) Snapshot(ctx context.Context, d int, drop bool) ([]byte, error) {
	seq := l.seq.Add(1)
	ch, err := l.openStream(seq)
	if err != nil {
		return nil, err
	}
	defer l.closeStream(seq)
	if err := l.send(wire.Frame{
		Kind: wire.FrameSnapshotReq, Seq: seq,
		Payload: wire.EncodeSnapshotReq(wire.SnapshotReq{Domain: d, Drop: drop}),
	}); err != nil {
		return nil, err
	}
	var blob []byte
	for {
		var f wire.Frame
		select {
		case f = <-ch:
		case <-l.dead:
			return nil, l.Err()
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		switch f.Kind {
		case wire.FrameSnapshotChunk:
			c, err := wire.DecodeSnapshotChunk(f.Payload)
			if err != nil {
				return nil, err
			}
			if c.Domain != d {
				return nil, fmt.Errorf("cluster: site %d streamed domain %d, asked for %d", l.idx, c.Domain, d)
			}
			blob = append(blob, c.Data...)
			if c.Final {
				return blob, nil
			}
		case wire.FrameSnapshotAck:
			// The failure path: a request the site could not serve.
			if _, err := decodeReply(f); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("cluster: site %d acked a snapshot it never streamed", l.idx)
		default:
			return nil, fmt.Errorf("cluster: unexpected %v mid snapshot fetch", f.Kind)
		}
	}
}

// Install streams a domain blob to the site as chunks under one seq and
// waits for the site's adopt+restore ack, which answers the final chunk.
func (l *siteLink) Install(ctx context.Context, d int, blob []byte) error {
	seq := l.seq.Add(1)
	var ack wire.Frame
	err := eachChunk(d, blob, func(c wire.SnapshotChunk) (err error) {
		f := wire.Frame{Kind: wire.FrameSnapshotChunk, Seq: seq, Payload: wire.EncodeSnapshotChunk(c)}
		if !c.Final {
			return l.send(f)
		}
		ack, err = l.rpc(ctx, seq, f.Kind, f.Payload)
		return err
	})
	if err != nil {
		return err
	}
	if ack.Kind != wire.FrameSnapshotAck {
		return fmt.Errorf("cluster: expected snapshot ack, got %v", ack.Kind)
	}
	_, err = decodeReply(ack)
	return err
}

// eachChunk splits a domain blob into wire-sized snapshot chunks, the
// last marked Final, and hands them to fn in order.
func eachChunk(d int, blob []byte, fn func(wire.SnapshotChunk) error) error {
	for {
		n := min(len(blob), wire.SnapshotChunkSize)
		c := wire.SnapshotChunk{Domain: d, Final: n == len(blob), Data: blob[:n]}
		if err := fn(c); err != nil || c.Final {
			return err
		}
		blob = blob[n:]
	}
}

// ---------------------------------------------------------------------------
// Domain migration

// MigrateDomain moves hosted domain d from its current site to toSite
// (any site, the coordinator's own site 0 included) at a lease boundary:
// the source quiesces and snapshots the domain with a drop, the target
// adopts and restores the blob bit-identically, the scatter router and
// every standing stream's site grouping re-point, and the next advance
// lease picks the domain up at its new home. Bridge traffic re-points
// with it — an adopted domain's replica tap rides the target's uplink
// (or lands directly when the target hosts the replica's domain).
// Answers before and after are bit-identical: the blob format guarantees
// the domain resumes exactly where it stopped.
//
// Migration must not race rounds that are still settling; call it
// between Run calls, after in-flight continuous batches have drained. A
// dead or unjoined target is refused before anything moves. On a
// mid-migration failure the domain may be left un-hosted (dropped at the
// source but never installed) — Health reports it and a checkpoint
// restore is the recovery path.
func (co *Coordinator) MigrateDomain(ctx context.Context, d, toSite int) error {
	co.runMu.Lock()
	defer co.runMu.Unlock()
	if co.eng.Closed() {
		return core.ErrClosed
	}
	if d < 0 || d >= co.lay.Shards {
		return fmt.Errorf("cluster: domain %d outside the %d global domains", d, co.lay.Shards)
	}
	if toSite < 0 || toSite >= co.opt.Sites {
		return fmt.Errorf("cluster: site %d outside the %d sites", toSite, co.opt.Sites)
	}
	from := co.eng.DomainSites()[d]
	if from == toSite {
		return fmt.Errorf("cluster: domain %d already hosted by site %d", d, toSite)
	}
	to := co.eng.Site(toSite)
	if err := to.Err(); err != nil {
		return fmt.Errorf("cluster: migrating domain %d to site %d: %w", d, toSite, err)
	}
	blob, err := co.eng.Site(from).Snapshot(ctx, d, true)
	if err != nil {
		return fmt.Errorf("cluster: migrating domain %d off site %d: %w", d, from, err)
	}
	if err := to.Install(ctx, d, blob); err != nil {
		return fmt.Errorf("cluster: installing domain %d at site %d: %w", d, toSite, err)
	}
	// Re-points the scatter router and every standing stream's grouping.
	co.eng.Rehost(d, toSite)
	co.mu.Lock()
	co.migrations++
	co.lastMigration = co.eng.Now()
	co.mu.Unlock()
	return nil
}

// ---------------------------------------------------------------------------
// Checkpointing

// Checkpoint is a consistent cluster-wide capture at one lease instant:
// every domain's blob, the lease clock, the domain→site assignment, and
// each standing query's replayable state. It is what a re-joining site
// restores from, and what WriteDir persists for warm coordinator
// failover.
type Checkpoint struct {
	At         simtime.Time
	ConfigHash uint64
	Quantum    time.Duration
	DomainSite []int
	Blobs      [][]byte // indexed by global domain
	Streams    []StreamState
}

// StreamState is one standing query's checkpointed lease-loop state.
type StreamState struct {
	SpecJSON []byte       // query.EncodeSpecJSON form (selector resolved to motes)
	Every    simtime.Time // fire period
	Until    simtime.Time // absolute horizon; 0 = unbounded
	Next     simtime.Time // next fire instant
	Seq      int          // next round sequence number
}

// CheckpointDomains captures every domain's state at the current lease
// instant — a snapshot from each domain's site, dropping nothing — plus the assignment and
// standing-stream state. The checkpoint is retained as the re-join
// restore source. Every site must be alive; checkpoint before expecting
// failures, not after them.
func (co *Coordinator) CheckpointDomains(ctx context.Context) (*Checkpoint, error) {
	co.runMu.Lock()
	defer co.runMu.Unlock()
	if co.eng.Closed() {
		return nil, core.ErrClosed
	}
	ck := &Checkpoint{
		At:         co.eng.Now(),
		ConfigHash: configHash(co.cfg),
		Quantum:    co.opt.Quantum,
		DomainSite: co.eng.DomainSites(),
		Blobs:      make([][]byte, co.lay.Shards),
	}
	co.eng.EachStream(func(st *core.Stream) {
		spec := st.Spec
		if spec.Select.Where != nil {
			// Predicates have no serial form; persist the resolved motes.
			spec.Select = query.SelectMotes(spec.Select.Resolve(co.lay.AllMotes())...)
		}
		sj, err := query.EncodeSpecJSON(spec)
		if err != nil {
			sj = nil // a spec that cannot serialize is recorded stateless
		}
		every, until, next, seq := st.Schedule()
		ck.Streams = append(ck.Streams, StreamState{
			SpecJSON: sj, Every: every, Until: until, Next: next, Seq: seq,
		})
	})

	for d, site := range ck.DomainSite {
		blob, err := co.eng.Site(site).Snapshot(ctx, d, false)
		if err != nil {
			return nil, fmt.Errorf("cluster: checkpointing domain %d (site %d): %w", d, site, err)
		}
		ck.Blobs[d] = blob
	}
	co.mu.Lock()
	co.lastCkpt = ck
	co.mu.Unlock()
	return ck, nil
}

// ckptMeta is the on-disk JSON shape of a checkpoint's non-blob state.
type ckptMeta struct {
	At         int64            `json:"at_ns"`
	ConfigHash uint64           `json:"config_hash"`
	Quantum    int64            `json:"quantum_ns"`
	DomainSite []int            `json:"domain_site"`
	Streams    []ckptStreamMeta `json:"streams,omitempty"`
}

type ckptStreamMeta struct {
	Spec  json.RawMessage `json:"spec,omitempty"`
	Every int64           `json:"every_ns"`
	Until int64           `json:"until_ns"`
	Next  int64           `json:"next_ns"`
	Seq   int             `json:"seq"`
}

// WriteDir persists the checkpoint: a checkpoint.json with the lease
// instant, config fingerprint, assignment and standing-stream state,
// plus one domain-N.snap blob per domain. A warm-failover coordinator
// (or an operator inspecting a run) reads it back with LoadCheckpoint.
func (ck *Checkpoint) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	meta := ckptMeta{
		At: int64(ck.At), ConfigHash: ck.ConfigHash, Quantum: int64(ck.Quantum),
		DomainSite: ck.DomainSite,
	}
	for _, st := range ck.Streams {
		meta.Streams = append(meta.Streams, ckptStreamMeta{
			Spec: st.SpecJSON, Every: int64(st.Every), Until: int64(st.Until),
			Next: int64(st.Next), Seq: st.Seq,
		})
	}
	mj, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), mj, 0o644); err != nil {
		return err
	}
	for d, blob := range ck.Blobs {
		if blob == nil {
			continue
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("domain-%d.snap", d)), blob, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpoint reads a checkpoint written by WriteDir.
func LoadCheckpoint(dir string) (*Checkpoint, error) {
	mj, err := os.ReadFile(filepath.Join(dir, "checkpoint.json"))
	if err != nil {
		return nil, err
	}
	var meta ckptMeta
	if err := json.Unmarshal(mj, &meta); err != nil {
		return nil, fmt.Errorf("cluster: bad checkpoint meta: %w", err)
	}
	ck := &Checkpoint{
		At: simtime.Time(meta.At), ConfigHash: meta.ConfigHash,
		Quantum: time.Duration(meta.Quantum), DomainSite: meta.DomainSite,
		Blobs: make([][]byte, len(meta.DomainSite)),
	}
	for _, st := range meta.Streams {
		ck.Streams = append(ck.Streams, StreamState{
			SpecJSON: st.Spec, Every: simtime.Time(st.Every), Until: simtime.Time(st.Until),
			Next: simtime.Time(st.Next), Seq: st.Seq,
		})
	}
	for d := range ck.Blobs {
		blob, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("domain-%d.snap", d)))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return nil, err
		}
		ck.Blobs[d] = blob
	}
	return ck, nil
}

// ---------------------------------------------------------------------------
// Site re-join

// Rejoin re-admits one restarted site: it accepts the next joiner on the
// cluster listener, handshakes it exactly like AcceptSites, assigns it
// the dead site's current domain window, restores each of those domains
// from the last checkpoint, and replays the site forward to the current
// lease instant with one absolute advance lease — domain determinism
// makes the replay land bit-identically on where an uninterrupted site
// would be. Requires a prior CheckpointDomains and exactly the same
// deployment flags on the restarted process.
func (co *Coordinator) Rejoin(ctx context.Context) error {
	co.runMu.Lock()
	defer co.runMu.Unlock()
	co.mu.Lock()
	ck := co.lastCkpt
	co.mu.Unlock()
	vnow := co.eng.Now()
	if co.eng.Closed() {
		return core.ErrClosed
	}
	if ck == nil {
		return errors.New("cluster: no checkpoint to restore a re-joining site from (call CheckpointDomains while all sites are alive)")
	}

	// Find the dead site; its index is what the joiner inherits.
	idx := -1
	for i := range co.opt.Sites {
		if co.eng.Site(i).Err() != nil {
			idx = i
			break
		}
	}
	if idx == -1 {
		return errors.New("cluster: no dead site to re-admit")
	}
	co.eng.Site(idx).Close()

	// The dead site's current domain set; Assign expresses contiguous
	// windows only, which migrations may have broken.
	first, count := -1, 0
	for d, s := range co.eng.DomainSites() {
		if s != idx {
			continue
		}
		if first < 0 {
			first = d
		} else if d != first+count {
			return fmt.Errorf("cluster: site %d's domains are not contiguous; migrate them adjacent before re-joining", idx)
		}
		count++
	}
	if count == 0 {
		return fmt.Errorf("cluster: site %d hosts no domains (all migrated away); nothing to re-join", idx)
	}
	for d := first; d < first+count; d++ {
		if ck.Blobs[d] == nil {
			return fmt.Errorf("cluster: checkpoint holds no blob for domain %d", d)
		}
	}

	l, err := co.join(ctx, idx, first, count)
	if err != nil {
		return err
	}
	co.mu.Lock()
	co.rejoins++
	co.mu.Unlock()

	// Restore the window from the checkpoint, then replay to now. The
	// freshly built site is at virtual time 0; each install rewinds its
	// domain to the checkpoint instant (armed tickers, in-flight radio
	// and models included), and the single absolute lease re-runs the
	// deterministic path the dead site would have taken.
	for d := first; d < first+count; d++ {
		if err := l.Install(ctx, d, ck.Blobs[d]); err != nil {
			return fmt.Errorf("cluster: restoring domain %d on re-joined site %d: %w", d, idx, err)
		}
	}
	if vnow > ck.At {
		if err := l.Advance(ctx, vnow); err != nil {
			return fmt.Errorf("cluster: replaying re-joined site %d: %w", idx, err)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Cluster health

// SiteHealth is one site's view in the cluster health report.
type SiteHealth struct {
	Site    int
	Domains []int
	Alive   bool
}

// Health is the coordinator's elasticity telemetry: which sites are
// alive and what they host, the lease clock, and the migration /
// re-join / checkpoint history the serving tier surfaces in /statsz.
type Health struct {
	Sites          []SiteHealth
	Lease          simtime.Time
	Migrations     uint64
	Rejoins        uint64
	LastMigration  simtime.Time
	LastCheckpoint simtime.Time
}

// Health reports the current cluster health snapshot.
func (co *Coordinator) Health() Health {
	h := Health{Lease: co.eng.Now()}
	co.mu.Lock()
	h.Migrations, h.Rejoins, h.LastMigration = co.migrations, co.rejoins, co.lastMigration
	if co.lastCkpt != nil {
		h.LastCheckpoint = co.lastCkpt.At
	}
	co.mu.Unlock()
	domains := make(map[int][]int)
	for d, s := range co.eng.DomainSites() {
		domains[s] = append(domains[s], d)
	}
	for s := range co.opt.Sites {
		h.Sites = append(h.Sites, SiteHealth{Site: s, Domains: domains[s], Alive: co.eng.Site(s).Err() == nil})
	}
	return h
}
