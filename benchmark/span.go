package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one op share
// its trace id; parent 0 marks the op's root span.
type span struct {
	Trace    uint64 `json:"trace"`
	Span     uint64 `json:"span"`
	Parent   uint64 `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Workload string `json:"workload"`
	OpKind   string `json:"op_kind"`
}

// Span names: the harness records them in its own files, around its
// calls into each layer and around the seams it is allowed to supply.
const (
	spanOp      = "op"               // client-observed operation (root)
	spanHandler = "serve.handler"    // http middleware around srv.Handler()
	spanSubmit  = "core.submit"      // Engine wrapper: SubmitSpec -> result
	spanSiteRTT = "cluster.site_rtt" // Conn wrapper: scatter sent -> partials received
	spanAdvance = "advance"          // the harness's own Run / co.Run call (root)
)

// recorder keeps spans in memory until the run ends. Safe for
// concurrent use: handler goroutines, the engine wrapper and the
// transport wrapper all add to it.
type recorder struct {
	workload string
	epoch    time.Time
	ids      atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder(workload string) *recorder {
	return &recorder{workload: workload, epoch: time.Now()}
}

// id mints a span (or trace) id; 0 is never returned.
func (r *recorder) id() uint64 { return r.ids.Add(1) }

// now is nanoseconds since the recorder started.
func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(s span) {
	s.Workload = r.workload
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// adoptOrphans parents every span recorded without a trace (the
// transport wrapper cannot see which op a frame belongs to) under the
// innermost span of the given parent name whose interval contains it.
// At one client the containment is unambiguous.
func adoptOrphans(spans []span, parentName string) {
	var parents []int
	for i, s := range spans {
		if s.Name == parentName {
			parents = append(parents, i)
		}
	}
	sort.Slice(parents, func(a, b int) bool { return spans[parents[a]].StartNS < spans[parents[b]].StartNS })
	for i := range spans {
		s := &spans[i]
		if s.Trace != 0 {
			continue
		}
		// Last parent starting at or before the orphan.
		k := sort.Search(len(parents), func(k int) bool { return spans[parents[k]].StartNS > s.StartNS }) - 1
		if k < 0 {
			continue
		}
		p := spans[parents[k]]
		if s.EndNS <= p.EndNS {
			s.Trace, s.Parent, s.OpKind = p.Trace, p.Span, p.OpKind
		}
	}
}

// selfTimes returns each span's self time in nanoseconds: its duration
// minus the part of its interval that its child spans cover (children
// may overlap each other — a scatter waits on several sites at once —
// so the covered part is the union of their intervals, clipped to the
// parent).
func selfTimes(spans []span) map[uint64]int64 {
	type iv struct{ a, b int64 }
	kids := make(map[uint64][]iv)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.StartNS, s.EndNS})
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ivs := kids[s.Span]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
		covered, edge := int64(0), s.StartNS
		for _, c := range ivs {
			a, b := max(c.a, edge), min(c.b, s.EndNS)
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[s.Span] = (s.EndNS - s.StartNS) - covered
	}
	return self
}

// writeTrace writes one JSON object per span to out/trace-<workload>.jsonl
// under dir and returns the path.
func writeTrace(dir, workload string, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
