package query

// Declarative set-valued queries. The paper frames PRESTO's interface as
// "a database frontend": users pose queries over *collections* of sensors
// — "the mode of vibration across the building" — not over one mote at a
// time. A Spec names a mote set (explicit list, all motes, or a
// predicate), a window (NOW / PAST / AGG, optionally Continuous for
// standing queries), and per-query requirements (Precision, Deadline,
// MaxStaleness). The engine scatters a Spec to every owning simulation
// domain, each domain computes a partial aggregate against its own
// store/replica/proxy path, and a merge stage combines the partials into
// one answer with honest combined error bounds — an N-mote aggregate
// costs one engine submission, not N.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"presto/internal/radio"
	"presto/internal/simtime"
)

// Selector names the mote set a Spec targets. The zero value selects
// every mote in the deployment; Motes restricts to an explicit list;
// Where further filters whichever candidate set is in effect (the
// attribute-predicate form — callers close over whatever deployment
// metadata they key motes by).
type Selector struct {
	// Motes is the explicit target list. Empty means all motes.
	Motes []radio.NodeID
	// Where, when non-nil, keeps only the candidate motes it accepts.
	Where func(radio.NodeID) bool
}

// SelectAll targets every mote in the deployment.
func SelectAll() Selector { return Selector{} }

// SelectMotes targets an explicit mote list.
func SelectMotes(ids ...radio.NodeID) Selector { return Selector{Motes: ids} }

// SelectWhere targets every mote accepted by the predicate.
func SelectWhere(pred func(radio.NodeID) bool) Selector { return Selector{Where: pred} }

// Resolve applies the selector to a deployment's mote list, preserving
// order and dropping candidates the predicate rejects.
func (s Selector) Resolve(all []radio.NodeID) []radio.NodeID {
	candidates := s.Motes
	if len(candidates) == 0 {
		candidates = all
	}
	if s.Where == nil {
		return append([]radio.NodeID(nil), candidates...)
	}
	out := make([]radio.NodeID, 0, len(candidates))
	for _, id := range candidates {
		if s.Where(id) {
			out = append(out, id)
		}
	}
	return out
}

// Continuous turns a Spec into a standing query: the engine fires a
// round at every period instant of the simulation clock and pushes one
// incremental result down the stream per round.
type Continuous struct {
	// Every is the virtual-time period between deliveries.
	Every time.Duration
	// Until, when positive, ends the stream after that much virtual time
	// (the last round at or before Until still fires). Zero means the
	// stream runs until the caller cancels its context.
	Until time.Duration
}

// Spec is a declarative query over a set of motes.
type Spec struct {
	// Type is the window class: Now (current values), Past (historical
	// values over [T0, T1]) or Agg (one aggregate over [T0, T1]).
	Type   Type
	Select Selector
	T0, T1 simtime.Time // Past/Agg window
	// Trailing, when positive, makes the Past/Agg window relative: each
	// execution — every round of a continuous spec — re-resolves it to
	// [now-Trailing, now] at the instant the round fires, so "the mean
	// over the last hour, every hour" tracks the clock instead of
	// re-reading a fixed [T0, T1] forever. Mutually exclusive with an
	// explicit T0/T1.
	Trailing time.Duration
	// Agg is the aggregate operator for Agg specs; partial aggregates are
	// computed per domain and merged.
	Agg AggKind
	// Precision is the max tolerated per-value error, as in Query. It
	// also fixes the Mode histogram's bin width, so partial histograms
	// from different domains merge bin-for-bin.
	Precision float64
	// Deadline and MaxStaleness carry per-query requirements into each
	// per-mote execution exactly as on Query.
	Deadline     time.Duration
	MaxStaleness time.Duration
	// Continuous, when non-nil, makes this a standing query.
	Continuous *Continuous
}

// Validate reports structural errors.
func (s Spec) Validate() error {
	q := Query{Type: s.Type, T0: s.T0, T1: s.T1, Agg: s.Agg,
		Precision: s.Precision, Deadline: s.Deadline, MaxStaleness: s.MaxStaleness}
	if err := q.Validate(); err != nil {
		return err
	}
	if s.Trailing < 0 {
		return fmt.Errorf("query: negative trailing window %v", s.Trailing)
	}
	if s.Trailing > 0 {
		if s.Type == Now {
			return errors.New("query: trailing window on a NOW spec (windows apply to PAST/AGG)")
		}
		if s.T0 != 0 || s.T1 != 0 {
			return fmt.Errorf("query: both a trailing window (%v) and a fixed [%v, %v]", s.Trailing, s.T0, s.T1)
		}
	}
	if c := s.Continuous; c != nil {
		if c.Every <= 0 {
			return fmt.Errorf("query: non-positive continuous period %v", c.Every)
		}
		if c.Until < 0 {
			return fmt.Errorf("query: negative continuous until %v", c.Until)
		}
	}
	return nil
}

// BindWindow resolves a trailing window against the execution instant:
// the returned spec carries the concrete [now-Trailing, now] (clamped at
// the simulation start) and no trailing marker, so it can execute — or
// cross a cluster transport — as a fixed-window spec. The engine calls it
// once per round, which is what makes continuous trailing specs
// re-evaluate "the last hour" each round. Specs without a trailing window
// are returned unchanged.
func (s Spec) BindWindow(now simtime.Time) Spec {
	if s.Trailing <= 0 {
		return s
	}
	s.T1 = now
	s.T0 = now - simtime.Time(s.Trailing)
	if s.T0 < 0 {
		s.T0 = 0
	}
	s.Trailing = 0
	return s
}

// QueryFor is the per-mote execution of a spec: the Query a domain worker
// runs against its store/replica/proxy path for one target mote.
func (s Spec) QueryFor(m radio.NodeID) Query {
	return Query{
		Type: s.Type, Mote: m, T0: s.T0, T1: s.T1, Agg: s.Agg,
		Precision: s.Precision, Deadline: s.Deadline, MaxStaleness: s.MaxStaleness,
	}
}

// AppendShapeKey appends the canonical byte form of the question a spec
// asks to dst and returns the extended slice: type, operator, Mode bin
// width, T0, T1 and Trailing at eight bytes each, then the target mote
// ids sorted (duplicates kept), eight bytes each; no ids targets all
// motes. Requested precision — except Mode's, whose answer is binned at
// it — Deadline and MaxStaleness are contracts, not part of the
// question, and Continuous and Where are not encoded: two one-shot,
// predicate-free specs ask the same question exactly when their keys are
// equal. The key is exact, not a hash. Appending to a caller's stack
// buffer allocates nothing unless the key outgrows it or more than 64
// unsorted ids need a sort.
func (s Spec) AppendShapeKey(dst []byte) []byte {
	var agg AggKind
	var bin float64
	if s.Type == Agg {
		agg = s.Agg
		if s.Agg == Mode {
			bin = s.Precision
		}
	}
	if bin == 0 {
		bin = 0 // -0 and +0 are the same bin width
	}
	be := binary.BigEndian
	dst = be.AppendUint64(dst, uint64(s.Type))
	dst = be.AppendUint64(dst, uint64(agg))
	dst = be.AppendUint64(dst, math.Float64bits(bin))
	dst = be.AppendUint64(dst, uint64(s.T0))
	dst = be.AppendUint64(dst, uint64(s.T1))
	dst = be.AppendUint64(dst, uint64(s.Trailing))
	ids := s.Select.Motes
	if !slices.IsSorted(ids) {
		var scratch [64]radio.NodeID
		ids = append(scratch[:0], ids...)
		slices.Sort(ids)
	}
	for _, id := range ids {
		dst = be.AppendUint64(dst, uint64(id))
	}
	return dst
}

// ---------------------------------------------------------------------------
// Partial aggregates

// ErrEmptyAggregate flags an aggregate that completed with no
// observations in its window: there is no value to report, and the old
// behaviour of answering a bare NaN hid the condition from callers.
var ErrEmptyAggregate = errors.New("query: aggregate over empty window")

// ErrNoMotes reports a spec whose selector matched zero motes in the
// deployment it was posed against. It is a submission-time error — the
// alternative, an empty stream that looks just like a deployment-wide
// outage, hid typoed mote lists and over-narrow predicates from callers.
// Test with errors.Is: engines wrap it with deployment context.
var ErrNoMotes = errors.New("query: selector matches no motes")

// histBinWidth fixes the Mode histogram granularity for a spec: the
// requested precision when positive (the caller's own indifference
// interval), else a fine default so exact queries still bin stably.
func histBinWidth(precision float64) float64 {
	if precision > 0 {
		return precision
	}
	return 1e-6
}

// Partial is one domain's contribution to a set-valued aggregate:
// count/sum/min/max plus a precision-binned histogram for Mode. Partials
// from different domains merge exactly — same bins, same extrema — so the
// combined answer is independent of how the deployment is sharded.
type Partial struct {
	Count    int
	Sum      float64
	Min, Max float64
	// SumErr and MaxErr accumulate the per-entry guaranteed error bounds:
	// SumErr/Count bounds the merged mean's error, MaxErr bounds min/max.
	SumErr float64
	MaxErr float64
	// BinWidth is the Mode histogram granularity (identical across the
	// partials of one spec); Hist counts entries per bin index
	// floor(V/BinWidth).
	BinWidth float64
	Hist     map[int64]int
}

// NewPartial returns an empty partial using the spec's histogram width.
func NewPartial(precision float64) Partial {
	return Partial{
		Min: math.Inf(1), Max: math.Inf(-1),
		BinWidth: histBinWidth(precision),
		Hist:     make(map[int64]int),
	}
}

// NewPartialFor returns an empty partial shaped for a spec: only Mode
// reads the histogram, so every other aggregate skips the map — the
// scatter path's hottest allocation — and Observe skips the binning.
// Merging a histogram-carrying partial into one of these re-grows the
// map on demand, so the two constructors mix safely.
func NewPartialFor(spec Spec) Partial {
	p := Partial{
		Min: math.Inf(1), Max: math.Inf(-1),
		BinWidth: histBinWidth(spec.Precision),
	}
	if spec.Type == Agg && spec.Agg == Mode {
		p.Hist = make(map[int64]int)
	}
	return p
}

// Observe folds one entry (value + guaranteed error bound) into the
// partial.
func (p *Partial) Observe(v, errBound float64) {
	p.Count++
	p.Sum += v
	if v < p.Min {
		p.Min = v
	}
	if v > p.Max {
		p.Max = v
	}
	p.SumErr += errBound
	if errBound > p.MaxErr {
		p.MaxErr = errBound
	}
	if p.Hist != nil {
		p.Hist[int64(math.Floor(v/p.BinWidth))]++
	}
}

// ObserveRun folds n entries of one value and bound, bit-identical to n
// Observe calls: Sum and SumErr take n additions, not one product, while
// the extrema and the histogram bin are touched once. The additions run
// in locals, stored once: the same sequence, so the same bits, without a
// store through p per entry.
func (p *Partial) ObserveRun(v, errBound float64, n int) {
	if n <= 0 {
		return
	}
	p.Count += n
	sum, sumErr := p.Sum, p.SumErr
	for range n {
		sum += v
		sumErr += errBound
	}
	p.Sum, p.SumErr = sum, sumErr
	if v < p.Min {
		p.Min = v
	}
	if v > p.Max {
		p.Max = v
	}
	if errBound > p.MaxErr {
		p.MaxErr = errBound
	}
	if p.Hist != nil {
		p.Hist[int64(math.Floor(v/p.BinWidth))] += n
	}
}

// ObserveResult folds a completed per-mote query result into the partial.
func (p *Partial) ObserveResult(r Result) {
	for _, e := range r.Answer.Entries {
		p.Observe(e.V, e.ErrBound)
	}
}

// Merge folds another partial into this one. The two must share a bin
// width (they do when both came from the same Spec).
func (p *Partial) Merge(q Partial) {
	p.Count += q.Count
	p.Sum += q.Sum
	if q.Min < p.Min {
		p.Min = q.Min
	}
	if q.Max > p.Max {
		p.Max = q.Max
	}
	p.SumErr += q.SumErr
	if q.MaxErr > p.MaxErr {
		p.MaxErr = q.MaxErr
	}
	if len(q.Hist) > 0 {
		if p.Hist == nil {
			p.Hist = make(map[int64]int, len(q.Hist))
		}
		for bin, n := range q.Hist {
			p.Hist[bin] += n
		}
	}
}

// Final computes the merged aggregate and its honest combined error
// bound. The bound is the guarantee the underlying entries carry,
// propagated through the operator:
//
//   - Min/Max: the reported extremum is some entry's measured value, so
//     it is within the worst single-entry bound of the true extremum.
//   - Mean: errors average, so the mean of the per-entry bounds.
//   - Mode: the histogram bin pins the answer to within half a bin width
//     of the densest measured bin's center, plus the worst entry bound
//     (a true value may sit one bound away from its binned measurement).
//
// An empty partial returns ErrEmptyAggregate.
func (p Partial) Final(kind AggKind) (value, errBound float64, err error) {
	if !kind.Valid() {
		return math.NaN(), 0, fmt.Errorf("query: unknown aggregate %v", kind)
	}
	if p.Count == 0 {
		return math.NaN(), 0, ErrEmptyAggregate
	}
	switch kind {
	case Min:
		return p.Min, p.MaxErr, nil
	case Max:
		return p.Max, p.MaxErr, nil
	case Mean:
		return p.Sum / float64(p.Count), p.SumErr / float64(p.Count), nil
	case Mode:
		best, bestN := int64(0), -1
		for bin, n := range p.Hist {
			// Deterministic tie-break: densest bin, lowest index wins.
			if n > bestN || (n == bestN && bin < best) {
				best, bestN = bin, n
			}
		}
		return (float64(best) + 0.5) * p.BinWidth, p.BinWidth/2 + p.MaxErr, nil
	default:
		return math.NaN(), 0, fmt.Errorf("query: unknown aggregate %v", kind)
	}
}

// ---------------------------------------------------------------------------
// Round partials and the merge stage

// RoundPartial is one simulation domain's folded contribution to a
// scattered round, tagged by its global domain index: the partial
// aggregate for Agg specs, completed per-mote results for Now/Past
// specs, and the count of target motes whose execution could never
// complete. It is the unit of push-down in a cluster — per-mote answers
// fold into RoundPartials at the site that owns the domain, and only the
// partials cross the transport.
type RoundPartial struct {
	Domain  int
	Partial Partial
	Results []Result
	Failed  int
}

// MergeRounds combines a round's per-domain partials into its SetResult.
// Partials are merged in ascending global-domain order regardless of the
// order they arrived or how domains were grouped into processes, so the
// floating-point fold — and therefore the merged value and its honest
// combined bound — is bit-identical whether the round was gathered in
// one process or scattered across cluster sites. Both the in-process
// engine and the cluster coordinator terminate their merge stages here.
func MergeRounds(spec Spec, seq int, at simtime.Time, parts []RoundPartial) SetResult {
	SortRoundPartials(parts)
	merged := NewPartialFor(spec)
	var results []Result
	failed := 0
	for _, p := range parts {
		merged.Merge(p.Partial)
		results = append(results, p.Results...)
		failed += p.Failed
	}
	res := SetResult{Seq: seq, At: at, Failed: failed}
	if spec.Type == Agg {
		res.Count = merged.Count
		res.Value, res.ErrBound, res.Err = merged.Final(spec.Agg)
		return res
	}
	// Per-mote results in global mote order (gather order is per-domain;
	// the merge restores a deterministic presentation).
	sort.Slice(results, func(i, j int) bool { return results[i].Query.Mote < results[j].Query.Mote })
	res.Results = results
	return res
}

// SortRoundPartials orders partials by ascending global domain — the
// canonical merge order. Insertion sort: round fan-out is a handful of
// domains, and unlike sort.Slice this allocates nothing, which matters
// on the per-query scatter path.
func SortRoundPartials(parts []RoundPartial) {
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j].Domain < parts[j-1].Domain; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
}

// SiteError reports one cluster site that could not contribute to a
// round — connection lost, site crashed, response malformed. The round's
// other sites still answer: a SetResult carrying SiteErrs is an explicit
// partial answer, never a silent one.
type SiteError struct {
	Site int // site index in the cluster (0 is the coordinator)
	Err  error
}

// ---------------------------------------------------------------------------
// Set-valued results

// SetResult is one delivery from a Spec: the merged aggregate for Agg
// specs, per-mote results for Now/Past specs. Continuous specs deliver a
// sequence of them.
type SetResult struct {
	// Seq numbers continuous deliveries from 0; one-shot specs deliver a
	// single result with Seq 0.
	Seq int
	// At is the engine clock when the round was merged (the
	// least-advanced domain clock, as Network.Now reports).
	At simtime.Time
	// Results holds the per-mote results of a Now/Past spec, in
	// ascending mote-id order regardless of selector order (match on
	// Result.Query.Mote); motes whose execution could not complete are
	// omitted and counted in Failed. Empty for Agg specs — per-domain
	// partials replace per-mote answers there.
	Results []Result
	// Value and ErrBound are the merged aggregate of an Agg spec and its
	// honest combined error bound; Count is how many observations it
	// covers.
	Value    float64
	ErrBound float64
	Count    int
	// Failed counts target motes that could not complete this round.
	Failed int
	// SiteErrs names the cluster sites (if any) that could not contribute
	// to this round, each with the error that took it out; their motes are
	// included in Failed. Always nil for single-process deployments.
	SiteErrs []SiteError
	// Err flags a round without a usable answer — ErrEmptyAggregate when
	// an Agg window held no observations.
	Err error
}
