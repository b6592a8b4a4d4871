// Package query defines PRESTO's user-facing query model: one-shot NOW
// and PAST queries with precision (error tolerance) and aggregate
// operators.
//
// Section 2 scopes the paper to "one-time queries on current and past
// sensor data"; Section 3 adds that "the query type, frequency, latency
// and precision requirements are translated into the appropriate
// parameters for the remote sensors" and gives the example of scientists
// querying the *mode* of building vibration — so aggregates are
// first-class here, including Mode.
package query

import (
	"errors"
	"fmt"
	"time"

	"presto/internal/proxy"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// Type is the query class.
type Type int

// Query types.
const (
	// Now asks for the current value of one sensor.
	Now Type = iota
	// Past asks for historical values of one sensor over [T0, T1].
	Past
	// Agg asks for an aggregate over [T0, T1].
	Agg
)

// String names the type.
func (t Type) String() string {
	switch t {
	case Now:
		return "now"
	case Past:
		return "past"
	case Agg:
		return "agg"
	default:
		return fmt.Sprintf("type(%d)", int(t))
	}
}

// AggKind selects the aggregate operator.
type AggKind int

// Aggregate operators.
const (
	Min AggKind = iota
	Max
	Mean
	Mode // the paper's building-vibration example
)

// Valid reports whether the operator is one of the defined aggregates.
func (a AggKind) Valid() bool { return a >= Min && a <= Mode }

// String names the operator.
func (a AggKind) String() string {
	switch a {
	case Min:
		return "min"
	case Max:
		return "max"
	case Mean:
		return "mean"
	case Mode:
		return "mode"
	default:
		return fmt.Sprintf("agg(%d)", int(a))
	}
}

// Query is a one-shot user query.
type Query struct {
	Type      Type
	Mote      radio.NodeID
	T0, T1    simtime.Time // Past/Agg range
	Precision float64      // max tolerated per-value error
	Agg       AggKind
	// Deadline, when positive, is the caller's latency requirement; the
	// prediction engine's query–sensor matching uses it to retune motes
	// (see internal/predict).
	Deadline time.Duration
	// MaxStaleness, when positive, bounds how old the data snapshot behind
	// an answer may be. For NOW queries: replicas whose newest confirmed
	// observation lags the owning domain by more than this are bypassed,
	// and the managing proxy pays a mote rendezvous rather than serve a
	// staler cache/model answer. For PAST/AGG queries it bites when the
	// window tail overlaps "now" (T1 + MaxStaleness >= now): the archive
	// declines if its newest record is staler than the bound, and the
	// managing proxy pulls rather than extrapolate the tail from a stale
	// model snapshot. Zero means unbounded (the engine's default
	// replica-freshness guarantee applies).
	MaxStaleness time.Duration
}

// Validate reports structural errors.
func (q Query) Validate() error {
	switch q.Type {
	case Now:
	case Past, Agg:
		if q.T1 < q.T0 {
			return fmt.Errorf("query: inverted range [%v, %v]", q.T0, q.T1)
		}
		// An unknown operator used to slip through here and surface much
		// later as a silent NaN from Aggregate; reject it up front.
		if q.Type == Agg && !q.Agg.Valid() {
			return fmt.Errorf("query: unknown aggregate %v", q.Agg)
		}
	default:
		return fmt.Errorf("query: unknown type %v", q.Type)
	}
	if q.Precision < 0 {
		return errors.New("query: negative precision")
	}
	if q.MaxStaleness < 0 {
		return errors.New("query: negative max staleness")
	}
	return nil
}

// Result is a completed per-mote query. An AGG round folds its motes'
// entries into the round's Partial instead (see store.Execute), so an AGG
// Result carries provenance and timing but no entries.
type Result struct {
	Query  Query
	Answer proxy.Answer
}

// Latency returns the response time.
func (r Result) Latency() time.Duration { return r.Answer.Latency() }
