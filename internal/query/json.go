package query

// JSON codecs for the HTTP serving tier: a Spec posted as a request body
// and a SetResult returned as a response body. The wire shape is meant to
// be written by hand with curl — durations are Go duration strings
// ("90m", "6h30m"), virtual instants are offsets from the simulation
// start in the same notation, enum fields use their String() names — and
// decoding is strict: unknown fields, unknown enum names and structurally
// invalid specs are errors, not silent defaults.
//
// Selector predicates (Selector.Where) are Go closures and do not cross
// the wire: a JSON spec names motes explicitly or targets the whole
// deployment by omission. Typed errors survive the round trip as short
// codes ("empty_aggregate", "no_motes") so clients keep errors.Is
// semantics without parsing prose.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"time"
	"unicode/utf8"

	"presto/internal/cache"
	"presto/internal/proxy"
	"presto/internal/radio"
	"presto/internal/simtime"
)

// Dur is a time.Duration that marshals as a Go duration string and
// unmarshals from either a duration string ("90m") or a JSON number of
// nanoseconds. Virtual instants (simtime.Time) use it too: they are
// nanosecond offsets from the simulation start.
type Dur time.Duration

// MarshalJSON renders the duration as its Go string form.
func (d Dur) MarshalJSON() ([]byte, error) {
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts "90m"-style strings and nanosecond numbers. A
// string without escapes and in valid UTF-8 reads the same raw as
// decoded, so it is parsed in place; any other string takes the general
// decode.
func (d *Dur) UnmarshalJSON(b []byte) error {
	if n := len(b); n >= 2 && b[0] == '"' && b[n-1] == '"' &&
		bytes.IndexByte(b, '\\') < 0 && utf8.Valid(b) {
		v, err := time.ParseDuration(string(b[1 : n-1]))
		if err != nil {
			return fmt.Errorf("query: bad duration %q: %w", string(b[1:n-1]), err)
		}
		*d = Dur(v)
		return nil
	}
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := time.ParseDuration(s)
		if err != nil {
			return fmt.Errorf("query: bad duration %q: %w", s, err)
		}
		*d = Dur(v)
		return nil
	}
	var ns int64
	if err := json.Unmarshal(b, &ns); err != nil {
		return fmt.Errorf("query: duration must be a string like \"90m\" or nanoseconds: %w", err)
	}
	*d = Dur(ns)
	return nil
}

// ParseType is the inverse of Type.String.
func ParseType(s string) (Type, error) {
	switch s {
	case "now":
		return Now, nil
	case "past":
		return Past, nil
	case "agg":
		return Agg, nil
	default:
		return 0, fmt.Errorf("query: unknown query type %q (want now, past or agg)", s)
	}
}

// ParseAggKind is the inverse of AggKind.String.
func ParseAggKind(s string) (AggKind, error) {
	switch s {
	case "min":
		return Min, nil
	case "max":
		return Max, nil
	case "mean":
		return Mean, nil
	case "mode":
		return Mode, nil
	default:
		return 0, fmt.Errorf("query: unknown aggregate %q (want min, max, mean or mode)", s)
	}
}

// specWire is the JSON shape of a Spec.
type specWire struct {
	Type         string    `json:"type"`
	Motes        []int     `json:"motes,omitempty"`
	T0           Dur       `json:"t0,omitempty"`
	T1           Dur       `json:"t1,omitempty"`
	Trailing     Dur       `json:"trailing,omitempty"`
	Agg          string    `json:"agg,omitempty"`
	Precision    float64   `json:"precision,omitempty"`
	Deadline     Dur       `json:"deadline,omitempty"`
	MaxStaleness Dur       `json:"max_staleness,omitempty"`
	Continuous   *contWire `json:"continuous,omitempty"`
}

type contWire struct {
	Every Dur `json:"every"`
	Until Dur `json:"until,omitempty"`
}

// EncodeSpecJSON renders a Spec as its JSON wire form. Specs with a
// selector predicate cannot cross the wire (a closure has no JSON form);
// name the motes explicitly instead.
func EncodeSpecJSON(s Spec) ([]byte, error) {
	if s.Select.Where != nil {
		return nil, errors.New("query: selector predicates have no JSON form (resolve to an explicit mote list first)")
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := specWire{
		Type:         s.Type.String(),
		T0:           Dur(s.T0),
		T1:           Dur(s.T1),
		Trailing:     Dur(s.Trailing),
		Precision:    s.Precision,
		Deadline:     Dur(s.Deadline),
		MaxStaleness: Dur(s.MaxStaleness),
	}
	if s.Type == Agg {
		w.Agg = s.Agg.String()
	}
	for _, m := range s.Select.Motes {
		w.Motes = append(w.Motes, int(m))
	}
	if c := s.Continuous; c != nil {
		w.Continuous = &contWire{Every: Dur(c.Every), Until: Dur(c.Until)}
	}
	return json.Marshal(w)
}

// specScratch is the reader and wire form one spec decode reuses.
type specScratch struct {
	r bytes.Reader
	w specWire
}

var specPool = sync.Pool{New: func() any { return new(specScratch) }}

// DecodeSpecJSON parses the JSON wire form back into a validated Spec.
// Unknown fields are rejected — a typoed "staleness" must not silently
// turn into an unbounded query — and so is anything but whitespace after
// the object: two concatenated specs are not one. The returned Spec
// shares no memory with the decoder's pooled scratch.
func DecodeSpecJSON(b []byte) (Spec, error) {
	sc := specPool.Get().(*specScratch)
	defer specPool.Put(sc)
	sc.r.Reset(b)
	defer sc.r.Reset(nil) // the pool must not pin the caller's bytes
	sc.w = specWire{Motes: sc.w.Motes[:0]}
	w := &sc.w
	if err := decodeStrict(&sc.r, b, w); err != nil {
		return Spec{}, fmt.Errorf("query: bad spec JSON: %w", err)
	}
	typ, err := ParseType(w.Type)
	if err != nil {
		return Spec{}, err
	}
	s := Spec{
		Type:         typ,
		T0:           simtime.Time(w.T0),
		T1:           simtime.Time(w.T1),
		Trailing:     time.Duration(w.Trailing),
		Precision:    w.Precision,
		Deadline:     time.Duration(w.Deadline),
		MaxStaleness: time.Duration(w.MaxStaleness),
	}
	if typ == Agg {
		if w.Agg == "" {
			return Spec{}, errors.New("query: agg spec without an operator (set \"agg\" to min, max, mean or mode)")
		}
		if s.Agg, err = ParseAggKind(w.Agg); err != nil {
			return Spec{}, err
		}
	} else if w.Agg != "" {
		return Spec{}, fmt.Errorf("query: %q spec with an aggregate operator", w.Type)
	}
	if len(w.Motes) > 0 {
		s.Select.Motes = make([]radio.NodeID, len(w.Motes))
		for i, m := range w.Motes {
			s.Select.Motes[i] = radio.NodeID(m)
		}
	}
	if w.Continuous != nil {
		s.Continuous = &Continuous{
			Every: time.Duration(w.Continuous.Every),
			Until: time.Duration(w.Continuous.Until),
		}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decodeStrict decodes the one JSON object in b, read through r, into v:
// unknown fields and any non-whitespace byte after the object are errors.
func decodeStrict(r io.Reader, b []byte, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	for i := dec.InputOffset(); i < int64(len(b)); i++ {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
		default:
			return fmt.Errorf("trailing data after the object at offset %d", i)
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// SetResult

// Error codes carried instead of prose so clients keep errors.Is
// semantics across the wire.
const (
	CodeEmptyAggregate = "empty_aggregate"
	CodeNoMotes        = "no_motes"
	CodeError          = "error" // untyped: the message is all there is
)

// ErrCode maps an error to its wire code ("" for nil).
func ErrCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrEmptyAggregate):
		return CodeEmptyAggregate
	case errors.Is(err, ErrNoMotes):
		return CodeNoMotes
	default:
		return CodeError
	}
}

// codeErr inverts ErrCode, preferring the typed sentinel so decoded
// results still satisfy errors.Is.
func codeErr(code, msg string) error {
	switch code {
	case "":
		return nil
	case CodeEmptyAggregate:
		return ErrEmptyAggregate
	case CodeNoMotes:
		return ErrNoMotes
	default:
		if msg == "" {
			msg = "query: remote error"
		}
		return errors.New(msg)
	}
}

type setResultWire struct {
	Seq      int           `json:"seq"`
	At       Dur           `json:"at"`
	Value    *float64      `json:"value,omitempty"`
	ErrBound *float64      `json:"err_bound,omitempty"`
	Count    int           `json:"count,omitempty"`
	Results  []resultWire  `json:"results,omitempty"`
	Failed   int           `json:"failed,omitempty"`
	SiteErrs []siteErrWire `json:"site_errors,omitempty"`
	Error    string        `json:"error,omitempty"`
	Code     string        `json:"code,omitempty"`
}

type resultWire struct {
	Mote     int         `json:"mote"`
	Source   string      `json:"source"`
	Entries  []entryWire `json:"entries,omitempty"`
	IssuedAt Dur         `json:"issued_at,omitempty"`
	DoneAt   Dur         `json:"done_at,omitempty"`
}

type entryWire struct {
	T        Dur     `json:"t"`
	V        float64 `json:"v"`
	ErrBound float64 `json:"err_bound,omitempty"`
	Source   string  `json:"source"`
}

// siteErrWire is one per-site failure inside a round: which site, the
// message, and the typed code — a cluster client must be able to tell
// "site down" rounds from clean ones without parsing prose.
type siteErrWire struct {
	Site  int    `json:"site"`
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// EncodeSetResultJSON renders one round of a spec as JSON. NaN aggregate
// values (an empty-window aggregate) are omitted rather than breaking the
// encoder; the error code says why.
func EncodeSetResultJSON(r SetResult) ([]byte, error) {
	w := setResultWire{
		Seq:    r.Seq,
		At:     Dur(r.At),
		Count:  r.Count,
		Failed: r.Failed,
	}
	if !math.IsNaN(r.Value) && (r.Count > 0 || r.Value != 0 || r.ErrBound != 0) {
		v, e := r.Value, r.ErrBound
		w.Value, w.ErrBound = &v, &e
	}
	for _, res := range r.Results {
		rw := resultWire{
			Mote:     int(res.Query.Mote),
			Source:   res.Answer.Source.String(),
			IssuedAt: Dur(res.Answer.IssuedAt),
			DoneAt:   Dur(res.Answer.DoneAt),
		}
		for _, e := range res.Answer.Entries {
			rw.Entries = append(rw.Entries, entryWire{
				T: Dur(e.T), V: e.V, ErrBound: e.ErrBound, Source: e.Source.String(),
			})
		}
		w.Results = append(w.Results, rw)
	}
	for _, se := range r.SiteErrs {
		sw := siteErrWire{Site: se.Site, Code: ErrCode(se.Err)}
		if se.Err != nil { // a site failure with no error has no message
			sw.Error = se.Err.Error()
		}
		w.SiteErrs = append(w.SiteErrs, sw)
	}
	if r.Err != nil {
		w.Error, w.Code = r.Err.Error(), ErrCode(r.Err)
	}
	return json.Marshal(w)
}

// parseProxySource inverts proxy.Source.String.
func parseProxySource(s string) (proxy.Source, error) {
	for src := proxy.Source(0); int(src) < proxy.NumSources; src++ {
		if src.String() == s {
			return src, nil
		}
	}
	return 0, fmt.Errorf("query: unknown answer source %q", s)
}

// parseCacheSource inverts cache.Source.String.
func parseCacheSource(s string) (cache.Source, error) {
	for _, src := range []cache.Source{cache.Predicted, cache.Pulled, cache.Pushed} {
		if src.String() == s {
			return src, nil
		}
	}
	return 0, fmt.Errorf("query: unknown entry source %q", s)
}

// DecodeSetResultJSON parses a round back into a SetResult. The per-mote
// Result.Query carries only the mote id — the caller knows the spec it
// posed — and typed errors come back as their sentinels, so errors.Is
// keeps working on the client side of the wire.
func DecodeSetResultJSON(b []byte) (SetResult, error) {
	var w setResultWire
	if err := decodeStrict(bytes.NewReader(b), b, &w); err != nil {
		return SetResult{}, fmt.Errorf("query: bad result JSON: %w", err)
	}
	r := SetResult{
		Seq:    w.Seq,
		At:     simtime.Time(w.At),
		Count:  w.Count,
		Failed: w.Failed,
	}
	switch {
	case w.Value != nil:
		r.Value = *w.Value
	case w.Code == CodeEmptyAggregate:
		r.Value = math.NaN() // an empty aggregate's NaN has no JSON form
	}
	if w.ErrBound != nil {
		r.ErrBound = *w.ErrBound
	}
	for _, rw := range w.Results {
		src, err := parseProxySource(rw.Source)
		if err != nil {
			return SetResult{}, err
		}
		res := Result{
			Query: Query{Mote: radio.NodeID(rw.Mote)},
			Answer: proxy.Answer{
				Mote:     radio.NodeID(rw.Mote),
				Source:   src,
				IssuedAt: simtime.Time(rw.IssuedAt),
				DoneAt:   simtime.Time(rw.DoneAt),
			},
		}
		for _, ew := range rw.Entries {
			esrc, err := parseCacheSource(ew.Source)
			if err != nil {
				return SetResult{}, err
			}
			res.Answer.Entries = append(res.Answer.Entries, cache.Entry{
				T: simtime.Time(ew.T), V: ew.V, ErrBound: ew.ErrBound, Source: esrc,
			})
		}
		r.Results = append(r.Results, res)
	}
	for _, se := range w.SiteErrs {
		r.SiteErrs = append(r.SiteErrs, SiteError{Site: se.Site, Err: codeErr(se.Code, se.Error)})
	}
	r.Err = codeErr(w.Code, w.Error)
	return r, nil
}
