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
//
// The codec is written by hand over these two fixed shapes: a scanner
// that reads a body in one pass straight into the result, and an
// appender that writes one buffer. The shape is the one encoding/json
// gives the wire structs kept in json_test.go, which hold the reference
// the tests and fuzz targets compare with: the same bodies are accepted
// (keys match case-insensitively, a repeated key decodes over the
// earlier value, null leaves a number as it was), they decode to the
// same values, and encoding writes the same bytes. encoding/json itself
// is left only a string token with an escape or invalid UTF-8, an
// encoded string that needs escaping, and Dur's scenario-file methods.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"time"
	"unicode"
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

// ParseType is the inverse of Type.String. Its error holds a copy of s,
// so s does not escape: a string converted from bytes to pass here
// needs no allocation.
func ParseType(s string) (Type, error) {
	switch s {
	case "now":
		return Now, nil
	case "past":
		return Past, nil
	case "agg":
		return Agg, nil
	default:
		return 0, fmt.Errorf("query: unknown query type %q (want now, past or agg)", strings.Clone(s))
	}
}

// ParseAggKind is the inverse of AggKind.String; like ParseType, it
// does not let s escape.
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
		return 0, fmt.Errorf("query: unknown aggregate %q (want min, max, mean or mode)", strings.Clone(s))
	}
}

// The members of each wire object, in the order they are written. A
// zero number, an empty string or list and a nil continuous block are
// left out, except where a comment says otherwise.
var (
	// "type", "agg" (AGG only) and "continuous" {"every" (always),
	// "until"} carry the spec's enums and period; the rest are Durs but
	// "motes" and "precision".
	specFields = []string{"type", "motes", "t0", "t1", "trailing", "agg",
		"precision", "deadline", "max_staleness", "continuous"}
	contFields = []string{"every", "until"}
	// "seq" and "at" are always written; "value" and "err_bound" both
	// or neither, and "code" whenever "error" is.
	resultFields = []string{"seq", "at", "value", "err_bound", "count",
		"results", "failed", "site_errors", "error", "code"}
	// "mote" and "source" are always written.
	moteFields = []string{"mote", "source", "entries", "issued_at", "done_at"}
	// "t", "v" and "source" are always written.
	entryFields = []string{"t", "v", "err_bound", "source"}
	// "site" and "error" are always written.
	siteFields = []string{"site", "error", "code"}
)

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
	var stack [256]byte
	b := append(stack[:0], `{"type":`...)
	b = appendString(b, s.Type.String())
	if len(s.Select.Motes) > 0 {
		b = append(b, `,"motes":[`...)
		for i, m := range s.Select.Motes {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(m), 10)
		}
		b = append(b, ']')
	}
	b = appendDurMember(b, `,"t0":`, time.Duration(s.T0))
	b = appendDurMember(b, `,"t1":`, time.Duration(s.T1))
	b = appendDurMember(b, `,"trailing":`, s.Trailing)
	if s.Type == Agg {
		b = appendString(append(b, `,"agg":`...), s.Agg.String())
	}
	if s.Precision != 0 {
		var err error
		if b, err = appendFloat(append(b, `,"precision":`...), s.Precision); err != nil {
			return nil, err
		}
	}
	b = appendDurMember(b, `,"deadline":`, s.Deadline)
	b = appendDurMember(b, `,"max_staleness":`, s.MaxStaleness)
	if c := s.Continuous; c != nil {
		b = appendDur(append(b, `,"continuous":{"every":`...), c.Every)
		b = append(appendDurMember(b, `,"until":`, c.Until), '}')
	}
	return append([]byte(nil), append(b, '}')...), nil
}

// DecodeSpecJSON parses the JSON wire form back into a validated Spec.
// Unknown fields are rejected — a typoed "staleness" must not silently
// turn into an unbounded query — and so is anything but whitespace after
// the object: two concatenated specs are not one. The returned Spec
// shares no memory with b.
func DecodeSpecJSON(b []byte) (Spec, error) {
	var (
		sc       = scanner{b: b}
		typ, agg []byte
		moteBuf  [32]int
		motes    = moteBuf[:0] // every element a motes array wrote
		nMotes   int           // the spec's motes: motes[:nMotes]
		t0, t1   Dur
		trailing Dur
		prec     float64
		deadline Dur
		maxStale Dur
		cont     bool // a continuous block was decoded (and not nulled)
		every    Dur
		until    Dur
	)
	err := func() error {
		if sc.null() { // the zero spec, which has no type
			return sc.end()
		}
		if !sc.consume('{') {
			return sc.want(`"{"`)
		}
		for n := 0; ; n++ {
			k, err := sc.member(n, specFields)
			if k < 0 || err != nil {
				if err != nil {
					return err
				}
				return sc.end()
			}
			switch specFields[k] {
			case "type":
				typ, err = sc.text(typ)
			case "motes":
				motes, nMotes, err = sc.ints(motes, nMotes)
			case "t0":
				err = sc.dur(&t0)
			case "t1":
				err = sc.dur(&t1)
			case "trailing":
				err = sc.dur(&trailing)
			case "agg":
				agg, err = sc.text(agg)
			case "precision":
				err = sc.float(&prec)
			case "deadline":
				err = sc.dur(&deadline)
			case "max_staleness":
				err = sc.dur(&maxStale)
			case "continuous":
				if sc.null() {
					cont = false
					continue
				}
				if !cont { // a new block: nothing of a nulled one survives
					cont, every, until = true, 0, 0
				}
				err = sc.continuous(&every, &until)
			}
			if err != nil {
				return err
			}
		}
	}()
	if err != nil {
		return Spec{}, fmt.Errorf("query: bad spec JSON: %w", err)
	}
	t, err := ParseType(string(typ))
	if err != nil {
		return Spec{}, err
	}
	s := Spec{
		Type:         t,
		T0:           simtime.Time(t0),
		T1:           simtime.Time(t1),
		Trailing:     time.Duration(trailing),
		Precision:    prec,
		Deadline:     time.Duration(deadline),
		MaxStaleness: time.Duration(maxStale),
	}
	if t == Agg {
		if len(agg) == 0 {
			return Spec{}, errors.New("query: agg spec without an operator (set \"agg\" to min, max, mean or mode)")
		}
		if s.Agg, err = ParseAggKind(string(agg)); err != nil {
			return Spec{}, err
		}
	} else if len(agg) > 0 {
		return Spec{}, fmt.Errorf("query: %q spec with an aggregate operator", typ)
	}
	if nMotes > 0 {
		s.Select.Motes = make([]radio.NodeID, nMotes)
		for i, m := range motes[:nMotes] {
			s.Select.Motes[i] = radio.NodeID(m)
		}
	}
	if cont {
		s.Continuous = &Continuous{Every: time.Duration(every), Until: time.Duration(until)}
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// continuous reads a continuous block's members over every and until.
func (s *scanner) continuous(every, until *Dur) error {
	if !s.consume('{') {
		return s.want(`"{"`)
	}
	for n := 0; ; n++ {
		k, err := s.member(n, contFields)
		if k < 0 || err != nil {
			return err
		}
		if k == 0 {
			err = s.dur(every)
		} else {
			err = s.dur(until)
		}
		if err != nil {
			return err
		}
	}
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

// EncodeSetResultJSON renders one round of a spec as JSON. NaN aggregate
// values (an empty-window aggregate) are omitted rather than breaking the
// encoder; the error code says why. Any other NaN or infinity fails with
// the *json.UnsupportedValueError encoding/json would return.
func EncodeSetResultJSON(r SetResult) ([]byte, error) {
	var stack [8192]byte
	b := stack[:0]
	entries := 0
	for _, res := range r.Results {
		entries += len(res.Answer.Entries)
	}
	// An estimate of the answer's length: a mote costs under 160 bytes
	// beside its entries and an entry under 128, so the body is written
	// into at most one allocation before it is copied out.
	if n := 256 + 160*len(r.Results) + 128*entries; n > len(stack) {
		b = make([]byte, 0, n)
	}
	b, err := appendSetResult(b, r)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), b...), nil
}

// appendSetResult appends r's wire form to b.
func appendSetResult(b []byte, r SetResult) ([]byte, error) {
	var err error
	b = strconv.AppendInt(append(b, `{"seq":`...), int64(r.Seq), 10)
	b = appendDur(append(b, `,"at":`...), time.Duration(r.At))
	if !math.IsNaN(r.Value) && (r.Count > 0 || r.Value != 0 || r.ErrBound != 0) {
		if b, err = appendFloat(append(b, `,"value":`...), r.Value); err != nil {
			return nil, err
		}
		if b, err = appendFloat(append(b, `,"err_bound":`...), r.ErrBound); err != nil {
			return nil, err
		}
	}
	b = appendIntMember(b, `,"count":`, r.Count)
	for i, res := range r.Results {
		if i == 0 {
			b = append(b, `,"results":[`...)
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"mote":`...), int64(res.Query.Mote), 10)
		b = appendString(append(b, `,"source":`...), res.Answer.Source.String())
		for j, e := range res.Answer.Entries {
			if j == 0 {
				b = append(b, `,"entries":[`...)
			} else {
				b = append(b, ',')
			}
			b = appendDur(append(b, `{"t":`...), time.Duration(e.T))
			if b, err = appendFloat(append(b, `,"v":`...), e.V); err != nil {
				return nil, err
			}
			if e.ErrBound != 0 {
				if b, err = appendFloat(append(b, `,"err_bound":`...), e.ErrBound); err != nil {
					return nil, err
				}
			}
			b = append(appendString(append(b, `,"source":`...), e.Source.String()), '}')
		}
		if len(res.Answer.Entries) > 0 {
			b = append(b, ']')
		}
		b = appendDurMember(b, `,"issued_at":`, time.Duration(res.Answer.IssuedAt))
		b = append(appendDurMember(b, `,"done_at":`, time.Duration(res.Answer.DoneAt)), '}')
	}
	if len(r.Results) > 0 {
		b = append(b, ']')
	}
	b = appendIntMember(b, `,"failed":`, r.Failed)
	for i, se := range r.SiteErrs {
		if i == 0 {
			b = append(b, `,"site_errors":[`...)
		} else {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, `{"site":`...), int64(se.Site), 10)
		msg := ""
		if se.Err != nil { // a site failure with no error has no message
			msg = se.Err.Error()
		}
		b = appendString(append(b, `,"error":`...), msg)
		b = append(appendStringMember(b, `,"code":`, ErrCode(se.Err)), '}')
	}
	if len(r.SiteErrs) > 0 {
		b = append(b, ']')
	}
	if r.Err != nil {
		b = appendStringMember(b, `,"error":`, r.Err.Error())
		b = appendStringMember(b, `,"code":`, ErrCode(r.Err))
	}
	return append(b, '}'), nil
}

// parseProxySource inverts proxy.Source.String.
func parseProxySource(s []byte) (proxy.Source, error) {
	for src := proxy.Source(0); int(src) < proxy.NumSources; src++ {
		if string(s) == src.String() {
			return src, nil
		}
	}
	return 0, fmt.Errorf("query: unknown answer source %q", s)
}

// parseCacheSource inverts cache.Source.String.
func parseCacheSource(s []byte) (cache.Source, error) {
	for _, src := range [...]cache.Source{cache.Predicted, cache.Pulled, cache.Pushed} {
		if string(s) == src.String() {
			return src, nil
		}
	}
	return 0, fmt.Errorf("query: unknown entry source %q", s)
}

// moteWire is an element of a round's "results" array as decoding
// leaves it; its entries sit in the decode's shared entry buffer.
type moteWire struct {
	mote         int
	source       []byte
	entries      span
	issued, done Dur
}

// entryWire is an element of an "entries" array as decoding leaves it.
type entryWire struct {
	t        Dur
	v, bound float64
	source   []byte
}

// siteWire is an element of a round's "site_errors" array.
type siteWire struct {
	site      int
	msg, code []byte
}

// span is a slice of a shared buffer, kept as encoding/json keeps a
// slice it decodes into: elements [0, n) are the value, and [n, hw) are
// what an earlier, longer array of the same key left, which a later
// array decodes over.
type span struct{ off, n, hw int }

// DecodeSetResultJSON parses a round back into a SetResult. The per-mote
// Result.Query carries only the mote id — the caller knows the spec it
// posed — and typed errors come back as their sentinels, so errors.Is
// keeps working on the client side of the wire. A round's results and
// their entries are two allocations, whatever the number of motes.
func DecodeSetResultJSON(b []byte) (SetResult, error) {
	var (
		sc           = scanner{b: b}
		r            SetResult
		at           Dur
		value, bound float64
		hasValue     bool // "value" decoded to a number, not null
		hasBound     bool
		moteBuf      [32]moteWire
		motes        = moteBuf[:0] // every element a results array wrote
		nMotes       int           // the round's: motes[:nMotes]
		entryBuf     [32]entryWire
		entries      = entryBuf[:0]
		sites        []siteWire
		nSites       int
		msg, code    []byte
	)
	err := func() error {
		if sc.null() { // the zero round
			return sc.end()
		}
		if !sc.consume('{') {
			return sc.want(`"{"`)
		}
		for n := 0; ; n++ {
			k, err := sc.member(n, resultFields)
			if k < 0 || err != nil {
				if err != nil {
					return err
				}
				return sc.end()
			}
			switch resultFields[k] {
			case "seq":
				err = sc.int(&r.Seq)
			case "at":
				err = sc.dur(&at)
			case "value":
				hasValue, err = sc.optFloat(&value)
			case "err_bound":
				hasBound, err = sc.optFloat(&bound)
			case "count":
				err = sc.int(&r.Count)
			case "results":
				motes, nMotes, entries, err = sc.motes(motes, nMotes, entries)
			case "failed":
				err = sc.int(&r.Failed)
			case "site_errors":
				sites, nSites, err = sc.siteErrors(sites, nSites)
			case "error":
				msg, err = sc.text(msg)
			case "code":
				code, err = sc.text(code)
			}
			if err != nil {
				return err
			}
		}
	}()
	if err != nil {
		return SetResult{}, fmt.Errorf("query: bad result JSON: %w", err)
	}
	r.At = simtime.Time(at)
	switch {
	case hasValue:
		r.Value = value
	case string(code) == CodeEmptyAggregate:
		r.Value = math.NaN() // an empty aggregate's NaN has no JSON form
	}
	if hasBound {
		r.ErrBound = bound
	}
	if nMotes > 0 {
		n := 0
		for _, m := range motes[:nMotes] {
			n += m.entries.n
		}
		var all []cache.Entry
		if n > 0 {
			all = make([]cache.Entry, n)
		}
		r.Results = make([]Result, nMotes)
		for i, m := range motes[:nMotes] {
			src, err := parseProxySource(m.source)
			if err != nil {
				return SetResult{}, err
			}
			id := radio.NodeID(m.mote)
			res := &r.Results[i]
			res.Query.Mote = id
			res.Answer = proxy.Answer{Mote: id, Source: src,
				IssuedAt: simtime.Time(m.issued), DoneAt: simtime.Time(m.done)}
			if m.entries.n == 0 {
				continue
			}
			es := all[:m.entries.n:m.entries.n]
			all = all[m.entries.n:]
			for j, e := range entries[m.entries.off : m.entries.off+m.entries.n] {
				esrc, err := parseCacheSource(e.source)
				if err != nil {
					return SetResult{}, err
				}
				es[j] = cache.Entry{T: simtime.Time(e.t), V: e.v, ErrBound: e.bound, Source: esrc}
			}
			res.Answer.Entries = es
		}
	}
	for _, se := range sites[:nSites] {
		r.SiteErrs = append(r.SiteErrs, SiteError{Site: se.site, Err: codeErr(string(se.code), string(se.msg))})
	}
	r.Err = codeErr(string(code), string(msg))
	return r, nil
}

// motes reads a "results" array over the elements an earlier one left
// (ms, of which the first n were the value), each mote's entries into
// es. It returns the grown buffers and the new value's length.
func (s *scanner) motes(ms []moteWire, n int, es []entryWire) ([]moteWire, int, []entryWire, error) {
	if s.null() {
		return ms[:0], 0, es, nil
	}
	if !s.consume('[') {
		return ms, n, es, s.want(`"["`)
	}
	i := 0
	for ; ; i++ {
		more, err := s.elem(i)
		if err != nil || !more {
			if i == 0 { // [] starts the slice over, as null does
				ms = ms[:0]
			}
			return ms, i, es, err
		}
		if i == len(ms) {
			ms = append(ms, moteWire{entries: span{off: len(es)}})
		}
		if es, err = s.mote(&ms[i], es); err != nil {
			return ms, n, es, err
		}
	}
}

// mote reads one element of a "results" array over m, its entries into
// es; it returns es grown.
func (s *scanner) mote(m *moteWire, es []entryWire) ([]entryWire, error) {
	if s.null() { // a null element leaves the element as it was
		return es, nil
	}
	if !s.consume('{') {
		return es, s.want(`"{"`)
	}
	for n := 0; ; n++ {
		k, err := s.member(n, moteFields)
		if k < 0 || err != nil {
			return es, err
		}
		switch moteFields[k] {
		case "mote":
			err = s.int(&m.mote)
		case "source":
			m.source, err = s.text(m.source)
		case "entries":
			es, m.entries, err = s.entries(es, m.entries)
		case "issued_at":
			err = s.dur(&m.issued)
		case "done_at":
			err = s.dur(&m.done)
		}
		if err != nil {
			return es, err
		}
	}
}

// entries reads an "entries" array over sp, its earlier value in es.
// A span that must grow and does not end es moves to the end, what an
// earlier array left included.
func (s *scanner) entries(es []entryWire, sp span) ([]entryWire, span, error) {
	if s.null() {
		return es, span{off: len(es)}, nil
	}
	if !s.consume('[') {
		return es, sp, s.want(`"["`)
	}
	for i := 0; ; i++ {
		more, err := s.elem(i)
		if err != nil || !more {
			sp.n = i
			if i == 0 {
				sp = span{off: len(es)}
			}
			return es, sp, err
		}
		if i == sp.hw {
			if sp.off+sp.hw != len(es) {
				off := len(es)
				es = append(es, es[sp.off:sp.off+sp.hw]...)
				sp.off = off
			}
			es = append(es, entryWire{})
			sp.hw++
		}
		if err := s.entry(&es[sp.off+i]); err != nil {
			return es, sp, err
		}
	}
}

// entry reads one element of an "entries" array over e.
func (s *scanner) entry(e *entryWire) error {
	if s.null() {
		return nil
	}
	if !s.consume('{') {
		return s.want(`"{"`)
	}
	for n := 0; ; n++ {
		k, err := s.member(n, entryFields)
		if k < 0 || err != nil {
			return err
		}
		switch entryFields[k] {
		case "t":
			err = s.dur(&e.t)
		case "v":
			err = s.float(&e.v)
		case "err_bound":
			err = s.float(&e.bound)
		case "source":
			e.source, err = s.text(e.source)
		}
		if err != nil {
			return err
		}
	}
}

// siteErrors reads a "site_errors" array over ss, of which the first n
// were the value; it returns ss grown and the new value's length.
func (s *scanner) siteErrors(ss []siteWire, n int) ([]siteWire, int, error) {
	if s.null() {
		return nil, 0, nil
	}
	if !s.consume('[') {
		return ss, n, s.want(`"["`)
	}
	for i := 0; ; i++ {
		more, err := s.elem(i)
		if err != nil || !more {
			if i == 0 {
				ss = nil
			}
			return ss, i, err
		}
		if i == len(ss) {
			ss = append(ss, siteWire{})
		}
		w := &ss[i]
		if s.null() {
			continue
		}
		if !s.consume('{') {
			return ss, n, s.want(`"{"`)
		}
		for m := 0; ; m++ {
			k, err := s.member(m, siteFields)
			if k < 0 || err != nil {
				if err != nil {
					return ss, n, err
				}
				break
			}
			switch siteFields[k] {
			case "site":
				err = s.int(&w.site)
			case "error":
				w.msg, err = s.text(w.msg)
			case "code":
				w.code, err = s.text(w.code)
			}
			if err != nil {
				return ss, n, err
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Scanner

// scanner reads one JSON text in place and as strictly as encoding/json:
// what that decoder refuses, a read refuses. Each read skips the
// whitespace before what it reads.
type scanner struct {
	b []byte
	i int
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// consume reads the byte c if it comes next.
func (s *scanner) consume(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

// want is the syntax error of finding something else where what was
// wanted should be.
func (s *scanner) want(what string) error {
	if s.peek(); s.i == len(s.b) {
		return fmt.Errorf("unexpected end of JSON input, want %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", s.b[s.i], s.i, what)
}

// end checks that only whitespace follows the value.
func (s *scanner) end() error {
	if s.peek(); s.i < len(s.b) {
		return fmt.Errorf("trailing data after the object at offset %d", s.i)
	}
	return nil
}

// null reads the literal null if it comes next.
func (s *scanner) null() bool {
	if s.peek() != 'n' || !bytes.HasPrefix(s.b[s.i:], nullLiteral) {
		return false
	}
	s.i += len(nullLiteral)
	return true
}

var nullLiteral = []byte("null")

// member reads up to the value of an object's next member, the comma
// before it included, and returns the index of the member's key in
// names; -1 after the closing brace. n counts the members read so far.
// A key matches a name as encoding/json matches it to a field: exactly
// or else under Unicode case folding ("TYPE", "max_ſtaleness").
func (s *scanner) member(n int, names []string) (int, error) {
	if s.consume('}') {
		return -1, nil
	}
	if n > 0 && !s.consume(',') {
		return 0, s.want(`"," or "}"`)
	}
	if s.peek() != '"' {
		return 0, s.want("a key")
	}
	raw, plain, err := s.str()
	if err != nil {
		return 0, err
	}
	key := raw[1 : len(raw)-1]
	if !plain {
		var k string
		if err := json.Unmarshal(raw, &k); err != nil {
			return 0, err
		}
		key = []byte(k)
	}
	k := fieldIndex(names, key)
	if k < 0 {
		return 0, fmt.Errorf("unknown field %q", key)
	}
	if !s.consume(':') {
		return 0, s.want(`":"`)
	}
	return k, nil
}

// fieldIndex returns the index of the name key matches, -1 for none.
func fieldIndex(names []string, key []byte) int {
	for k, name := range names {
		if string(key) == name {
			return k
		}
	}
	for k, name := range names {
		if foldEqual(key, name) {
			return k
		}
	}
	return -1
}

// foldEqual reports whether key folds to name (lower-case ASCII) as
// encoding/json folds a key: ASCII letters by case, any other rune to
// the smallest rune of its simple-folding orbit.
func foldEqual(key []byte, name string) bool {
	j := 0
	for i := 0; i < len(key); j++ {
		c := key[i]
		if c < utf8.RuneSelf {
			i++
		} else {
			r, size := utf8.DecodeRune(key[i:])
			i += size
			if r = foldRune(r); r >= utf8.RuneSelf {
				return false
			}
			c = byte(r)
		}
		if j == len(name) || upper(c) != upper(name[j]) {
			return false
		}
	}
	return j == len(name)
}

// foldRune returns the smallest rune of r's simple-folding orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// upper maps an ASCII lower-case letter to upper case.
func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - ('a' - 'A')
	}
	return c
}

// elem reads up to an array's next element, the comma before it
// included; it reports false after the closing bracket. n counts the
// elements read so far.
func (s *scanner) elem(n int) (bool, error) {
	if s.consume(']') {
		return false, nil
	}
	if n > 0 && !s.consume(',') {
		return false, s.want(`"," or "]"`)
	}
	return true, nil
}

// str reads the string token the scanner is at. It returns the token,
// quotes included, and whether its content reads the same decoded: no
// escape and valid UTF-8. Escapes are checked by whoever decodes them.
func (s *scanner) str() (raw []byte, plain bool, err error) {
	start := s.i
	plain, ascii := true, true
	for s.i++; s.i < len(s.b); {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			raw = s.b[start:s.i]
			return raw, plain && (ascii || utf8.Valid(raw)), nil
		case c == '\\':
			plain = false
			s.i += 2 // the escaped byte does not end the string
		case c < 0x20:
			return nil, false, fmt.Errorf("invalid character %q in string literal", c)
		default:
			ascii = ascii && c < utf8.RuneSelf
			s.i++
		}
	}
	return nil, false, errors.New("unexpected end of JSON input in a string")
}

// text reads a string into a string member whose value is v: null
// leaves v; a plain string is returned in place, any other decoded
// through encoding/json.
func (s *scanner) text(v []byte) ([]byte, error) {
	if s.null() {
		return v, nil
	}
	if s.peek() != '"' {
		return v, s.want("a string")
	}
	raw, plain, err := s.str()
	if err != nil {
		return v, err
	}
	if plain {
		return raw[1 : len(raw)-1], nil
	}
	var t string
	if err := json.Unmarshal(raw, &t); err != nil {
		return v, err
	}
	return []byte(t), nil
}

// num reads a number token, checked against the JSON grammar.
func (s *scanner) num() ([]byte, error) {
	s.peek()
	start := s.i
	s.skip('-')
	if !s.skip('0') && s.digits() == 0 {
		return nil, s.want("a number")
	}
	if s.skip('.') && s.digits() == 0 {
		return nil, s.want("a digit")
	}
	if s.skip('e') || s.skip('E') {
		if !s.skip('+') {
			s.skip('-')
		}
		if s.digits() == 0 {
			return nil, s.want("a digit")
		}
	}
	return s.b[start:s.i], nil
}

// skip reads the byte c if it is the next one, whitespace not skipped.
func (s *scanner) skip(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// digits reads a run of decimal digits and returns its length.
func (s *scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && '0' <= s.b[s.i] && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// int reads a number into an int member; null leaves it.
func (s *scanner) int(v *int) error {
	if s.null() {
		return nil
	}
	tok, err := s.num()
	if err != nil {
		return err
	}
	n, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return err
	}
	*v = int(n)
	return nil
}

// ints reads an array of ints over xs, of which the first n were the
// value; it returns xs grown and the new value's length.
func (s *scanner) ints(xs []int, n int) ([]int, int, error) {
	if s.null() {
		return xs[:0], 0, nil
	}
	if !s.consume('[') {
		return xs, n, s.want(`"["`)
	}
	for i := 0; ; i++ {
		more, err := s.elem(i)
		if err != nil || !more {
			if i == 0 {
				xs = xs[:0]
			}
			return xs, i, err
		}
		if i == len(xs) {
			xs = append(xs, 0)
		}
		if err := s.int(&xs[i]); err != nil {
			return xs, n, err
		}
	}
}

// float reads a number into a float member; null leaves it.
func (s *scanner) float(f *float64) error {
	_, err := s.optFloat(f)
	return err
}

// optFloat reads a number or null into a pointer-to-float member:
// it reports whether the pointer is set, that is, false for null.
func (s *scanner) optFloat(f *float64) (bool, error) {
	if s.null() {
		return false, nil
	}
	tok, err := s.num()
	if err != nil {
		return false, err
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return false, err
	}
	*f = v
	return true, nil
}

// dur reads a Dur member: the raw token, null included, goes to
// Dur.UnmarshalJSON as encoding/json would pass it.
func (s *scanner) dur(d *Dur) error {
	var (
		tok []byte
		err error
	)
	switch c := s.peek(); {
	case c == '"':
		tok, _, err = s.str()
	case s.null():
		tok = s.b[s.i-len(nullLiteral) : s.i]
	case c == '-' || '0' <= c && c <= '9':
		tok, err = s.num()
	default:
		return s.want("a duration")
	}
	if err != nil {
		return err
	}
	return d.UnmarshalJSON(tok)
}

// ---------------------------------------------------------------------------
// Appender

// appendString appends s as encoding/json writes a string. A string of
// printable ASCII that needs no escape — every name and code here — is
// written as it is; any other takes encoding/json's escaping.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	return append(append(append(b, '"'), s...), '"')
}

// appendStringMember appends a string member, left out when s is empty.
func appendStringMember(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendString(append(b, key...), s)
}

// appendIntMember appends an int member, left out when v is zero.
func appendIntMember(b []byte, key string, v int) []byte {
	if v == 0 {
		return b
	}
	return strconv.AppendInt(append(b, key...), int64(v), 10)
}

// appendDurMember appends a Dur member, left out when d is zero.
func appendDurMember(b []byte, key string, d time.Duration) []byte {
	if d == 0 {
		return b
	}
	return appendDur(append(b, key...), d)
}

// appendDur appends d as Dur.MarshalJSON writes it: its
// time.Duration.String form, quoted. No duration string needs an escape.
func appendDur(b []byte, d time.Duration) []byte {
	return append(appendDuration(append(b, '"'), d), '"')
}

// appendDuration appends time.Duration(d).String() without building the
// string: hours, minutes and fractional seconds, or one fractional unit
// of ms, µs or ns below a second.
func appendDuration(b []byte, d time.Duration) []byte {
	if d == 0 {
		return append(b, "0s"...)
	}
	u := uint64(d)
	if d < 0 {
		b = append(b, '-')
		u = -u
	}
	switch {
	case u < uint64(time.Microsecond):
		return append(strconv.AppendUint(b, u, 10), "ns"...)
	case u < uint64(time.Millisecond):
		return append(appendFrac(b, u, 3), "µs"...)
	case u < uint64(time.Second):
		return append(appendFrac(b, u, 6), "ms"...)
	}
	h, m := u/uint64(time.Hour), u/uint64(time.Minute)%60
	if h > 0 {
		b = append(strconv.AppendUint(b, h, 10), 'h')
	}
	if h > 0 || m > 0 {
		b = append(strconv.AppendUint(b, m, 10), 'm')
	}
	return append(appendFrac(b, u%uint64(time.Minute), 9), 's')
}

// appendFrac appends v/10^prec in decimal, the fraction without its
// trailing zeros.
func appendFrac(b []byte, v uint64, prec int) []byte {
	p := uint64(1)
	for range prec {
		p *= 10
	}
	b = strconv.AppendUint(b, v/p, 10)
	if v %= p; v > 0 {
		b = append(b, '.')
		for p /= 10; v > 0; p /= 10 {
			b = append(b, byte('0'+v/p))
			v %= p
		}
	}
	return b
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 on, with the exponent unpadded ("1e-7", not "1e-07"). NaN and
// the infinities have no JSON form.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}
