package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"presto/internal/cache"
	"presto/internal/proxy"
	"presto/internal/radio"
	"presto/internal/simtime"
)

func TestSpecJSONRoundTrip(t *testing.T) {
	specs := []Spec{
		{Type: Now, Precision: 0.5, MaxStaleness: 30 * time.Minute},
		{Type: Now, Select: SelectMotes(3, 1, 7)},
		{Type: Past, T0: 2 * simtime.Hour, T1: 8 * simtime.Hour, Precision: 1.5,
			Deadline: 5 * time.Second, Select: SelectMotes(2)},
		{Type: Agg, Agg: Mean, Trailing: 90 * time.Minute, Precision: 0.25},
		{Type: Agg, Agg: Mode, T0: simtime.Hour, T1: 3 * simtime.Hour, Precision: 2},
		{Type: Now, Precision: 1,
			Continuous: &Continuous{Every: 30 * time.Minute, Until: 6 * time.Hour}},
	}
	for i, s := range specs {
		buf, err := EncodeSpecJSON(s)
		if err != nil {
			t.Fatalf("spec %d: encode: %v", i, err)
		}
		got, err := DecodeSpecJSON(buf)
		if err != nil {
			t.Fatalf("spec %d: decode %s: %v", i, buf, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Errorf("spec %d: round trip\n got %+v\nwant %+v\nwire %s", i, got, s, buf)
		}
	}
}

func TestSpecJSONHumanForms(t *testing.T) {
	// The curl-facing forms the README documents: duration strings,
	// omitted motes = all, numeric nanoseconds accepted too.
	s, err := DecodeSpecJSON([]byte(`{"type":"agg","agg":"mean","trailing":"2h","precision":0.5,"max_staleness":"30m"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Trailing != 2*time.Hour || s.MaxStaleness != 30*time.Minute || s.Agg != Mean {
		t.Fatalf("decoded %+v", s)
	}
	if len(s.Select.Motes) != 0 {
		t.Fatalf("omitted motes should mean all, got %v", s.Select.Motes)
	}
	s, err = DecodeSpecJSON([]byte(`{"type":"past","motes":[2],"t0":3600000000000,"t1":"2h"}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.T0 != simtime.Hour || s.T1 != 2*simtime.Hour {
		t.Fatalf("decoded window [%v, %v]", s.T0, s.T1)
	}
}

func TestSpecJSONErrors(t *testing.T) {
	cases := []string{
		`{"type":"sum"}`,                          // unknown type
		`{"type":"agg"}`,                          // agg without operator
		`{"type":"agg","agg":"median"}`,           // unknown operator
		`{"type":"now","agg":"mean"}`,             // operator on a NOW spec
		`{"type":"now","staleness":"1h"}`,         // typoed field
		`{"type":"past","t0":"2h","t1":"1h"}`,     // inverted window
		`{"type":"past","t0":"bogus"}`,            // unparsable duration
		`{"type":"now","trailing":"1h"}`,          // trailing on NOW
		`{"type":"now","continuous":{"every":0}}`, // non-positive period
		`not json`,
		`{"type":"now"} garbage`,       // trailing bytes
		`{"type":"now"}]`,              // trailing bracket
		`{"type":"now"}{"type":"agg"}`, // two specs are not one
		`{"type":"now"}` + "\n" + `{}`, // a second object after whitespace
	}
	for _, c := range cases {
		if _, err := DecodeSpecJSON([]byte(c)); err == nil {
			t.Errorf("DecodeSpecJSON(%s) accepted", c)
		}
	}
	if _, err := EncodeSpecJSON(Spec{Type: Now, Select: SelectWhere(func(radio.NodeID) bool { return true })}); err == nil {
		t.Error("EncodeSpecJSON accepted a selector predicate")
	}
}

func TestSetResultJSONRoundTrip(t *testing.T) {
	results := []SetResult{
		// Merged aggregate.
		{Seq: 3, At: 48 * simtime.Hour, Value: 21.25, ErrBound: 0.5, Count: 16},
		// Per-mote NOW snapshot with provenance and entries.
		{At: 2 * simtime.Hour, Failed: 1, Results: []Result{{
			Query: Query{Mote: 4},
			Answer: proxy.Answer{
				Mote: 4, Source: proxy.FromModel,
				IssuedAt: 2 * simtime.Hour, DoneAt: 2*simtime.Hour + simtime.Millisecond,
				Entries: []cache.Entry{
					{T: 2 * simtime.Hour, V: 20.5, ErrBound: 1, Source: cache.Predicted},
					{T: 2*simtime.Hour - simtime.Minute, V: 20.1, Source: cache.Pushed},
				},
			},
		}}},
		// Empty aggregate: NaN value must survive as its code.
		{Value: math.NaN(), Err: ErrEmptyAggregate},
		// Partial cluster round.
		{Value: 3, Count: 2, Failed: 4,
			SiteErrs: []SiteError{{Site: 2, Err: errors.New("conn reset")}}},
	}
	for i, r := range results {
		buf, err := EncodeSetResultJSON(r)
		if err != nil {
			t.Fatalf("result %d: encode: %v", i, err)
		}
		got, err := DecodeSetResultJSON(buf)
		if err != nil {
			t.Fatalf("result %d: decode %s: %v", i, buf, err)
		}
		if math.IsNaN(r.Value) != math.IsNaN(got.Value) {
			t.Fatalf("result %d: NaN-ness diverged: %v vs %v", i, got.Value, r.Value)
		}
		if !math.IsNaN(r.Value) && got.Value != r.Value {
			t.Errorf("result %d: value %v != %v", i, got.Value, r.Value)
		}
		if got.Seq != r.Seq || got.At != r.At || got.ErrBound != r.ErrBound ||
			got.Count != r.Count || got.Failed != r.Failed {
			t.Errorf("result %d: scalars diverged\n got %+v\nwant %+v", i, got, r)
		}
		if !errors.Is(got.Err, r.Err) && (r.Err == nil) == (got.Err == nil) && r.Err != nil && got.Err.Error() != r.Err.Error() {
			t.Errorf("result %d: err %v != %v", i, got.Err, r.Err)
		}
		if len(got.Results) != len(r.Results) || len(got.SiteErrs) != len(r.SiteErrs) {
			t.Fatalf("result %d: shape diverged: %+v", i, got)
		}
		for j := range r.Results {
			want, have := r.Results[j], got.Results[j]
			if have.Query.Mote != want.Query.Mote || have.Answer.Source != want.Answer.Source ||
				have.Answer.IssuedAt != want.Answer.IssuedAt || have.Answer.DoneAt != want.Answer.DoneAt ||
				!reflect.DeepEqual(have.Answer.Entries, want.Answer.Entries) {
				t.Errorf("result %d mote %d: round trip\n got %+v\nwant %+v", i, want.Query.Mote, have, want)
			}
		}
	}
}

func TestSetResultJSONTypedErrors(t *testing.T) {
	buf, err := EncodeSetResultJSON(SetResult{Value: math.NaN(), Err: ErrEmptyAggregate})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSetResultJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(got.Err, ErrEmptyAggregate) {
		t.Fatalf("decoded err %v, want ErrEmptyAggregate", got.Err)
	}
	if ErrCode(ErrNoMotes) != CodeNoMotes || ErrCode(nil) != "" {
		t.Fatal("ErrCode mapping broken")
	}
	if !errors.Is(codeErr(CodeNoMotes, "whatever"), ErrNoMotes) {
		t.Fatal("codeErr(no_motes) lost the sentinel")
	}
}

// TestSetResultJSONSiteErrors pins the wire shape of per-site failures:
// the field is "site_errors", each entry carries site, message and — for
// typed errors — a machine-readable code that decodes back to the
// sentinel.
func TestSetResultJSONSiteErrors(t *testing.T) {
	buf, err := EncodeSetResultJSON(SetResult{Value: 3, Count: 2, Failed: 6, SiteErrs: []SiteError{
		{Site: 1, Err: errors.New("conn reset")},
		{Site: 2, Err: fmt.Errorf("scatter: %w", ErrNoMotes)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var wire struct {
		SiteErrors []struct {
			Site  int    `json:"site"`
			Error string `json:"error"`
			Code  string `json:"code"`
		} `json:"site_errors"`
	}
	if err := json.Unmarshal(buf, &wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.SiteErrors) != 2 {
		t.Fatalf("wire form: %s", buf)
	}
	if w := wire.SiteErrors[0]; w.Site != 1 || w.Error != "conn reset" || w.Code != CodeError {
		t.Fatalf("untyped site error: %+v", w)
	}
	if w := wire.SiteErrors[1]; w.Site != 2 || w.Code != CodeNoMotes {
		t.Fatalf("typed site error: %+v", w)
	}

	got, err := DecodeSetResultJSON(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.SiteErrs) != 2 || got.SiteErrs[0].Err.Error() != "conn reset" {
		t.Fatalf("round trip: %+v", got.SiteErrs)
	}
	if !errors.Is(got.SiteErrs[1].Err, ErrNoMotes) {
		t.Fatalf("typed site error lost its sentinel: %v", got.SiteErrs[1].Err)
	}
}

// TestSpecJSONTrailingWhitespace: whitespace after the object is not
// trailing data — curl and most clients end a body with a newline.
func TestSpecJSONTrailingWhitespace(t *testing.T) {
	s, err := DecodeSpecJSON([]byte("{\"type\":\"now\"} \t\r\n"))
	if err != nil || s.Type != Now {
		t.Fatalf("decoded %+v, %v", s, err)
	}
}

// TestSetResultJSONTrailingData: the result decoder is as strict as the
// spec decoder about bytes after the object.
func TestSetResultJSONTrailingData(t *testing.T) {
	for _, c := range []string{
		`{"seq":0,"at":"1h"}{"x":1}`,
		`{"seq":0,"at":"1h"} garbage`,
		`{"seq":0,"at":"1h"}]`,
	} {
		if _, err := DecodeSetResultJSON([]byte(c)); err == nil {
			t.Errorf("DecodeSetResultJSON(%s) accepted", c)
		}
	}
	r, err := DecodeSetResultJSON([]byte(`{"seq":0,"at":"1h"}` + "\n"))
	if err != nil || r.At != simtime.Hour {
		t.Fatalf("decoded %+v, %v", r, err)
	}
}

// TestDurJSONForms pins Dur's decoding: plain strings parse in place,
// escaped strings and numbers take the general path to the same value,
// and a bad duration keeps its error text.
func TestDurJSONForms(t *testing.T) {
	for in, want := range map[string]time.Duration{
		`"90m"`:           90 * time.Minute,
		`"1h30m"`:         90 * time.Minute,
		`"1.5µs"`:         1500 * time.Nanosecond,
		`"\u0039\u0030m"`: 90 * time.Minute,
		`5400000000000`:   90 * time.Minute,
	} {
		var d Dur
		if err := json.Unmarshal([]byte(in), &d); err != nil || time.Duration(d) != want {
			t.Errorf("Dur(%s) = %v, %v; want %v", in, time.Duration(d), err, want)
		}
	}
	for in, msg := range map[string]string{
		`"bogus"`:      `query: bad duration "bogus": time: invalid duration "bogus"`,
		`"b\u006fgus"`: `query: bad duration "bogus": time: invalid duration "bogus"`,
	} {
		var d Dur
		if err := d.UnmarshalJSON([]byte(in)); err == nil || err.Error() != msg {
			t.Errorf("Dur(%s) error %v, want %q", in, err, msg)
		}
	}
}

// TestDecodeSpecJSONNoAliasing: a decoded spec shares no memory with
// the body or with another decode — decoding again, or scribbling over
// the body, must not change the first spec's motes.
func TestDecodeSpecJSONNoAliasing(t *testing.T) {
	body := []byte(`{"type":"now","motes":[1,2,3]}`)
	first, err := DecodeSpecJSON(body)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := DecodeSpecJSON([]byte(`{"type":"now","motes":[7,8,9,10]}`)); err != nil {
			t.Fatal(err)
		}
	}
	for i := range body {
		body[i] = '9'
	}
	if want := []radio.NodeID{1, 2, 3}; !reflect.DeepEqual(first.Select.Motes, want) {
		t.Fatalf("first spec's motes became %v, want %v", first.Select.Motes, want)
	}
}

// TestDecodeSpecJSONConcurrent: decodes racing on many goroutines each
// get their own spec back.
func TestDecodeSpecJSONConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body := []byte(fmt.Sprintf(`{"type":"now","motes":[%d,%d,%d],"max_staleness":"%dm"}`, g, g+1, g+2, g+1))
			want := []radio.NodeID{radio.NodeID(g), radio.NodeID(g + 1), radio.NodeID(g + 2)}
			for i := 0; i < 200; i++ {
				s, err := DecodeSpecJSON(body)
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(s.Select.Motes, want) || s.MaxStaleness != time.Duration(g+1)*time.Minute {
					t.Errorf("goroutine %d decoded %+v", g, s)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestDecodeSpecJSONAllocs: an 8-mote trailing aggregate — the serving
// tier's common shape — costs one allocation, the spec's Motes slice.
func TestDecodeSpecJSONAllocs(t *testing.T) {
	body := []byte(`{"type":"agg","motes":[1,2,3,4,5,6,7,8],"trailing":"1h","agg":"mean","precision":0.5,"max_staleness":"30m"}`)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeSpecJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("DecodeSpecJSON of an 8-mote trailing AGG: %v allocs, want <= 1", allocs)
	}
}

// nowAnswer is a 16-mote NOW round as the serving tier answers it.
func nowAnswer() SetResult {
	r := SetResult{At: 48 * simtime.Hour}
	for m := radio.NodeID(1); m <= 16; m++ {
		r.Results = append(r.Results, Result{Query: Query{Mote: m}, Answer: proxy.Answer{
			Mote: m, Source: proxy.FromModel, IssuedAt: 48 * simtime.Hour, DoneAt: 48 * simtime.Hour,
			Entries: []cache.Entry{{T: 48 * simtime.Hour, V: 20 + float64(m)/7, ErrBound: 0.5, Source: cache.Predicted}},
		}})
	}
	return r
}

// TestDecodeSetResultJSONAllocs: an aggregate answer decodes without
// allocating, and a 16-mote NOW answer into two allocations: its
// results and their entries.
func TestDecodeSetResultJSONAllocs(t *testing.T) {
	for _, c := range []struct {
		name  string
		r     SetResult
		limit float64
	}{
		{"agg", SetResult{Seq: 2, At: 48 * simtime.Hour, Value: 21.25, ErrBound: 0.5, Count: 16}, 0},
		{"now-16", nowAnswer(), 2},
	} {
		body, err := EncodeSetResultJSON(c.r)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := DecodeSetResultJSON(body); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.limit {
			t.Errorf("DecodeSetResultJSON of the %s answer: %v allocs, want <= %v", c.name, allocs, c.limit)
		}
	}
}

// TestEncodeJSONAllocs: encoding writes one buffer and returns one copy
// of it.
func TestEncodeJSONAllocs(t *testing.T) {
	now := nowAnswer()
	agg := SetResult{Seq: 2, At: 48 * simtime.Hour, Value: 21.25, ErrBound: 0.5, Count: 16}
	spec := Spec{Type: Agg, Agg: Mean, Select: SelectMotes(1, 2, 3, 4, 5, 6, 7, 8), Trailing: time.Hour, Precision: 0.5}
	for name, f := range map[string]func() error{
		"now-16": func() error { _, err := EncodeSetResultJSON(now); return err },
		"agg":    func() error { _, err := EncodeSetResultJSON(agg); return err },
		"spec":   func() error { _, err := EncodeSpecJSON(spec); return err },
	} {
		allocs := testing.AllocsPerRun(200, func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("encoding the %s: %v allocs, want <= 1", name, allocs)
		}
	}
}

// TestAppendDurationMatchesString: the appender writes every duration
// as time.Duration.String does.
func TestAppendDurationMatchesString(t *testing.T) {
	ds := []time.Duration{0, 1, -1, 999, 1000, 1500, -1500, 999999, time.Millisecond, 1500 * time.Microsecond,
		time.Second - 1, time.Second, 90 * time.Second, time.Hour, 48*time.Hour + 1, math.MaxInt64, math.MinInt64}
	rng := rand.New(rand.NewSource(3))
	for range 20000 {
		ds = append(ds, time.Duration(rng.Int63n(1<<uint(rng.Intn(62)+1))*int64(1-2*rng.Intn(2))))
	}
	for _, d := range ds {
		if got, want := string(appendDuration(nil, d)), d.String(); got != want {
			t.Fatalf("appendDuration(%d) = %q, want %q", int64(d), got, want)
		}
	}
}

// TestEncodeJSONMatchesReference: the encoders write the bytes
// encoding/json writes of the wire structs, and fail where it fails
// with the same error, over 1,000 random rounds and specs. The fixed
// cases come first, so every corner is covered whatever the draws.
func TestEncodeJSONMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	rounds := []SetResult{
		{At: simtime.Time(1500), Value: 1e-7, ErrBound: 1e21, Count: 1},    // exponent forms, 1.5µs
		{At: -simtime.Hour, Value: math.Copysign(0, -1), ErrBound: 5e-324}, // -0, the least subnormal
		{Value: math.NaN(), Err: ErrEmptyAggregate},
		{Value: math.Inf(1), Count: 1},
		{Value: 1, ErrBound: math.NaN(), Count: 1},
		{Err: errors.New(`<b>"a" & 'b'</b>`), SiteErrs: []SiteError{{Site: 1, Err: errors.New("conn <reset> & \u2028 \xff")}, {Site: 2}}},
		{Err: errors.New("")},
	}
	for len(rounds) < 1000 {
		rounds = append(rounds, randomSetResult(rng))
	}
	for i, r := range rounds {
		want, werr := refEncodeSetResultJSON(r)
		got, err := EncodeSetResultJSON(r)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("round %d: error %v, reference %v", i, err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d:\n got %s\nwant %s", i, got, want)
		}
		var uve *json.UnsupportedValueError
		if werr != nil && !errors.As(err, &uve) {
			t.Fatalf("round %d: error %T, want *json.UnsupportedValueError", i, err)
		}
	}
	for i := 0; i < 1000; i++ {
		s := randomSpec(rng)
		want, werr := refEncodeSpecJSON(s)
		got, err := EncodeSpecJSON(s)
		if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
			t.Fatalf("spec %d: error %v, reference %v", i, err, werr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("spec %d:\n got %s\nwant %s", i, got, want)
		}
	}
}

// randomFloat draws the values the float encoder must write alike:
// zeros of both signs, both sides of the exponent-form cutoffs, the
// extremes, integers and, rarely, what has no JSON form.
func randomFloat(rng *rand.Rand) float64 {
	switch rng.Intn(12) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return []float64{1e-6, 9.99e-7, 1e21, 9.99e20, 5e-324, math.MaxFloat64, -1e-7, -1e22}[rng.Intn(8)]
	case 3:
		return math.Float64frombits(rng.Uint64())
	case 4:
		return float64(rng.Intn(100))
	case 5:
		if rng.Intn(20) == 0 {
			return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.Intn(3)]
		}
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
}

// randomDur draws zero, sub-second, negative and day-scale durations.
func randomDur(rng *rand.Rand) time.Duration {
	switch rng.Intn(5) {
	case 0:
		return 0
	case 1:
		return time.Duration(rng.Int63n(int64(time.Second)))
	case 2:
		return -time.Duration(rng.Int63n(int64(100 * time.Hour)))
	}
	return time.Duration(rng.Int63n(int64(100 * time.Hour)))
}

// randomErr draws nil, the typed sentinels (bare and wrapped) and
// messages that need escaping.
func randomErr(rng *rand.Rand) error {
	switch rng.Intn(7) {
	case 0, 1:
		return nil
	case 2:
		return ErrEmptyAggregate
	case 3:
		return fmt.Errorf("scatter: %w", ErrNoMotes)
	case 4:
		return errors.New("conn reset")
	case 5:
		return errors.New("")
	}
	return errors.New([]string{"a <tag> & more", "quote \" and \\", "ctl \x01\b\f\n\r\t", "µs \u2028\u2029", "bad \xff\xfe utf-8"}[rng.Intn(5)])
}

func randomSetResult(rng *rand.Rand) SetResult {
	r := SetResult{Seq: rng.Intn(5) - 1, At: simtime.Time(randomDur(rng)), Value: randomFloat(rng), ErrBound: randomFloat(rng)}
	if rng.Intn(2) == 0 {
		r.Count = rng.Intn(100)
	}
	if rng.Intn(3) == 0 {
		r.Failed = rng.Intn(4)
	}
	for range rng.Intn(4) {
		res := Result{Query: Query{Mote: radio.NodeID(rng.Intn(200) - 2)}, Answer: proxy.Answer{
			Source:   proxy.Source(rng.Intn(proxy.NumSources + 1)),
			IssuedAt: simtime.Time(randomDur(rng)), DoneAt: simtime.Time(randomDur(rng)),
		}}
		for range rng.Intn(4) {
			res.Answer.Entries = append(res.Answer.Entries, cache.Entry{T: simtime.Time(randomDur(rng)),
				V: randomFloat(rng), ErrBound: randomFloat(rng), Source: cache.Source(rng.Intn(4))})
		}
		r.Results = append(r.Results, res)
	}
	if rng.Intn(4) == 0 {
		for range rng.Intn(3) + 1 {
			r.SiteErrs = append(r.SiteErrs, SiteError{Site: rng.Intn(4), Err: randomErr(rng)})
		}
	}
	r.Err = randomErr(rng)
	return r
}

func randomSpec(rng *rand.Rand) Spec {
	s := Spec{Type: Type(rng.Intn(3)), Precision: math.Abs(randomFloat(rng)),
		Deadline: randomDur(rng), MaxStaleness: time.Duration(rng.Int63n(int64(10 * time.Hour)))}
	if s.Type != Now {
		if rng.Intn(2) == 0 {
			s.Trailing = time.Duration(rng.Int63n(int64(10 * time.Hour)))
		} else {
			s.T0 = simtime.Time(rng.Int63n(int64(10 * simtime.Hour)))
			s.T1 = s.T0 + simtime.Time(rng.Int63n(int64(10*simtime.Hour)))
		}
	}
	if s.Type == Agg {
		s.Agg = AggKind(rng.Intn(4))
	}
	for range rng.Intn(6) {
		s.Select.Motes = append(s.Select.Motes, radio.NodeID(rng.Intn(100)))
	}
	if rng.Intn(3) == 0 {
		s.Continuous = &Continuous{Every: time.Duration(rng.Int63n(int64(time.Hour)) + 1)}
		if rng.Intn(2) == 0 {
			s.Continuous.Until = time.Duration(rng.Int63n(int64(10 * time.Hour)))
		}
	}
	return s
}

// specCorners are the wire forms where encoding/json's behaviour is not
// the obvious one: folded keys, repeated keys, null over each kind of
// member, escapes and invalid UTF-8, number grammar and trailing bytes.
var specCorners = []string{
	`{"TYPE":"now"}`,
	`{"Type":"agg","AGG":"Mean","trailing":"1h"}`,
	`{"type":"now","max_ſtaleness":"1h"}`,
	`{"type":"now","max_staleneſs":"1h","MAX_STALENESS":"2h"}`,
	`{"\u0074ype":"now","t\u0030":null}`,
	`{"type":"now","type":"past","t0":"1h","t1":"2h"}`,
	`{"type":"now","continuous":{"every":"1h"},"continuous":{"until":"2h"}}`,
	`{"type":"now","continuous":{"every":"1h"},"continuous":null,"continuous":{"until":"2h"}}`,
	`{"type":"now","continuous":null}`,
	`{"type":"now","continuous":{"every":"1h","EVERY":"2h"}}`,
	`{"type":"past","t0":"1h","t0":null,"t1":"2h"}`,
	`{"type":"now","precision":1,"precision":null}`,
	`{"type":null,"type":"now"}`,
	`{"type":"now","type":null}`,
	`{"type":"now","motes":[1,2,3],"motes":[4,null]}`,
	`{"type":"now","motes":[1,2,3],"motes":[],"motes":[null,null]}`,
	`{"type":"now","motes":[1,2,3],"motes":null,"motes":[null,5]}`,
	`{"type":"now","motes":[1,2,3],"motes":[4],"motes":[null,null,null]}`,
	`{"type":"now","motes":[null]}`,
	`{"type":"n\u006fw"}`,
	"{\"type\":\"now\xff\"}",
	"{\"type\xff\":\"now\"}",
	`{"type":"now","t0":"\u0031h"}`,
	`{"type":"now","deadline":"1.5µs"}`,
	`{"type":"now","precision":-0}`,
	`{"type":"now","precision":1e400}`,
	`{"type":"now","precision":1E-2}`,
	`{"type":"now","precision":.5}`,
	`{"type":"now","precision":"1"}`,
	`{"type":"now","deadline":1.5}`,
	`{"type":"now","deadline":-0}`,
	`{"type":"now","deadline":true}`,
	`{"type":"now","motes":[01]}`,
	`{"type":"now","motes":[1.0]}`,
	`{"type":"now","motes":[1e2]}`,
	`{"type":"now","motes":[-1]}`,
	`{"type":"now","motes":[99999999999999999999]}`,
	`{"type":"now","motes":{}}`,
	`{"type":"now",}`,
	`{"type":"now"`,
	`{"type":"now"}null`,
	`{"type":"now","":1}`,
	` {"type" : "now" , "motes" : [ 1 , 2 ] } `,
	"{\"type\":\"no\tw\"}",
	`{"type":"now","motes":[1,2,]}`,
	`null`,
	` null `,
	`nul`,
	``,
	`[]`,
	`"now"`,
}

// resultCorners are the SetResult counterparts of specCorners, repeated
// results and entries arrays (which decode over the earlier elements)
// among them.
var resultCorners = []string{
	`null`,
	`{}`,
	`{"seq":1.5}`,
	`{"seq":-0,"at":null}`,
	`{"seq":1e2}`,
	`{"SEQ":3,"ſeq":4,"AT":"1.5µs"}`,
	`{"value":1,"value":null,"count":1}`,
	`{"value":null,"code":"empty_aggregate"}`,
	`{"value":1e400}`,
	`{"err_bound":2,"ERR_BOUND":null}`,
	`{"at":3600000000000,"value":-0,"err_bound":5e-324}`,
	`{"results":[{"mote":1,"source":"cache","entries":[{"t":"1h","v":1,"source":"pushed"},{"t":"2h","v":2,"source":"pulled"}]}],"results":[{"mote":2}]}`,
	`{"results":[{"mote":1,"source":"cache","entries":[{"t":"1h","v":1,"source":"pushed"},{"t":"2h","v":2,"source":"pulled"}]}],"results":[{"entries":[{"v":3}]}]}`,
	`{"results":[{"mote":1,"source":"cache"},{"mote":2,"source":"model"}],"results":[null],"results":[null,null]}`,
	`{"results":[{"mote":1,"source":"cache"},{"mote":2,"source":"model"}],"results":[],"results":[null,null]}`,
	`{"results":[{"mote":1,"source":"cache"}],"results":null,"results":[null]}`,
	`{"results":[{"mote":1,"source":"cache","entries":[{"t":"1h","v":1,"source":"pushed"},{"v":2,"source":"pushed"}]},{"mote":2,"source":"pull","entries":[{"v":5,"source":"predicted"}]}],` +
		`"results":[{"entries":[null]},{"entries":[null,{"v":6,"source":"pushed"}]}],"results":[{"entries":[null,null]},{"entries":[null,null,{"source":"pulled"}]}]}`,
	`{"results":[{"mote":1,"source":"cache","entries":[{"v":1,"source":"pushed"}]}],"results":[{"entries":null}]}`,
	`{"results":[{"mote":1,"source":"cache","entries":[{"v":1,"v":null,"source":"pushed","err_bound":null}]}]}`,
	`{"results":[{"mote":1,"source":"bogus"}]}`,
	`{"results":[{"mote":1,"source":"bogus","source":"cache","issued_at":"1h","done_at":"2h"}]}`,
	`{"results":[{"mote":1,"source":"cache","entries":[null]}]}`,
	`{"results":[null]}`,
	`{"results":[{"mote":1,"ſource":"ca\u0063he","entries":[{"T":"1h","V":1,"Source":"pushed"}]}]}`,
	`{"site_errors":[{"site":1,"error":"x","code":"no_motes"},{"site":2,"error":"conn reset","code":"error"}]}`,
	`{"site_errors":[{"site":1,"error":"x"},{"site":2}],"site_errors":[{"code":"error"}],"site_errors":[null,null]}`,
	`{"site_errors":[{"site":1,"error":"\u003cb\u003e \u2028","code":"error"}],"site_errors":[]}`,
	"{\"error\":\"bad \xff utf-8\",\"code\":\"error\"}",
	`{"error":"\u003cb\u003e","code":"\u0065rror"}`,
	`{"error":"x","code":"no_motes"}`,
	`{"code":"error"}`,
	`{"code":"e","code":null}`,
	`{"seq":0,"at":"1h"}{"x":1}`,
	`{"seq":0,"at":"1h"} garbage`,
	`{"seq":0,"at":"1h","bogus":1}`,
	`{"results":{}}`,
	`{"results":[{"mote":"1"}]}`,
	`[]`,
	``,
}

// FuzzDecodeSpecJSON: the spec decoder accepts what encoding/json's
// decode of the wire structs accepts, decodes it to the same spec, and
// any spec it accepts survives encode then decode as an equal spec
// asking the same question (equal shape keys).
func FuzzDecodeSpecJSON(f *testing.F) {
	for _, seed := range []string{
		// The README's curl examples.
		`{"type":"now","precision":1.0,"max_staleness":"6h"}`,
		`{"type":"agg","agg":"mean","t0":"2h","t1":"8h","precision":0.5,"max_staleness":"6h"}`,
		`{"type":"agg","agg":"mean","t0":"2h","t1":"8h","precision":2.0,"max_staleness":"6h"}`,
		`{"type":"now","precision":2,"continuous":{"every":"30m","until":"2h"}}`,
		// The serving tier's test bodies.
		`{"type":"now","precision":2,"max_staleness":"6h"}`,
		`{"type":"agg","agg":"mean","t0":"1h","t1":"3h","precision":0.5,"max_staleness":"6h"}`,
		`{"type":"agg","agg":"mean","t0":0,"t1":"1h","precision":1}`,
		`{"type":"now","precision":2,"continuous":{"every":"15m","until":"1h"}}`,
		`{"type":"now","precision":1,"max_staleness":"1h"}`,
		`{"type":"past","motes":[3,1,2,1],"t0":3600000000000,"t1":"2h","deadline":"5s"}`,
		`{"type":"agg","agg":"mode","motes":[5,4],"trailing":"90m","precision":0.25}`,
		`{"type":"now","staleness":"1h"}`,
		`{"type":"now"}{"type":"agg"}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	for _, seed := range specCorners {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSpecJSON(b)
		want, werr := refDecodeSpecJSON(b)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode %q: error %v, reference error %v", b, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(s, want) {
			t.Fatalf("decode %q:\n got %+v\nwant %+v", b, s, want)
		}
		enc, err := EncodeSpecJSON(s)
		if err != nil {
			t.Fatalf("accepted %q but cannot encode it: %v", b, err)
		}
		again, err := DecodeSpecJSON(enc)
		if err != nil {
			t.Fatalf("cannot decode our own encoding %s: %v", enc, err)
		}
		if !reflect.DeepEqual(again, s) {
			t.Fatalf("decode(encode(s)) != s\n got %+v\nwant %+v\nwire %s", again, s, enc)
		}
		if k1, k2 := s.AppendShapeKey(nil), again.AppendShapeKey(nil); !bytes.Equal(k1, k2) {
			t.Fatalf("shape keys differ after a round trip: %x vs %x", k1, k2)
		}
	})
}

// FuzzDecodeSetResultJSON: the round decoder accepts what encoding/json's
// decode of the wire structs accepts and decodes it to the same round.
func FuzzDecodeSetResultJSON(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for range 16 {
		if b, err := EncodeSetResultJSON(randomSetResult(rng)); err == nil {
			f.Add(b)
		}
	}
	for _, seed := range resultCorners {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeSetResultJSON(b)
		want, werr := refDecodeSetResultJSON(b)
		if (err == nil) != (werr == nil) {
			t.Fatalf("decode %q: error %v, reference error %v", b, err, werr)
		}
		if err == nil && !sameResult(r, want) {
			t.Fatalf("decode %q:\n got %+v\nwant %+v", b, r, want)
		}
	})
}

// TestDecodeJSONCorners replays the corner seeds of both fuzz targets
// against the reference outside fuzzing mode too, and checks that the
// merges the corners exercise happen: a repeated key decodes over the
// elements an earlier one left.
func TestDecodeJSONCorners(t *testing.T) {
	for _, c := range specCorners {
		s, err := DecodeSpecJSON([]byte(c))
		want, werr := refDecodeSpecJSON([]byte(c))
		if (err == nil) != (werr == nil) || err == nil && !reflect.DeepEqual(s, want) {
			t.Errorf("spec %q: got %+v, %v; reference %+v, %v", c, s, err, want, werr)
		}
	}
	for _, c := range resultCorners {
		r, err := DecodeSetResultJSON([]byte(c))
		want, werr := refDecodeSetResultJSON([]byte(c))
		if (err == nil) != (werr == nil) || err == nil && !sameResult(r, want) {
			t.Errorf("result %q: got %+v, %v; reference %+v, %v", c, r, err, want, werr)
		}
	}
	s, err := DecodeSpecJSON([]byte(`{"type":"now","motes":[1,2,3],"motes":[4,null],"continuous":{"every":"1h"},"Continuous":{"until":"2h"}}`))
	if err != nil || !reflect.DeepEqual(s.Select.Motes, []radio.NodeID{4, 2}) || *s.Continuous != (Continuous{Every: time.Hour, Until: 2 * time.Hour}) {
		t.Errorf("repeated keys decoded to %+v, %v", s, err)
	}
	r, err := DecodeSetResultJSON([]byte(resultCorners[16]))
	if err != nil || len(r.Results) != 2 || len(r.Results[1].Answer.Entries) != 3 || r.Results[1].Answer.Entries[1].V != 6 {
		t.Errorf("repeated results decoded to %+v, %v", r, err)
	}
}

// sameResult is reflect.DeepEqual with an empty aggregate's NaN value
// equal to itself.
func sameResult(a, b SetResult) bool {
	if math.IsNaN(a.Value) && math.IsNaN(b.Value) {
		a.Value, b.Value = 0, 0
	}
	return reflect.DeepEqual(a, b)
}

// ---------------------------------------------------------------------------
// Reference: the encoding/json codec the hand-written one replaced,
// which defines the wire shape.

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
	Mote     int            `json:"mote"`
	Source   string         `json:"source"`
	Entries  []refEntryWire `json:"entries,omitempty"`
	IssuedAt Dur            `json:"issued_at,omitempty"`
	DoneAt   Dur            `json:"done_at,omitempty"`
}

type refEntryWire struct {
	T        Dur     `json:"t"`
	V        float64 `json:"v"`
	ErrBound float64 `json:"err_bound,omitempty"`
	Source   string  `json:"source"`
}

type siteErrWire struct {
	Site  int    `json:"site"`
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

func refEncodeSpecJSON(s Spec) ([]byte, error) {
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

func refDecodeSpecJSON(b []byte) (Spec, error) {
	var w specWire
	if err := decodeStrict(b, &w); err != nil {
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
			return Spec{}, errors.New("query: agg spec without an operator")
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

// decodeStrict decodes the one JSON object in b into v: unknown fields
// and any non-whitespace byte after the object are errors.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
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

func refEncodeSetResultJSON(r SetResult) ([]byte, error) {
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
			rw.Entries = append(rw.Entries, refEntryWire{
				T: Dur(e.T), V: e.V, ErrBound: e.ErrBound, Source: e.Source.String(),
			})
		}
		w.Results = append(w.Results, rw)
	}
	for _, se := range r.SiteErrs {
		sw := siteErrWire{Site: se.Site, Code: ErrCode(se.Err)}
		if se.Err != nil {
			sw.Error = se.Err.Error()
		}
		w.SiteErrs = append(w.SiteErrs, sw)
	}
	if r.Err != nil {
		w.Error, w.Code = r.Err.Error(), ErrCode(r.Err)
	}
	return json.Marshal(w)
}

func refDecodeSetResultJSON(b []byte) (SetResult, error) {
	var w setResultWire
	if err := decodeStrict(b, &w); err != nil {
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
		r.Value = math.NaN()
	}
	if w.ErrBound != nil {
		r.ErrBound = *w.ErrBound
	}
	for _, rw := range w.Results {
		src, err := parseProxySource([]byte(rw.Source))
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
			esrc, err := parseCacheSource([]byte(ew.Source))
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
