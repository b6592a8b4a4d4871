package query

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
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

// TestDecodeSpecJSONNoAliasing: the decoder reuses pooled scratch, so a
// spec it returned must share none of it — a second decode must not
// change the first spec's motes.
func TestDecodeSpecJSONNoAliasing(t *testing.T) {
	first, err := DecodeSpecJSON([]byte(`{"type":"now","motes":[1,2,3]}`))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := DecodeSpecJSON([]byte(`{"type":"now","motes":[7,8,9,10]}`)); err != nil {
			t.Fatal(err)
		}
	}
	if want := []radio.NodeID{1, 2, 3}; !reflect.DeepEqual(first.Select.Motes, want) {
		t.Fatalf("first spec's motes became %v, want %v", first.Select.Motes, want)
	}
}

// TestDecodeSpecJSONConcurrent: decodes racing through the shared pool
// each get their own spec back.
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

// TestDecodeSpecJSONAllocs guards the decode's scratch reuse: an 8-mote
// trailing aggregate — the serving tier's common shape — costs at most
// 12 allocations.
func TestDecodeSpecJSONAllocs(t *testing.T) {
	body := []byte(`{"type":"agg","motes":[1,2,3,4,5,6,7,8],"trailing":"1h","agg":"mean","precision":0.5,"max_staleness":"30m"}`)
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := DecodeSpecJSON(body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 12 {
		t.Fatalf("DecodeSpecJSON of an 8-mote trailing AGG: %v allocs, want <= 12", allocs)
	}
}

// FuzzDecodeSpecJSON: the spec decoder never panics on hostile bytes,
// and any spec it accepts survives encode then decode as an equal spec
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
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := DecodeSpecJSON(b)
		if err != nil {
			return
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
