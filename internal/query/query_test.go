package query

import (
	"testing"
	"time"

	"presto/internal/simtime"
)

func TestValidate(t *testing.T) {
	good := []Query{
		{Type: Now, Mote: 1, Precision: 1},
		{Type: Past, Mote: 1, T0: 0, T1: simtime.Hour},
		{Type: Agg, Mote: 1, T0: 0, T1: simtime.Hour, Agg: Mode},
	}
	for i, q := range good {
		if err := q.Validate(); err != nil {
			t.Errorf("good %d rejected: %v", i, err)
		}
	}
	bad := []Query{
		{Type: Past, T0: simtime.Hour, T1: 0},
		{Type: Type(9)},
		{Type: Now, Precision: -1},
		{Type: Past, T0: -2 * simtime.Hour, T1: -simtime.Hour},
		{Type: Agg, T0: -1, T1: simtime.Hour, Agg: Mean},
	}
	for i, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("bad %d accepted", i)
		}
	}
}

func TestStrings(t *testing.T) {
	if Now.String() != "now" || Past.String() != "past" || Agg.String() != "agg" {
		t.Error("type names")
	}
	if Type(9).String() == "" {
		t.Error("unknown type")
	}
	if Min.String() != "min" || Max.String() != "max" || Mean.String() != "mean" || Mode.String() != "mode" {
		t.Error("agg names")
	}
	if AggKind(9).String() == "" {
		t.Error("unknown agg")
	}
}

// TestWindowBeforeTimeZeroRefused: no mote existed before time zero, so
// a PAST or AGG window starting there is refused at every door — the
// per-mote query, the spec and its wire form — rather than answered with
// invented values. A trailing window reaching back past zero is clamped
// by BindWindow instead, and a NOW spec has no window to check.
func TestWindowBeforeTimeZeroRefused(t *testing.T) {
	for _, s := range []Spec{
		{Type: Past, T0: -2 * simtime.Hour, T1: -simtime.Hour, Precision: 5},
		{Type: Agg, Agg: Mean, T0: -2 * simtime.Hour, T1: -simtime.Hour, Precision: 5},
		{Type: Agg, Agg: Mean, T0: -1, T1: simtime.Hour},
	} {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %+v accepted", s)
		}
	}
	for _, body := range []string{
		`{"type":"past","t0":"-2h","t1":"-1h","precision":5}`,
		`{"type":"agg","agg":"mean","t0":"-2h","t1":"-1h","precision":5}`,
	} {
		if _, err := DecodeSpecJSON([]byte(body)); err == nil {
			t.Errorf("DecodeSpecJSON(%s) accepted", body)
		}
	}
	trailing := Spec{Type: Agg, Agg: Mean, Trailing: 3 * time.Hour}.BindWindow(simtime.Hour)
	if trailing.T0 != 0 || trailing.Validate() != nil {
		t.Errorf("trailing window bound to %+v", trailing)
	}
	if err := (Spec{Type: Now, T0: -simtime.Hour}).Validate(); err != nil {
		t.Errorf("NOW spec refused: %v", err)
	}
}
