package query

import (
	"testing"

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
