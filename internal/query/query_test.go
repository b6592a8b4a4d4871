package query

import (
	"math"
	"testing"

	"presto/internal/cache"
	"presto/internal/proxy"
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

func TestAggregateOperators(t *testing.T) {
	a := proxy.Answer{Entries: []cache.Entry{
		{V: 3}, {V: 1}, {V: 4}, {V: 1}, {V: 5}, {V: 1},
	}}
	if got := Aggregate(Min, a); got != 1 {
		t.Errorf("min=%v", got)
	}
	if got := Aggregate(Max, a); got != 5 {
		t.Errorf("max=%v", got)
	}
	if got := Aggregate(Mean, a); math.Abs(got-2.5) > 1e-12 {
		t.Errorf("mean=%v", got)
	}
	// Mode: 1 occurs three times; the modal bin should sit near 1.
	if got := Aggregate(Mode, a); math.Abs(got-1) > 1.5 {
		t.Errorf("mode=%v, want near 1", got)
	}
	if !math.IsNaN(Aggregate(Mean, proxy.Answer{})) {
		t.Error("empty aggregate should be NaN")
	}
	if !math.IsNaN(Aggregate(AggKind(9), a)) {
		t.Error("unknown aggregate should be NaN")
	}
}

func TestModeConstant(t *testing.T) {
	a := proxy.Answer{Entries: []cache.Entry{{V: 7}, {V: 7}, {V: 7}}}
	if got := Aggregate(Mode, a); got != 7 {
		t.Errorf("constant mode=%v", got)
	}
}
