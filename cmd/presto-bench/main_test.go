package main

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"strings"
	"testing"

	"presto/internal/exp"
)

func TestList(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, e := range exp.All() {
		if !strings.Contains(out.String(), e.ID+" ") {
			t.Errorf("-list misses %s:\n%s", e.ID, out.String())
		}
	}
}

// TestRunSelected runs Table 1 and the 3-site E15, whose bit-identity
// self-check fails the run if the cluster's answer differs from the
// in-process one; nothing else runs.
func TestRunSelected(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "T1, E15", "-cluster", "3"}, &out, io.Discard); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if n := strings.Count(out.String(), " completed in "); n != 2 {
		t.Errorf("%d experiments completed, want 2:\n%s", n, out.String())
	}
	for _, want := range []string{"(T1 completed in", "(E15 completed in"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q in:\n%s", want, out.String())
		}
	}
}

// TestFlagErrors: a bad command line is an error that names what is
// wrong, and nothing runs.
func TestFlagErrors(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-run", "E99"}, `"E99"`},
		{[]string{"-run", "T1,E99"}, `"E99"`},
		{[]string{"-scale", "huge"}, `"huge"`},
		{[]string{"-aging", "sometimes"}, "sometimes"},
		{[]string{"-no-such-flag"}, "no-such-flag"},
		{[]string{"stray"}, "stray"},
	} {
		var out bytes.Buffer
		err := run(c.args, &out, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("presto-bench %v: error %v, want one naming %s", c.args, err, c.want)
		}
		if out.Len() != 0 {
			t.Errorf("presto-bench %v ran something:\n%s", c.args, out.String())
		}
	}
	if err := run([]string{"-h"}, io.Discard, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("-h: %v, want flag.ErrHelp", err)
	}
}
