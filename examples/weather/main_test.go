package main

import (
	"bytes"
	"testing"

	"presto/internal/golden"
)

// TestStdout runs the example and compares what it prints with
// testdata/stdout.golden.
func TestStdout(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	golden.Check(t, "stdout.golden", out.String())
}
