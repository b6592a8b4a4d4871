package main

import (
	"bytes"
	"testing"

	"presto/internal/golden"
)

// TestStdout runs the example five times: every run prints the same
// incident timeline, which testdata/stdout.golden holds. Detections are
// published in proxy.Motes order, and same-instant detections keep their
// arrival order, so the timeline holds only while that order does not
// follow map iteration.
func TestStdout(t *testing.T) {
	var first string
	for i := 0; i < 5; i++ {
		var out bytes.Buffer
		if err := run(&out); err != nil {
			t.Fatalf("%v\n%s", err, out.String())
		}
		if i == 0 {
			first = out.String()
		} else if out.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, out.String(), first)
		}
	}
	golden.Check(t, "stdout.golden", first)
}
