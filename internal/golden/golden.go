// Package golden compares a program's output with a file kept under
// testdata, for tests of the commands and examples that print their
// results. Run the tests with -update to rewrite the files from the
// current output.
package golden

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata from the current output")

// Check compares got with testdata/<name>, or rewrites the file under
// -update. The files hold amd64 output: float results that feed a
// printed line may round differently on architectures that fuse
// multiply-add, so elsewhere Check skips the test and says so.
func Check(t *testing.T, name, got string) {
	t.Helper()
	if runtime.GOARCH != "amd64" {
		t.Skipf("%s holds amd64 output; traces are not yet bit-portable to %s", name, runtime.GOARCH)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if got == string(want) {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(run go test -update to accept the new output)", path, i+1, gl, wl)
		}
	}
}
