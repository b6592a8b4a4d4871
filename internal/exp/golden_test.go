package exp

import (
	"testing"

	"presto/internal/golden"
)

// TestGoldenTables pins the paper's numbers: every experiment runs at
// tinyScale and its printed table must equal testdata/<ID>.golden byte
// for byte. Columns that time the host rather than the simulation are
// blanked first, so no golden holds wall time. After a change that moves
// a table on purpose, rewrite the files with
// go test ./internal/exp -update and read the diff.
func TestGoldenTables(t *testing.T) {
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tab, err := e.Run(tinyScale())
			if err != nil {
				t.Fatal(err)
			}
			for i, h := range tab.Headers {
				if h != "ms" { // E15's wall-clock column
					continue
				}
				for _, row := range tab.Rows {
					row[i] = ""
				}
			}
			golden.Check(t, e.ID+".golden", tab.String())
		})
	}
}
