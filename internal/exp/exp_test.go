package exp

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// tinyScale keeps unit tests fast; shapes must already hold here.
func tinyScale() Scale { return Scale{Days: 4, Motes: 2, Events: 0.5, Seed: 1} }

func TestTableRendering(t *testing.T) {
	tab := &Table{Title: "T", Note: "n", Headers: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	s := tab.String()
	for _, want := range []string{"== T ==", "a", "bb", "1", "2", "--"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	s, err := Figure2Numbers(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// 1. Batched curves decrease monotonically with batching interval.
	for i := 1; i < len(s.Raw); i++ {
		if s.Raw[i] >= s.Raw[i-1] {
			t.Errorf("batched-raw not decreasing at %v min: %v -> %v", s.IntervalsMin[i], s.Raw[i-1], s.Raw[i])
		}
		if s.Wavelet[i] >= s.Wavelet[i-1] {
			t.Errorf("batched-wavelet not decreasing at %v min", s.IntervalsMin[i])
		}
	}
	// 2. Wavelet denoising is at or below raw at every interval.
	for i := range s.Wavelet {
		if s.Wavelet[i] > s.Raw[i] {
			t.Errorf("wavelet (%v) above raw (%v) at %v min", s.Wavelet[i], s.Raw[i], s.IntervalsMin[i])
		}
	}
	// 3. Value-driven lines: delta=2 below delta=1.
	if s.ValueDelta2 >= s.ValueDelta1 {
		t.Errorf("value-driven d=2 (%v) not below d=1 (%v)", s.ValueDelta2, s.ValueDelta1)
	}
	// 4. Crossover: batched starts above value-driven d=1 at the smallest
	// interval and ends below it at the largest (the paper's crossover).
	if s.Raw[0] <= s.ValueDelta1 {
		t.Errorf("batched-raw at 16.5min (%v) should start above value-driven d=1 (%v)", s.Raw[0], s.ValueDelta1)
	}
	last := len(s.Raw) - 1
	if s.Raw[last] >= s.ValueDelta1 {
		t.Errorf("batched-raw at 2116min (%v) should end below value-driven d=1 (%v)", s.Raw[last], s.ValueDelta1)
	}
	// 5. Overall dynamic range is substantial (paper: ~4x or more).
	if s.Raw[0] < 3*s.Raw[last] {
		t.Errorf("batching saved too little: %v -> %v", s.Raw[0], s.Raw[last])
	}
}

func TestTable1Runs(t *testing.T) {
	tab, err := Table1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d, want 4 systems", len(tab.Rows))
	}
	// PRESTO row must show archive + prediction.
	prestoRow := tab.Rows[3]
	if !strings.Contains(prestoRow[0], "PRESTO") {
		t.Fatalf("last row %v", prestoRow)
	}
	if !strings.Contains(prestoRow[2], "full") || prestoRow[3] != "yes" {
		t.Fatalf("PRESTO capabilities row wrong: %v", prestoRow)
	}
	// Direct query must be slower than PRESTO's NOW.
	if tab.Rows[0][1] == "0s" {
		t.Fatalf("direct query NOW latency should not be zero: %v", tab.Rows[0])
	}
}

func TestE4Shape(t *testing.T) {
	n, err := E4PushEnergyNumbers(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Energy ordering: PRESTO and value-driven below stream-all.
	if n.PrestoEnergy >= n.StreamEnergy {
		t.Errorf("PRESTO energy %v not below stream-all %v", n.PrestoEnergy, n.StreamEnergy)
	}
	if n.ValueEnergy >= n.StreamEnergy {
		t.Errorf("value-driven energy %v not below stream-all %v", n.ValueEnergy, n.StreamEnergy)
	}
	// Error: stream-all is exact; PRESTO bounded by delta=1.
	if n.StreamRMSE > 0.05 {
		t.Errorf("stream-all RMSE %v should be ~0", n.StreamRMSE)
	}
	if n.PrestoRMSE > 1.0 {
		t.Errorf("PRESTO RMSE %v exceeds delta", n.PrestoRMSE)
	}
}

func TestE5Shape(t *testing.T) {
	tab, err := E5RareEvents(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// PRESTO detects everything; hourly polling misses events.
	prestoRate := tab.Rows[0][2]
	pollHourRate := tab.Rows[3][2]
	if prestoRate != "1.00" {
		t.Errorf("PRESTO detection rate %s, want 1.00", prestoRate)
	}
	if pollHourRate == "1.00" {
		t.Errorf("hourly poll detected everything (%s); events should slip between polls", pollHourRate)
	}
}

func TestE6Shape(t *testing.T) {
	// Single cell checks (full sweep is the bench): precision >= delta
	// answers locally with bounded error; precision < delta must pull.
	loose, err := extrapolationCell(tinyScale(), 1.0, 2.0)
	if err != nil {
		t.Fatal(err)
	}
	if loose.localRate < 0.99 {
		t.Errorf("loose precision local rate %v, want ~1", loose.localRate)
	}
	if loose.maxErr > 1.0+0.05 {
		t.Errorf("loose precision max err %v exceeds delta", loose.maxErr)
	}
	tight, err := extrapolationCell(tinyScale(), 2.0, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if tight.pulls == 0 {
		t.Error("tight precision should force pulls")
	}
	if tight.maxErr > 2.0+0.05 {
		t.Errorf("tight precision max err %v", tight.maxErr)
	}
}

func TestE7Shape(t *testing.T) {
	tab, err := E7Aging(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	// Recent data at full density and level 0; oldest data coarser but
	// present.
	recent := tab.Rows[0]
	oldest := tab.Rows[len(tab.Rows)-1]
	if recent[2] != "0" {
		t.Errorf("recent level %s, want 0", recent[2])
	}
	if oldest[2] == "dropped" {
		t.Errorf("oldest bucket dropped entirely; aging should keep coarse data")
	}
	if oldest[1] == recent[1] {
		t.Error("oldest bucket should be coarser than recent")
	}
	if oldest[3] == "NaN" {
		t.Error("oldest bucket has no reconstructable value")
	}
}

func TestE9Shape(t *testing.T) {
	hops, err := E9Hops(tinyScale(), []int{64, 4096})
	if err != nil {
		t.Fatal(err)
	}
	// 64x more entries must cost far less than 64x more hops (log scaling;
	// allow up to 4x for constant factors).
	if hops[1] > 4*hops[0] {
		t.Errorf("hops scale superlogarithmically: %v -> %v", hops[0], hops[1])
	}
	if hops[1] > 12*math.Log2(4096) {
		t.Errorf("absolute hops too high: %v", hops[1])
	}
}

func TestE10Runs(t *testing.T) {
	tab, err := E10TimeSync(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if !strings.HasSuffix(row[3], "x") {
			t.Errorf("row %v missing improvement factor", row)
		}
	}
}

func TestE11Runs(t *testing.T) {
	tab, err := E11Consistency(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) < 5 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	if tab.Rows[1][1] != "3" {
		t.Errorf("convergence rounds %s, want 3", tab.Rows[1][1])
	}
}

func TestE3Runs(t *testing.T) {
	tab, err := E3QueryLatency(Scale{Days: 3, Motes: 2, Events: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Cache answers are sub-millisecond at every duty cycle.
	for _, row := range tab.Rows {
		if row[1] != "0.0 ms" {
			t.Errorf("cache latency %s, want 0.0 ms", row[1])
		}
	}
}

func TestE8Runs(t *testing.T) {
	tab, err := E8QueryMatching(Scale{Days: 3, Motes: 1, Events: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[5] != "yes" {
			t.Errorf("deadline %s violated: max latency %s", row[0], row[4])
		}
	}
	// Energy decreases (or at worst stays flat) as deadlines loosen from
	// the tightest to the loosest row.
	// Row format: deadline, LPL, batch, energy, maxLat, met.
	first := tab.Rows[0][3]
	last := tab.Rows[len(tab.Rows)-1][3]
	var fi, la float64
	if _, err := fmtSscan(first, &fi); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(last, &la); err != nil {
		t.Fatal(err)
	}
	if la >= fi {
		t.Errorf("loose deadline energy %v not below tight deadline %v", la, fi)
	}
}

func TestAblationCompressionOrdering(t *testing.T) {
	tab, err := AblationCompression(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	var raw, delta, wav float64
	fmtSscan(tab.Rows[0][1], &raw)
	fmtSscan(tab.Rows[1][1], &delta)
	fmtSscan(tab.Rows[2][1], &wav)
	if !(wav < delta && delta < raw) {
		t.Errorf("codec bytes ordering wrong: raw=%v delta=%v wavelet=%v", raw, delta, wav)
	}
}

func TestE12Shape(t *testing.T) {
	tab, err := E12StoreBackends(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Same deployment and query mix: what the flash archive serves, the
	// mem deployment's proxy caches (its archive) serve, at the same
	// rendezvous count.
	mem, fl := tab.Rows[0], tab.Rows[1]
	if mem[2] != fl[1] || mem[4] != fl[4] {
		t.Errorf("mem cache/pull %s/%s, flash archive/pull %s/%s: want equal", mem[2], mem[4], fl[1], fl[4])
	}
	if fl[1] == "0" {
		t.Error("archive served nothing; coverage path dead")
	}
	// Only the flash backend pays device pages.
	if tab.Rows[0][7] != "0/0" {
		t.Errorf("mem backend paid flash pages: %s", tab.Rows[0][7])
	}
	if tab.Rows[1][7] == "0/0" {
		t.Errorf("flash backend paid no pages")
	}
}

func TestE13WaveletAgingDenserAndHonest(t *testing.T) {
	tab, err := E13WaveletAging(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows %d, want 6 (3 buckets x 2 modes)", len(tab.Rows))
	}
	density := map[string]float64{}
	for _, row := range tab.Rows {
		if row[1] != "oldest day" {
			continue
		}
		var d float64
		if _, err := fmtSscan(row[2], &d); err != nil {
			t.Fatalf("bad density cell %q: %v", row[2], err)
		}
		density[row[0]] = d
	}
	// The acceptance property: at equal occupancy, wavelet aging answers
	// oldest-window queries at measurably denser effective resolution.
	if density["wavelet"] < 2*density["uniform"] {
		t.Fatalf("wavelet oldest-day density %.2f not measurably above uniform %.2f",
			density["wavelet"], density["uniform"])
	}
	// Honesty: no served bucket may show a negative margin (bound below
	// the true reconstruction error).
	for _, row := range tab.Rows {
		var margin float64
		if _, err := fmtSscan(row[5], &margin); err != nil {
			continue // NaN: empty bucket
		}
		if margin < 0 {
			t.Fatalf("%s %s: negative honesty margin %v", row[0], row[1], row[5])
		}
	}
}

func TestE14Shape(t *testing.T) {
	tab, err := E14ScatterGather(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("E14 rows = %d, want 6 (3 modes x 2 shard counts)", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		// The acceptance property, at the experiment level: the
		// scatter-gather rows must report exactly 1 submission for the
		// 8-mote aggregate; the loop rows exactly 8.
		var subs float64
		if _, err := fmtSscan(row[3], &subs); err != nil {
			t.Fatalf("%s: bad submissions cell %q", row[0], row[3])
		}
		switch row[0] {
		case "per-mote loop":
			if subs != 8 {
				t.Fatalf("loop submissions = %v, want 8", subs)
			}
		case "scatter-gather":
			if subs != 1 {
				t.Fatalf("scatter-gather submissions = %v, want 1", subs)
			}
		case "continuous":
			if subs < 3 {
				t.Fatalf("continuous rounds = %v, want >= 3", subs)
			}
		default:
			t.Fatalf("unknown mode %q", row[0])
		}
	}
}

func TestE16Shape(t *testing.T) {
	tab, err := E16Scenarios(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("E16 rows = %d, want 3 (one per preset)", len(tab.Rows))
	}
	seen := map[string]bool{}
	for _, row := range tab.Rows {
		seen[row[0]] = true
		var arrivals float64
		if _, err := fmtSscan(row[5], &arrivals); err != nil || arrivals <= 0 {
			t.Fatalf("%s: bad arrivals cell %q", row[0], row[5])
		}
		if len(row[8]) != 12 || len(row[9]) != 12 {
			t.Fatalf("%s: digest cells %q / %q", row[0], row[8], row[9])
		}
	}
	if !seen["smoke"] || !seen["campus"] || !seen["city"] {
		t.Fatalf("missing preset rows: %v", seen)
	}
	// The acceptance property at the experiment level: the table is
	// byte-identical across runs — deployments, schedules and the churn
	// replay all derive from the scenario seeds alone.
	again, err := E16Scenarios(QuickScale())
	if err != nil {
		t.Fatal(err)
	}
	if tab.String() != again.String() {
		t.Fatalf("E16 not reproducible:\n%s\nvs\n%s", tab.String(), again.String())
	}
}

func TestAllRegistry(t *testing.T) {
	all := All()
	if len(all) != 21 {
		t.Fatalf("registry has %d experiments, want 21", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Desc == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %s", e.ID)
		}
		seen[e.ID] = true
	}
}

// fmtSscan parses a leading float from a table cell.
func fmtSscan(s string, out *float64) (int, error) {
	return fmt.Sscanf(s, "%f", out)
}
