package cluster

// The two-process smoke: build the real prestod binary (with -race, so
// the whole cluster path runs under the detector), launch a coordinator
// and a joiner as separate OS processes over TCP loopback, drive a
// multi-site AGG plus a standing query through them, and assert the
// merged aggregate line is bit-identical to the one prestod prints for an
// in-process run of the same flags.

import (
	"bufio"
	"context"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// prestodFlags is the shared deployment shape; coordinator and joiner
// must agree (the config fingerprint enforces it). -queries 0 keeps the
// coordinator's frames to the aggregate and the standing rounds.
var prestodFlags = []string{"-proxies", "4", "-motes", "2", "-shards", "4", "-days", "2", "-queries", "0"}

func buildPrestod(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prestod")
	cmd := exec.Command("go", "build", "-race", "-o", bin, "presto/cmd/prestod")
	cmd.Dir = "../.."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building prestod: %v\n%s", err, out)
	}
	return bin
}

func TestTwoProcessClusterSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("two-process smoke is not short")
	}
	bin := buildPrestod(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	runFlags := append([]string{"-every", "1h"}, prestodFlags...)
	coordArgs := append([]string{"-listen", "127.0.0.1:0", "-sites", "2"}, runFlags...)
	coord := exec.CommandContext(ctx, bin, coordArgs...)
	stdout, err := coord.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	coord.Stderr = coord.Stdout
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	defer coord.Process.Kill()

	// Scan the coordinator's output: the bound address first, then the
	// result lines.
	addrRe := regexp.MustCompile(`listening on (\S+),`)
	aggRe := regexp.MustCompile(`^agg: mean=\S+ bound=\S+ count=\d+ at=\S+$`)
	framesRe := regexp.MustCompile(`site 1 sent=\d+ recv=\d+ scatter=(\d+) partials=(\d+)`)
	snapsRe := regexp.MustCompile(`standing query: (\d+) fleet snapshots`)
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	readLine := func(what string) string {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatalf("coordinator output ended waiting for %s", what)
			}
			return l
		case <-ctx.Done():
			t.Fatalf("timed out waiting for %s", what)
		}
		return ""
	}

	var addr string
	for addr == "" {
		if m := addrRe.FindStringSubmatch(readLine("listen address")); m != nil {
			addr = m[1]
		}
	}

	joiner := exec.CommandContext(ctx, bin, append([]string{"-join", addr}, prestodFlags...)...)
	joinOut, err := joiner.CombinedOutput()
	if err != nil {
		t.Fatalf("joiner failed: %v\n%s", err, joinOut)
	}
	var agg string
	var scatter, partials, snaps int
	gotFrames, gotSnaps := false, false
	for l := range lines {
		if aggRe.MatchString(l) {
			agg = l
		}
		if m := framesRe.FindStringSubmatch(l); m != nil {
			scatter, _ = strconv.Atoi(m[1])
			partials, _ = strconv.Atoi(m[2])
			gotFrames = true
		}
		if m := snapsRe.FindStringSubmatch(l); m != nil {
			snaps, _ = strconv.Atoi(m[1])
			gotSnaps = true
		}
	}
	if err := coord.Wait(); err != nil {
		t.Fatalf("coordinator exited: %v", err)
	}
	if agg == "" || !gotFrames || !gotSnaps {
		t.Fatalf("missing output: agg=%q frames=%v snaps=%v", agg, gotFrames, gotSnaps)
	}

	// Every standing round completed (12 = half the post-bootstrap day,
	// hourly), and the frame ledger shows exactly one scatter per round:
	// the one-shot AGG plus the 12 continuous rounds.
	if snaps != 12 {
		t.Errorf("standing query delivered %d snapshots, want 12", snaps)
	}
	if want := 1 + snaps; scatter != want || partials != want {
		t.Errorf("site 1 frames scatter=%d partials=%d, want exactly %d each (one per round)",
			scatter, partials, want)
	}

	// prestod's in-process run of the same flags prints the same line.
	local, err := exec.CommandContext(ctx, bin, runFlags...).CombinedOutput()
	if err != nil {
		t.Fatalf("in-process run failed: %v\n%s", err, local)
	}
	var localAgg string
	for _, l := range strings.Split(string(local), "\n") {
		if aggRe.MatchString(l) {
			localAgg = l
		}
	}
	if agg != localAgg {
		t.Errorf("2-process run printed\n  %s\nin-process run printed\n  %s", agg, localAgg)
	}
}
