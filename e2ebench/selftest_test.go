package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gpustl/internal/obs"
)

// TestSelfTest runs every workload at a tiny size: it records digests,
// checks an untraced and a traced run against them, and checks that a
// deliberately wrong digest is counted as a failed operation.
func TestSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range []string{"paper-small", "served-fleet"} {
		t.Run(w, func(t *testing.T) {
			dir := t.TempDir()
			c := config{
				workload: w, seed: 7, seconds: time.Second, tiny: true,
				digests: filepath.Join(dir, "digests.json"), workDir: dir,
				traceOut: filepath.Join(dir, "trace.jsonl"),
			}
			rec := c
			rec.record = true
			if res, err := runBench(rec); err != nil || !res.Correct {
				t.Fatalf("recording run: %+v, %v", res, err)
			}

			res, err := runBench(c)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("untraced run not correct: attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for name := range endToEnd {
				if v := res.Metrics[name].Value; !(v > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, v)
				}
			}

			traced := c
			traced.trace = true
			res, err = runBench(traced)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct {
				t.Fatalf("traced run not correct: attempted %d, failed %d", res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(perLayer))
			}
			if cov := res.Metrics["bench.ledger_coverage_ratio"].Value; cov < 0.9 {
				t.Errorf("ledger rows cover %.3f of the traced wall, want >= 0.9", cov)
			}
			if _, err := os.Stat(traced.traceOut); err != nil {
				t.Errorf("trace file: %v", err)
			}

			// A wrong digest for the first operation's output.
			first := map[string]string{
				"paper-small":  "paper-small/tiny/env/IMM",
				"served-fleet": func() string { _, k := fleetSpec(fleetOrder(c.seed)[0], true); return k }(),
			}[w]
			corruptDigest(t, c.digests, first)
			res, err = runBench(c)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct || res.Failed == 0 {
				t.Fatalf("run against a wrong digest: correct %v, failed %d; want a failed operation", res.Correct, res.Failed)
			}
		})
	}
}

// corruptDigest replaces the committed digest of key with a wrong one.
func corruptDigest(t *testing.T, path, key string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var d map[string]string
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if _, ok := d[key]; !ok {
		t.Fatalf("no digest recorded for %s", key)
	}
	d[key] = strings.Repeat("0", 32)
	out, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, out, 0o666); err != nil {
		t.Fatal(err)
	}
}

// TestLedgerTilesWall checks the ledger arithmetic on a hand-made trace:
// overlapping children share time, a child inside a sibling nests under
// it, and the rows add up to the root's wall-clock.
func TestLedgerTilesWall(t *testing.T) {
	ms := int64(1e6)
	ev := func(id, parent uint64, trace, kind, name string, start, dur int64) obs.Event {
		return obs.Event{ID: id, Parent: parent, Trace: trace, Kind: kind, Name: name, StartN: start * ms, DurN: dur * ms}
	}
	events := []obs.Event{
		ev(1, 0, "a", kindBench, "bench.run", 0, 100),
		// Two overlapping campaigns, each its own trace.
		ev(2, 0, "b", kindBench, "bench.campaign", 10, 40),
		ev(3, 0, "c", kindBench, "bench.campaign", 30, 40),
		// Inside campaign 2: a stage, and a shard span parented on the
		// same span but running inside the stage.
		ev(4, 2, "b", "stage", "faultsim", 10, 30),
		ev(5, 2, "b", "shard", "shard:0", 15, 10),
	}
	l := buildLedger(events, 1)
	if l.wall != 0.1 {
		t.Fatalf("wall = %v, want 0.1", l.wall)
	}
	total := 0.0
	for _, s := range l.self {
		total += s
	}
	if d := total - l.wall; d > 1e-9 || d < -1e-9 {
		t.Errorf("self times add up to %v, want %v", total, l.wall)
	}
	// 0-10 and 70-100 are the run's own time.
	if got := l.self["bench.run"]; !near(got, 0.040) {
		t.Errorf("bench.run self = %v, want 0.040", got)
	}
	// Campaign 2's stage (10-40) overlaps campaign 3 over 30-40, where
	// each gets half; the shard (15-25) nests inside the stage.
	if got := l.self["bench.campaign"]; !near(got, 0.035) {
		t.Errorf("bench.campaign self = %v, want 0.035", got)
	}
	if got := l.self["dist.wire"]; !near(got, 0.010) {
		t.Errorf("dist.wire self = %v, want 0.010", got)
	}
	if got := l.self["core.faultsim"]; !near(got, 0.015) {
		t.Errorf("core.faultsim self = %v, want 0.015", got)
	}
}

func near(a, b float64) bool { return a-b < 1e-9 && b-a < 1e-9 }
