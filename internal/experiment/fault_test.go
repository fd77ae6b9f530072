package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
)

// TestQuarantinePanickingJob checks the sweep-survival acceptance: a run
// that panics is quarantined into a "-" cell instead of aborting the sweep,
// the fit is suppressed, and the rest of the table is real data.
func TestQuarantinePanickingJob(t *testing.T) {
	prev := buildCluster
	buildCluster = func(cfg cluster.Config) (*cluster.Cluster, error) {
		if cfg.Nodes == 2 {
			panic("injected build panic")
		}
		return cluster.Build(cfg)
	}
	defer func() { buildCluster = prev }()

	o := detOptions()
	o.Parallelism = 4
	var lines []string
	o.Progress = func(l string) { lines = append(lines, l) }
	pts, err := measureScaling(o, "quarantine-test", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err != nil {
		t.Fatalf("panicking runs aborted the sweep: %v", err)
	}
	if len(pts) != 3 { // detOptions sweeps nodes 1, 2, 4
		t.Fatalf("got %d sweep points, want 3", len(pts))
	}
	if !math.IsNaN(pts[1].mean) {
		t.Fatalf("quarantined point mean = %v, want NaN", pts[1].mean)
	}
	if pts[1].procs != 32 {
		t.Fatalf("quarantined point procs = %d, want 32 (rows must stay aligned)", pts[1].procs)
	}
	if math.IsNaN(pts[0].mean) || math.IsNaN(pts[2].mean) {
		t.Fatal("healthy points poisoned by the quarantined one")
	}
	quarantined := 0
	for _, l := range lines {
		if strings.Contains(l, "QUARANTINED") {
			quarantined++
		}
	}
	if quarantined != o.Seeds {
		t.Fatalf("%d QUARANTINED progress lines, want %d", quarantined, o.Seeds)
	}

	tab := scalingTable("QT", "quarantine test", pts)
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	if !strings.Contains(out, "-") {
		t.Error("rendered table has no '-' cell for the quarantined point")
	}
	if !strings.Contains(out, "fit skipped") {
		t.Errorf("rendered table does not note the skipped fit:\n%s", out)
	}
	if strings.Contains(out, "least-squares fit") {
		t.Errorf("fit computed over a NaN mean:\n%s", out)
	}
}

// TestAllRunsQuarantinedIsAnError checks the degenerate case: when every
// run is quarantined there is no table to render, so the sweep must fail
// loudly rather than produce all-dash rows.
func TestAllRunsQuarantinedIsAnError(t *testing.T) {
	prev := buildCluster
	buildCluster = func(cfg cluster.Config) (*cluster.Cluster, error) { panic("always") }
	defer func() { buildCluster = prev }()
	o := detOptions()
	_, err := measureScaling(o, "all-quarantined", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want all-runs-quarantined error", err)
	}
}

// TestRunDeadlineQuarantines checks Options.RunDeadline: a run over its
// wall budget is cut at the engine loop and surfaces as a quarantinable
// deadline error (here: every run, which is the loud failure mode).
func TestRunDeadlineQuarantines(t *testing.T) {
	o := detOptions()
	o.Parallelism = 2
	o.RunDeadline = time.Nanosecond
	_, err := measureScaling(o, "deadline-test", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err == nil || !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("err = %v, want all-runs-quarantined error from the deadline", err)
	}
}

// TestCheckpointResume is the kill-and-resume acceptance: a sweep writes
// per-run results to a checkpoint; after "the process dies" (registry reset
// + truncated file, as a kill mid-run leaves it), a -resume sweep replays
// the surviving entries, re-simulates only the missing ones, and renders a
// byte-identical table.
func TestCheckpointResume(t *testing.T) {
	path := t.TempDir() + "/sweep.jsonl"
	base := detOptions()
	base.Parallelism = 2
	base.CheckpointPath = path

	run := func(o Options) ([]byte, []string) {
		t.Helper()
		var lines []string
		o.Progress = func(l string) { lines = append(lines, l) }
		tab, err := Fig3VanillaScaling(o)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		tab.CSV(&buf)
		return buf.Bytes(), lines
	}

	first, _ := run(base)
	resetCheckpointsForTest()

	// Simulate a sweep killed mid-run: keep the header and the first half of
	// the completed entries, plus a torn half-written record at the tail.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	entries := len(lines) - 1 // minus header
	if entries != 6 {         // detOptions: nodes {1,2,4} x 2 seeds
		t.Fatalf("checkpoint holds %d entries, want 6", entries)
	}
	kept := lines[:1+entries/2]
	truncated := strings.Join(kept, "\n") + "\n" + `{"key":"torn`
	if err := os.WriteFile(path, []byte(truncated), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := base
	resumed.Resume = true
	second, progress := run(resumed)
	resetCheckpointsForTest()

	if !bytes.Equal(first, second) {
		t.Errorf("resumed table differs from the original:\n--- first ---\n%s\n--- resumed ---\n%s", first, second)
	}
	cached, simulated := 0, 0
	for _, l := range progress {
		if strings.Contains(l, "checkpoint cached") {
			cached++
		} else {
			simulated++
		}
	}
	if cached != entries/2 {
		t.Errorf("%d runs replayed from the checkpoint, want %d", cached, entries/2)
	}
	if simulated != entries-entries/2 {
		t.Errorf("%d runs re-simulated, want %d", simulated, entries-entries/2)
	}

	// A third resume replays everything: the resumed sweep appended the
	// re-simulated cells to the same file.
	again := base
	again.Resume = true
	third, progress3 := run(again)
	resetCheckpointsForTest()
	if !bytes.Equal(first, third) {
		t.Error("fully-cached resume differs from the original table")
	}
	for _, l := range progress3 {
		if !strings.Contains(l, "checkpoint cached") {
			t.Fatalf("fully-populated checkpoint still simulated a run: %s", l)
		}
	}
}

// TestCheckpointFingerprintMismatchStartsFresh checks that a checkpoint
// written by a differently-sized sweep is discarded, not replayed into the
// wrong table.
func TestCheckpointFingerprintMismatchStartsFresh(t *testing.T) {
	path := t.TempDir() + "/sweep.jsonl"
	a := detOptions()
	a.CheckpointPath = path
	if _, err := Fig3VanillaScaling(a); err != nil {
		t.Fatal(err)
	}
	resetCheckpointsForTest()

	b := detOptions()
	b.Calls = a.Calls * 2 // different sweep: fingerprints must differ
	b.CheckpointPath = path
	b.Resume = true
	var lines []string
	b.Progress = func(l string) { lines = append(lines, l) }
	if _, err := Fig3VanillaScaling(b); err != nil {
		t.Fatal(err)
	}
	resetCheckpointsForTest()
	for _, l := range lines {
		if strings.Contains(l, "checkpoint cached") {
			t.Fatalf("entry from a mismatched sweep replayed: %s", l)
		}
	}
}

// checkReplaysIntoShardedSweeps runs sweep serially with a checkpoint and
// then resumes it at ShardWorkers 2 and 4: the fingerprint leaves the
// engine out, so every cell must replay from the serial checkpoint, byte
// for byte. It returns the serial output.
func checkReplaysIntoShardedSweeps(t *testing.T, sweep func(Options) (string, error), base Options) string {
	t.Helper()
	path := t.TempDir() + "/sweep.jsonl"
	render := func(o Options) (string, []string) {
		t.Helper()
		defer resetCheckpointsForTest()
		var lines []string
		o.Progress = func(l string) { lines = append(lines, l) }
		o.CheckpointPath = path
		out, err := sweep(o)
		if err != nil {
			t.Fatal(err)
		}
		return out, lines
	}
	serial := base
	serial.Parallelism = 2
	want, runs := render(serial)
	if len(runs) == 0 {
		t.Fatal("the serial sweep reported no cells")
	}
	for _, w := range []int{2, 4} {
		o := base
		o.Parallelism, o.ShardWorkers, o.Resume = w, w, true
		got, lines := render(o)
		if got != want {
			t.Errorf("replayed at ShardWorkers %d:\n%s\nserial:\n%s", w, got, want)
		}
		if len(lines) != len(runs) {
			t.Errorf("%d progress lines at ShardWorkers %d, want %d", len(lines), w, len(runs))
		}
		for _, l := range lines {
			if !strings.Contains(l, "checkpoint cached") {
				t.Errorf("a serial checkpoint did not replay at ShardWorkers %d: %s", w, l)
			}
		}
	}
	return want
}

// TestCheckpointResumeKeepsEngine checks that a serial sweep's checkpoint,
// resumed into sharded sweeps, gives the cells a fresh sharded sweep
// computes. The run is a jittered 8-node run at 12us fabric latency (seed
// 3) whose per-call times depend on how shards order events due at one
// instant; the differential gate's jitter12us-8x16 row pins its sharded
// output to the serial one.
func TestCheckpointResumeKeepsEngine(t *testing.T) {
	jitterCut := func(o Options) (string, error) {
		runs := o.seeded(nil, "jitter-cut", 8, 3, func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(8, 16, seed)
			cfg.Network.Jitter = 2 * sim.Microsecond
			cfg.Network.Latency = 12 * sim.Microsecond
			return cfg
		})
		pts, err := runAggregate(o, runs, o.Seeds)
		return fmt.Sprintf("%#v", pts), err
	}
	base := Options{MaxNodes: 8, Calls: 128, Seeds: 1, BaseSeed: 1}
	replayed := checkReplaysIntoShardedSweeps(t, jitterCut, base)
	sharded := base
	sharded.Parallelism, sharded.ShardWorkers = 2, 2
	fresh, err := jitterCut(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if replayed != fresh {
		t.Fatalf("resumed sharded sweep = %s, fresh sharded sweep = %s", replayed, fresh)
	}
}

// TestCheckpointReplaysAcrossShardWorkerCounts checks that a serial fig3
// checkpoint replays every cell, byte for byte, at ShardWorkers 2 and 4.
func TestCheckpointReplaysAcrossShardWorkerCounts(t *testing.T) {
	checkReplaysIntoShardedSweeps(t, func(o Options) (string, error) {
		tab, err := Fig3VanillaScaling(o)
		if err != nil {
			return "", err
		}
		var buf bytes.Buffer
		tab.Render(&buf)
		tab.CSV(&buf)
		return buf.String(), nil
	}, detOptions())
}

// TestQuarantineNonAggregateRow checks that quarantine reaches the
// experiments outside the aggregate benchmark: a panicking build in one t5
// run turns that row into "-" cells while its processor count and the
// other rows stay real.
func TestQuarantineNonAggregateRow(t *testing.T) {
	prev := buildCluster
	buildCluster = func(cfg cluster.Config) (*cluster.Cluster, error) {
		if cfg.Nodes == 2 {
			panic("injected build panic")
		}
		return cluster.Build(cfg)
	}
	defer func() { buildCluster = prev }()

	o := detOptions()
	o.Parallelism = 2
	tab, err := T5AllreduceFraction(o)
	if err != nil {
		t.Fatalf("a panicking run aborted t5: %v", err)
	}
	procs, share := tab.Col("procs"), tab.Col("share")
	if len(procs) != 3 || procs[1] != 32 {
		t.Fatalf("procs = %v, want the 2-node row kept at 32", procs)
	}
	if !math.IsNaN(share[1]) || math.IsNaN(share[0]) || math.IsNaN(share[2]) {
		t.Fatalf("share = %v, want only the 2-node row quarantined", share)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	if !strings.Contains(buf.String(), " - ") {
		t.Errorf("rendered t5 has no '-' cell:\n%s", buf.String())
	}
}

// TestRunDeadlineQuarantinesT3 checks that RunDeadline reaches the ALE3D
// runs: every run overruns a 1ns budget, so the sweep fails as
// all-quarantined with the deadline as the cause.
func TestRunDeadlineQuarantinesT3(t *testing.T) {
	o := detOptions()
	o.Parallelism = 2
	o.RunDeadline = time.Nanosecond
	var lines []string
	o.Progress = func(l string) { lines = append(lines, l) }
	_, err := T3ALE3D(o)
	if err == nil || !errors.Is(err, errRunDeadline) || !strings.Contains(err.Error(), "all 3 runs quarantined") {
		t.Fatalf("err = %v, want all 3 t3 runs quarantined by the deadline", err)
	}
	if n := strings.Count(strings.Join(lines, "\n"), "QUARANTINED"); n != 3 {
		t.Fatalf("%d QUARANTINED progress lines, want 3:\n%s", n, strings.Join(lines, "\n"))
	}
}

// TestRunAllReturnsLowestIndexError checks the sweep's failure contract: a
// run error that is not quarantinable fails the sweep, and when several
// runs fail the lowest-index error wins no matter which finished first.
func TestRunAllReturnsLowestIndexError(t *testing.T) {
	early, late := errors.New("early"), errors.New("late")
	runs := make([]runDesc, 8)
	for i := range runs {
		runs[i] = runDesc{Label: "lowest-index", Nodes: 1, SeedIdx: i, Cfg: cluster.Vanilla(1, 1, 1)}
	}
	o := detOptions()
	o.Parallelism = 8
	// Run 7 fails at once; run 2 fails after a delay. Both run, so the
	// lowest-index error must win.
	_, err := runAll(o, runs, 0, nil, func(i int, _ *cluster.Cluster) (int, error) {
		switch i {
		case 2:
			time.Sleep(20 * time.Millisecond)
			return 0, early
		case 7:
			return 0, late
		}
		return i, nil
	})
	if !errors.Is(err, early) {
		t.Fatalf("err = %v, want the lowest-index run's error", err)
	}
}

// TestCheckpointAppendFailureFailsSweep checks that a checkpoint record
// that cannot be written fails the sweep and names the file, rather than
// leaving a resume with silently missing cells.
func TestCheckpointAppendFailureFailsSweep(t *testing.T) {
	path := t.TempDir() + "/sweep.jsonl"
	o := detOptions()
	o.CheckpointPath = path
	cp, err := openCheckpoint(path, false, o.fingerprint())
	if err != nil {
		t.Fatal(err)
	}
	defer resetCheckpointsForTest()
	cp.f.Close() // every later append fails
	_, err = Fig3VanillaScaling(o)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("err = %v, want a sweep failure naming %s", err, path)
	}
}

// FuzzOpenCheckpoint feeds arbitrary file contents to a resumed sweep's
// checkpoint reader. It must not panic, it must replay exactly the entry
// lines that parse under a matching fingerprint header, and the file it
// rewrites must reopen to the same cache.
func FuzzOpenCheckpoint(f *testing.F) {
	const fp = "0123456789abcdef"
	hdr := `{"fingerprint":"` + fp + `"}`
	f.Add([]byte(hdr + "\n" + `{"key":"fig3|1|0|1001","mean":451.5,"stddev":30.25}` + "\n"))
	f.Add([]byte(hdr + "\n" + `{"key":"a","mean":1,"stddev":2}` + "\n" + `{"key":"torn`))
	f.Add([]byte(hdr + "\n" + `{"key":"a","mean":1}` + "\n" + `{"key":"a","mean":2}` + "\n\n" + `null` + "\n" + `{"key":""}`))
	f.Add([]byte(`{"fingerprint":"other"}` + "\n" + `{"key":"a","mean":1,"stddev":2}` + "\n"))
	f.Add([]byte(hdr + "\r\n" + `{"key":"a","mean":1e400}` + "\r\n"))
	f.Add([]byte{})
	path := f.TempDir() + "/cp.jsonl"
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want := map[string]runOut{}
		lines := strings.Split(string(data), "\n")
		var h cpHeader
		if json.Unmarshal([]byte(lines[0]), &h) == nil && h.Fingerprint == fp {
			for _, ln := range lines[1:] {
				var e cpEntry
				if json.Unmarshal([]byte(ln), &e) == nil && e.Key != "" {
					want[e.Key] = runOut{mean: e.Mean, stddev: e.Stddev}
				}
			}
		}
		defer resetCheckpointsForTest()
		for pass := 0; pass < 2; pass++ {
			cp, err := openCheckpoint(path, true, fp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cp.cache, want) {
				t.Fatalf("pass %d: cache = %v, want %v", pass, cp.cache, want)
			}
			resetCheckpointsForTest()
		}
	})
}
