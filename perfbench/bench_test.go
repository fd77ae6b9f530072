package main

import (
	"math"
	"sort"
	"testing"
	"time"

	"coschedsim/internal/gpfs"
	"coschedsim/internal/sim"
	"coschedsim/internal/workload"
)

// topOutput is `go tool pprof -top -sample_index=samples` output in the
// format parseTop reads, including an inlined leaf and a generic function
// whose name contains spaces.
const topOutput = `File: perfbench
Type: cpu
Time: 2026-10-16 07:00:00 UTC
Duration: 4.51s, Total samples = 4.20s (93.12%)
Showing nodes accounting for 400, 100% of 400 total
      flat  flat%   sum%        cum   cum%
       160 40.00% 40.00%        170 42.50%  coschedsim/internal/sim.entryHeap.siftDown
        80 20.00% 60.00%        300 75.00%  coschedsim/internal/kernel.(*Node).dispatch
        40 10.00% 70.00%         40 10.00%  coschedsim/internal/mpi.(*Rank).deliver (inline)
        60 15.00% 85.00%         60 15.00%  runtime.mallocgc
        20  5.00% 90.00%         20  5.00%  sort.Float64s
        40 10.00%   100%        400   100%  coschedsim/internal/parallel.MapAll[go.shape.struct { main.digest string }].func1
         0     0%   100%        400   100%  main.runPass
`

func TestParseTopGroupsLeafFramesByLayer(t *testing.T) {
	got, err := parseTop(topOutput)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"sim": 0.4, "kernel": 0.2, "mpi": 0.1, "runtime": 0.15, "other": 0.05, "parallel": 0.1, "bench": 0}
	if len(got) != len(want) {
		t.Fatalf("layers %v, want %v", got, want)
	}
	for l, w := range want {
		if math.Abs(got[l]-w) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, got[l], w)
		}
	}
}

func TestParseTopRejectsAProfileWithoutSamples(t *testing.T) {
	for _, out := range []string{"", "File: perfbench\nShowing nodes accounting for 0, 0% of 0 total\n      flat  flat%   sum%        cum   cum%\n"} {
		if _, err := parseTop(out); err == nil {
			t.Errorf("parseTop(%q) accepted a profile without samples", out)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"coschedsim/internal/sim.(*Engine).Step":         "sim",
		"coschedsim/internal/cosched.(*nodeSched).start": "cosched",
		"runtime.gcBgMarkWorker":                         "runtime",
		"runtime/internal/atomic.(*Uint32).Load":         "runtime",
		"main.aggregateRun.func1":                        "bench",
		"syscall.Syscall6":                               "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestBestOfSumsEachRunsFastestTime(t *testing.T) {
	// Three passes of two runs: the first run was fastest in the second pass
	// and the second run in the third, so no single pass was the fastest.
	passes := [][]float64{{2, 5}, {1.5, 6}, {3, 4}}
	if got := bestOf(passes); got != 5.5 {
		t.Errorf("bestOf = %v, want 1.5 + 4 = 5.5", got)
	}
	if got := bestOf(passes[:1]); got != 7 {
		t.Errorf("bestOf of one pass = %v, want its sum 7", got)
	}
	if got := bestOf(nil); got != 0 {
		t.Errorf("bestOf of no passes = %v, want 0", got)
	}
	// A pass whose last run failed before its first mark has fewer segments.
	if got := bestOf([][]float64{{2, 5}, {1.5}}); got != 6.5 {
		t.Errorf("bestOf with a short pass = %v, want 1.5 + 5 = 6.5", got)
	}
}

func TestMeterSplitsARunAtItsMarks(t *testing.T) {
	t0 := time.Unix(100, 0)
	m := &meter{
		wall: []time.Time{t0, t0.Add(250 * time.Millisecond), t0.Add(time.Second)},
		cpu:  []float64{10, 10.25, 11},
	}
	var out runOut
	if err := m.record(&out); err != nil {
		t.Fatal(err)
	}
	if out.hostS != 1 || out.cpuS != 1 {
		t.Errorf("totals host %v cpu %v, want 1 and 1", out.hostS, out.cpuS)
	}
	if len(out.segHost) != 2 || out.segHost[0] != 0.25 || out.segHost[1] != 0.75 ||
		len(out.segCPU) != 2 || out.segCPU[0] != 0.25 || out.segCPU[1] != 0.75 {
		t.Errorf("segments host %v cpu %v, want [0.25 0.75] for both", out.segHost, out.segCPU)
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{xs, 99, 99.01},
		{xs, 100, 100},
	} {
		if got := pct(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("pct(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	got := medians([]map[string]float64{{"a": 1, "b": 7}, {"a": 3, "b": 7}, {"a": 2, "b": 7}})
	if got["a"] != 2 || got["b"] != 7 {
		t.Errorf("medians = %v, want a=2 b=7", got)
	}
}

func TestCheckAggregate(t *testing.T) {
	good := []float64{310.5, 298.25, 402}
	if err := checkAggregate(true, good, 3); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
	for name, tc := range map[string]struct {
		completed bool
		times     []float64
	}{
		"incomplete":    {false, good},
		"missing call":  {true, good[:2]},
		"NaN time":      {true, []float64{310.5, math.NaN(), 402}},
		"zero time":     {true, []float64{310.5, 0, 402}},
		"infinite time": {true, []float64{310.5, math.Inf(1), 402}},
	} {
		if err := checkAggregate(tc.completed, tc.times, 3); err == nil {
			t.Errorf("%s: corrupted output passed the check", name)
		}
	}
}

func TestRestartBytesMatchThePaperScaleFigure(t *testing.T) {
	// 16 nodes x 16 ranks writing an 8 MiB restart file at steps 10..90
	// and at the end.
	spec := workload.ALE3DSpec{Timesteps: 100, CheckpointEvery: 10, RestartWriteBytes: 8 << 20}
	if got := 256 * spec.RestartWriteBytes * dumps(spec); got != 21_474_836_480 {
		t.Errorf("bytes written = %d, want 21474836480", got)
	}
	spec.CheckpointEvery = 0
	if got := dumps(spec); got != 1 {
		t.Errorf("terminal dump only: %d dumps", got)
	}
}

func TestCheckALE3D(t *testing.T) {
	spec := ale3dSpec()
	const ranks = 256
	good := workload.ALE3DResult{
		Completed: true, Timesteps: spec.Timesteps, StepTime: 6 * sim.Second, DumpTime: sim.Second / 2,
		IOStats: gpfs.Stats{
			BytesWritten: ranks * uint64(spec.RestartWriteBytes) * uint64(dumps(spec)),
			BytesRead:    ranks * uint64(spec.InitialReadBytes),
		},
	}
	if err := checkALE3D(good, spec, ranks); err != nil {
		t.Fatalf("good run rejected: %v", err)
	}
	lostChunk := good
	lostChunk.IOStats.BytesWritten -= uint64(spec.RestartWriteBytes / spec.WriteChunks)
	shortRead := good
	shortRead.IOStats.BytesRead--
	incomplete := good
	incomplete.Completed = false
	stepsShort := good
	stepsShort.Timesteps--
	for name, res := range map[string]workload.ALE3DResult{
		"lost chunk": lostChunk, "short read": shortRead, "incomplete": incomplete, "steps short": stepsShort,
	} {
		if err := checkALE3D(res, spec, ranks); err == nil {
			t.Errorf("%s: corrupted output passed the check", name)
		}
	}
}

func TestDigestSeesOneBitOfOutput(t *testing.T) {
	base := digest([]float64{310.5, 298.25}, 7)
	if digest([]float64{310.5, 298.25}, 7) != base {
		t.Fatal("digest is not a function of its input")
	}
	for name, d := range map[string]string{
		"last bit of a time": digest([]float64{310.5, math.Nextafter(298.25, 1000)}, 7),
		"call order":         digest([]float64{298.25, 310.5}, 7),
		"completion time":    digest([]float64{310.5, 298.25}, 8),
	} {
		if d == base {
			t.Errorf("changing the %s left the digest unchanged", name)
		}
	}
}

func TestCheckDigest(t *testing.T) {
	for _, tc := range []struct {
		got, earlier, recorded string
		ok                     bool
	}{
		{"a", "", "", true},
		{"a", "a", "a", true},
		{"a", "b", "", false},
		{"a", "", "b", false},
		{"a", "a", "b", false},
	} {
		if err := checkDigest(tc.got, tc.earlier, tc.recorded); (err == nil) != tc.ok {
			t.Errorf("checkDigest(%q, %q, %q) = %v", tc.got, tc.earlier, tc.recorded, err)
		}
	}
}

// TestRecordedDigestsCoverEveryRun keeps digests.json in step with the
// workloads: the default seed has a digest for every run of every workload.
func TestRecordedDigestsCoverEveryRun(t *testing.T) {
	d, err := loadDigests("digests.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		rec := d.forRun(1, w.name)
		var labels []string
		for _, spec := range w.plan(1) {
			labels = append(labels, spec.label)
			if rec[spec.label] == "" {
				t.Errorf("%s %s: no digest recorded for seed 1", w.name, spec.label)
			}
		}
		if len(rec) != len(labels) {
			sort.Strings(labels)
			t.Errorf("%s: %d digests recorded for seed 1, want one per run %v", w.name, len(rec), labels)
		}
	}
}
