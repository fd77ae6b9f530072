// Benchmarks: one testing.B benchmark per paper figure/table (plus the
// ablations), each running its experiment at a scaled-down size and
// reporting the headline quantity via b.ReportMetric. These regenerate the
// *shape* of every result in the paper's evaluation; use cmd/parsim with
// -full for paper-scale numbers.
package coschedsim_test

import (
	"runtime"
	"testing"
	"time"

	"coschedsim"
)

// benchOptions is sized so each benchmark iteration runs in a few seconds.
func benchOptions() coschedsim.ExperimentOptions {
	return coschedsim.ExperimentOptions{
		MaxNodes:     4,
		Calls:        192,
		Seeds:        1,
		ComputeGrain: coschedsim.Millisecond,
		BaseSeed:     1,
	}
}

func runExperiment(b *testing.B, name string, metrics func(*coschedsim.Table, *testing.B)) {
	b.Helper()
	r, ok := coschedsim.LookupExperiment(name)
	if !ok {
		b.Fatalf("unknown experiment %s", name)
	}
	opts := benchOptions()
	for i := 0; i < b.N; i++ {
		opts.BaseSeed = int64(1 + i)
		tab, err := r.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 && metrics != nil {
			metrics(tab, b)
		}
	}
}

// BenchmarkFig1NoiseOverlap regenerates Figure 1's overlap comparison.
func BenchmarkFig1NoiseOverlap(b *testing.B) {
	runExperiment(b, "fig1", func(t *coschedsim.Table, b *testing.B) {
		b.ReportMetric(t.Cell("random", "allcpu-app"), "random-green-%")
		b.ReportMetric(t.Cell("co-scheduled", "allcpu-app"), "cosched-green-%")
	})
}

// BenchmarkFig3VanillaScaling regenerates Figure 3 (vanilla sweep).
func BenchmarkFig3VanillaScaling(b *testing.B) {
	runExperiment(b, "fig3", func(t *coschedsim.Table, b *testing.B) {
		means := t.Col("mean")
		b.ReportMetric(means[len(means)-1], "top-mean-us")
	})
}

// BenchmarkFig4OutlierProfile regenerates Figure 4 (sorted times).
func BenchmarkFig4OutlierProfile(b *testing.B) {
	runExperiment(b, "fig4", func(t *coschedsim.Table, b *testing.B) {
		times := t.Col("time")
		b.ReportMetric(times[len(times)-1]/times[0], "slowest/fastest")
	})
}

// BenchmarkFig5PrototypeScaling regenerates Figure 5 (prototype sweep).
func BenchmarkFig5PrototypeScaling(b *testing.B) {
	runExperiment(b, "fig5", func(t *coschedsim.Table, b *testing.B) {
		means := t.Col("mean")
		b.ReportMetric(means[len(means)-1], "top-mean-us")
	})
}

// BenchmarkFig6FittedSlopes regenerates Figure 6 (slope comparison).
func BenchmarkFig6FittedSlopes(b *testing.B) {
	runExperiment(b, "fig6", func(t *coschedsim.Table, b *testing.B) {
		van := t.Cell("vanilla", "slope")
		proto := t.Cell("prototype", "slope")
		if proto > 0 {
			b.ReportMetric(van/proto, "slope-ratio")
		}
	})
}

// BenchmarkT1FifteenPerNode regenerates the 15 tasks/node baseline.
func BenchmarkT1FifteenPerNode(b *testing.B) {
	runExperiment(b, "t1", func(t *coschedsim.Table, b *testing.B) {
		m15 := t.Col("mean15")
		m16 := t.Col("mean16")
		b.ReportMetric(m16[len(m16)-1]/m15[len(m15)-1], "16tpn/15tpn")
	})
}

// BenchmarkT2PopulatedSpeedup regenerates the 154%-speedup comparison.
func BenchmarkT2PopulatedSpeedup(b *testing.B) {
	runExperiment(b, "t2", func(t *coschedsim.Table, b *testing.B) {
		van := t.Cell("vanilla-15tpn", "mean")
		proto := t.Cell("prototype-16tpn", "mean")
		b.ReportMetric(coschedsim.Speedup(van, proto), "speedup-%")
	})
}

// BenchmarkT3ALE3D regenerates the production-application comparison.
func BenchmarkT3ALE3D(b *testing.B) {
	runExperiment(b, "t3", func(t *coschedsim.Table, b *testing.B) {
		b.ReportMetric(t.Cell("vanilla", "wall"), "vanilla-s")
		b.ReportMetric(t.Cell("cosched-naive", "wall"), "naive-s")
		b.ReportMetric(t.Cell("cosched-tuned", "wall"), "tuned-s")
	})
}

// BenchmarkT4NoiseAccounting regenerates the 0.2-1.1%-per-CPU noise
// measurement and the MP_POLLING_INTERVAL A/B.
func BenchmarkT4NoiseAccounting(b *testing.B) {
	runExperiment(b, "t4", func(t *coschedsim.Table, b *testing.B) {
		b.ReportMetric(t.Cell("noise-standard", "value"), "noise-%per-cpu")
	})
}

// BenchmarkT5AllreduceFraction regenerates the collective-share claim.
func BenchmarkT5AllreduceFraction(b *testing.B) {
	runExperiment(b, "t5", func(t *coschedsim.Table, b *testing.B) {
		shares := t.Col("share")
		b.ReportMetric(shares[len(shares)-1], "top-share-%")
	})
}

// BenchmarkAblationBigTick sweeps the big-tick multiplier.
func BenchmarkAblationBigTick(b *testing.B) { runExperiment(b, "abl-bigtick", nil) }

// BenchmarkAblationDutyCycle sweeps the co-scheduler window geometry.
func BenchmarkAblationDutyCycle(b *testing.B) { runExperiment(b, "abl-duty", nil) }

// BenchmarkAblationIPI sweeps the forced-preemption features.
func BenchmarkAblationIPI(b *testing.B) { runExperiment(b, "abl-ipi", nil) }

// BenchmarkAblationClockSync sweeps cluster clock error.
func BenchmarkAblationClockSync(b *testing.B) { runExperiment(b, "abl-clock", nil) }

// BenchmarkAblationTickAlignment compares staggered vs aligned ticks.
func BenchmarkAblationTickAlignment(b *testing.B) { runExperiment(b, "abl-ticks", nil) }

// BenchmarkAblationFineGrainHints evaluates the paper's §7 region-hint
// proposal.
func BenchmarkAblationFineGrainHints(b *testing.B) { runExperiment(b, "abl-hints", nil) }

// BenchmarkAblationHardwareCollectives evaluates switch-offloaded Allreduce
// alone and combined with the prototype.
func BenchmarkAblationHardwareCollectives(b *testing.B) {
	runExperiment(b, "abl-hwcoll", func(t *coschedsim.Table, b *testing.B) {
		b.ReportMetric(t.Cell("vanilla-swtree", "mean")/t.Cell("vanilla-hwcoll", "mean"), "hw-gain-x")
	})
}

// BenchmarkBaselineGangScheduler compares the §6 gang-scheduler baseline
// against vanilla and the dedicated-job co-scheduler.
func BenchmarkBaselineGangScheduler(b *testing.B) {
	runExperiment(b, "abl-gang", func(t *coschedsim.Table, b *testing.B) {
		b.ReportMetric(t.Cell("gang-scheduler", "mean")/t.Cell("vanilla", "mean"), "gang/vanilla")
		b.ReportMetric(t.Cell("vanilla", "mean")/t.Cell("dedicated-cosched", "mean"), "cosched-gain-x")
	})
}

// BenchmarkBaselineFairShare compares the §6 fair-share (usage decay)
// baseline against static priorities.
func BenchmarkBaselineFairShare(b *testing.B) {
	runExperiment(b, "abl-fairshare", func(t *coschedsim.Table, b *testing.B) {
		b.ReportMetric(t.Cell("fair-share-decay", "mean")/t.Cell("static-priorities", "mean"), "decay/static")
	})
}

// BenchmarkSweepParallel measures the wall-clock speedup of the parallel
// experiment harness against strictly serial execution on a small fig3
// sweep. The resulting tables are bit-identical (see the determinism
// regression test in internal/experiment); only wall time changes, and
// only on multi-core machines — at GOMAXPROCS=1 the speedup is ~1.0x.
func BenchmarkSweepParallel(b *testing.B) {
	workers := runtime.GOMAXPROCS(0)
	r, ok := coschedsim.LookupExperiment("fig3")
	if !ok {
		b.Fatal("unknown experiment fig3")
	}
	var serial, parallel time.Duration
	for i := 0; i < b.N; i++ {
		opts := benchOptions()
		opts.Seeds = 2
		opts.BaseSeed = int64(1 + i)
		opts.Parallelism = 1
		t0 := time.Now()
		if _, err := r.Run(opts); err != nil {
			b.Fatal(err)
		}
		serial += time.Since(t0)
		opts.Parallelism = workers
		t0 = time.Now()
		if _, err := r.Run(opts); err != nil {
			b.Fatal(err)
		}
		parallel += time.Since(t0)
	}
	b.ReportMetric(float64(workers), "workers")
	b.ReportMetric(serial.Seconds()/parallel.Seconds(), "speedup-x")
}
