package main

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"coschedsim/internal/cluster"
	"coschedsim/internal/parallel"
	"coschedsim/internal/stats"
)

// runDeadline bounds one run's host time, so that a hung run fails by name
// instead of stalling the benchmark.
const runDeadline = 60 * time.Second

// pass is one execution of every run of a workload.
type pass struct {
	wallS      float64   // first run's start to last run's end
	buildS     []float64 // each run's cluster.Build time
	outs       []runOut
	errs       []error
	allocBytes uint64
	gcCycles   uint64
}

// hostTimes and cpuTimes are the pass's host and CPU seconds, segment by
// segment, in run order.
func (p pass) hostTimes() []float64 { return p.each(func(o runOut) []float64 { return o.segHost }) }
func (p pass) cpuTimes() []float64  { return p.each(func(o runOut) []float64 { return o.segCPU }) }

func (p pass) each(f func(runOut) []float64) []float64 {
	var out []float64
	for _, o := range p.outs {
		out = append(out, f(o)...)
	}
	return out
}

// meter records the host and CPU time at fixed points of a run's simulated
// work: its start, its end, and any mark the run makes in between. The
// simulation is deterministic, so on one thread the work between two marks
// is the same in every pass, and bestOf can take each segment's fastest
// time.
type meter struct {
	wall []time.Time
	cpu  []float64
	err  error
}

func (m *meter) mark() {
	c, err := cpuSeconds()
	if m.err == nil {
		m.err = err
	}
	m.wall = append(m.wall, time.Now())
	m.cpu = append(m.cpu, c)
}

// record fills out's host and CPU times, in total and per segment, from
// the marks of a finished run.
func (m *meter) record(out *runOut) error {
	if m.err != nil {
		return m.err
	}
	last := len(m.wall) - 1
	out.hostS = m.wall[last].Sub(m.wall[0]).Seconds()
	out.cpuS = m.cpu[last] - m.cpu[0]
	for j := 1; j <= last; j++ {
		out.segHost = append(out.segHost, m.wall[j].Sub(m.wall[j-1]).Seconds())
		out.segCPU = append(out.segCPU, m.cpu[j]-m.cpu[j-1])
	}
	return nil
}

// runS sums the host time of the pass's successful runs.
func (p pass) runS() float64 {
	var s float64
	for i, o := range p.outs {
		if p.errs[i] == nil {
			s += o.hostS
		}
	}
	return s
}

// runPass builds every run's cluster one after another, which is the set-up
// time, then executes the runs one after another, timing each on its own.
// With prof set, the run phase is recorded as a CPU profile. Runs fail
// individually, through p.errs; the error is for the measurement itself.
func runPass(specs []runSpec, prof io.Writer) (pass, error) {
	p := pass{buildS: make([]float64, len(specs))}
	runtime.GC() // every pass starts from a collected heap, outside the timed spans
	// MapAll turns a panicking build or run into that run's error.
	clusters, buildErrs := parallel.MapAll(1, len(specs), func(i int) (*cluster.Cluster, error) {
		start := time.Now()
		c, err := cluster.Build(specs[i].cfg)
		p.buildS[i] = time.Since(start).Seconds()
		return c, err
	})

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if prof != nil {
		if err := pprof.StartCPUProfile(prof); err != nil {
			return p, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	start := time.Now()
	p.outs, p.errs = parallel.MapAll(1, len(specs), func(i int) (runOut, error) {
		if buildErrs[i] != nil {
			return runOut{}, fmt.Errorf("cluster.Build: %w", buildErrs[i])
		}
		c := clusters[i]
		clusters[i] = nil // the cluster becomes garbage once its run ends
		c.SetWallDeadline(runDeadline)
		m := &meter{}
		m.mark()
		out, err := specs[i].exec(c, m)
		m.mark()
		if merr := m.record(&out); merr != nil {
			return out, merr
		}
		if c.DeadlineHit() {
			err = fmt.Errorf("run exceeded its %v wall deadline", runDeadline)
		}
		return out, err
	})
	p.wallS = time.Since(start).Seconds()
	if prof != nil {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&after)
	p.allocBytes = after.TotalAlloc - before.TotalAlloc
	p.gcCycles = uint64(after.NumGC - before.NumGC)
	return p, nil
}

// bestOf is the cost of one pass from several: times[p][s] is segment s's
// time in pass p (a run, or a metered part of one), and bestOf sums,
// segment by segment, each one's fastest time. The simulated work of a
// segment is the same in every pass, and a shared host only adds time to
// it, so its fastest time is its cost with the least interference. Taken
// segment by segment it needs a quiet second per segment, not a quiet pass.
// A pass with a failed run can have fewer segments; its missing ones are
// skipped (the result is then marked incorrect anyway).
func bestOf(times [][]float64) float64 {
	if len(times) == 0 {
		return 0
	}
	var sum float64
	for s := range times[0] {
		best := math.Inf(1)
		for _, t := range times {
			if s < len(t) {
				best = math.Min(best, t[s])
			}
		}
		sum += best
	}
	return sum
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, nil
}

// layerMetrics derives a traced pass's per-layer metrics from its runs'
// counters and its host measurements.
func layerMetrics(p pass) map[string]float64 {
	k := counters{}
	var times []float64
	for i, o := range p.outs {
		if p.errs[i] == nil {
			k.add(o.counts)
			times = append(times, o.allreduceUS...)
		}
	}
	m := map[string]float64{}
	for _, name := range []string{
		"sim.events", "sim.windows", "sim.parallel_windows", "sim.cross_shard_events", "sim.barrier_stall_ms",
		"kernel.ctx_switches", "kernel.preemptions", "kernel.ipis", "kernel.ticks", "kernel.steal_sim_ms", "kernel.rank_wait_sim_ms",
		"noise.daemon_cpu_sim_ms",
		"network.messages", "network.bytes", "network.cross_shard_sends",
		"cosched.transitions",
		"gpfs.bytes_written", "gpfs.bytes_read", "gpfs.writer_stalls", "gpfs.daemon_cpu_sim_ms",
	} {
		m[name] = k[name]
	}
	runS := p.runS()
	m["sim.active_shards_per_window"] = ratio(k["sim.active_shard_windows"], k["sim.windows"])
	m["sim.ns_per_event"] = ratio(runS*1e9, k["sim.events"])
	m["noise.overhead_pct"] = 100 * ratio(k["noise.overhead_frac_sum"], k["noise.nodes"])
	m["mpi.messages_per_call"] = ratio(k["mpi.p2p_sends"], k["mpi.rank_calls"])
	m["mpi.allreduce_sim_us_p50"] = pct(times, 50)
	m["mpi.allreduce_sim_us_p99"] = pct(times, 99)
	m["workload.ale3d_step_sim_s"] = ratio(k["workload.ale3d_step_sim_s"], k["workload.ale3d_runs"])
	m["workload.ale3d_dump_sim_s"] = ratio(k["workload.ale3d_dump_sim_s"], k["workload.ale3d_runs"])
	m["cluster.build_ms_p50"] = pct(p.buildS, 50) * 1e3
	m["parallel.runs"] = float64(len(p.outs))
	m["parallel.run_s_sum"] = runS
	m["runtime.alloc_mb"] = float64(p.allocBytes) / (1 << 20)
	m["runtime.bytes_per_event"] = ratio(float64(p.allocBytes), k["sim.events"])
	m["runtime.gc_cycles"] = float64(p.gcCycles)
	return m
}

// pct is stats.Percentile (linear interpolation) with 0 for an empty
// sample, so a metric a workload does not exercise reads 0 rather than NaN.
func pct(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medians takes, metric by metric, the median over several passes.
func medians(passes []map[string]float64) map[string]float64 {
	vals := map[string][]float64{}
	for _, m := range passes {
		for name, v := range m {
			vals[name] = append(vals[name], v)
		}
	}
	out := map[string]float64{}
	for name, vs := range vals {
		out[name] = pct(vs, 50)
	}
	return out
}
