package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
	"coschedsim/internal/workload"
)

// Workload sizes. A pass runs every run of a workload once; it is the fixed
// amount of simulated work that wall_s, setup_s and cpu_s are the cost of.
const (
	// shardWorkers is the allreduce-sharded run's intra-run worker budget. It
	// fixes the run's shard layout, so every machine simulates the same
	// shards; the measured passes execute them on one thread (see procs in
	// main.go) and only the traced parallel probe runs them on shardWorkers.
	shardWorkers = 2

	tasksPerNode = 16
	horizon      = 30 * sim.Minute

	// The sweep's runs must outlast the co-scheduler's first period
	// boundary (5 s simulated) for the prototype half to drive it: a 10 ms
	// grain gets there in 520 calls, where the harness's 1 ms grain would
	// need about 4,500 calls, or 10 host seconds per 16-node run.
	// One seed per point, here and for ALE3D, keeps a pass short, so that
	// each run's fastest time (bestOf) is taken over about ten passes.
	sweepGrain = 10 * sim.Millisecond
	sweepCalls = 520
	sweepSeeds = 1

	// 100 steps span the same first boundary (about 6 s simulated).
	ale3dNodes = 16
	ale3dSteps = 100
	ale3dSeeds = 1

	// The sharded run uses the prototype configuration: a vanilla run's
	// length at 2,048 ranks hangs on whether rare long daemon bursts (cron's
	// 600 ms, syncd's 120 ms) land in it, which moved its host cost by a
	// fifth from seed to seed; a co-scheduled run does the same simulated
	// work on every seed.
	shardedNodes = 128
	shardedCalls = 100
	shardedGrain = sim.Millisecond
)

var sweepNodes = []int{2, 4, 8, 16}

// workloadDef is one benchmark workload: the runs of a pass, which execute
// one after another.
type workloadDef struct {
	name string
	plan func(seed int64) []runSpec
	// serialRef, when set, is the workload's single run on the serial
	// engine; the traced parallel probe compares it with the sharded run for
	// sim.parallel_speedup and for bit-identity.
	serialRef func(seed int64) runSpec
}

var workloads = []workloadDef{
	{name: "allreduce-sweep", plan: sweepPlan},
	{name: "ale3d-io", plan: ale3dPlan},
	{
		name:      "allreduce-sharded",
		plan:      func(seed int64) []runSpec { return []runSpec{shardedRun(seed, shardWorkers)} },
		serialRef: func(seed int64) runSpec { return shardedRun(seed, 0) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// runSpec is one simulation run: a cluster configuration and the program
// executed on the cluster once it is built.
type runSpec struct {
	label string
	cfg   cluster.Config
	exec  func(c *cluster.Cluster, m *meter) (runOut, error)
}

// runOut is what one run produced: the digest of its simulated outputs, the
// layer counters read after it ended, its per-call Allreduce times, and the
// host and CPU time it took, cluster set-up excluded, in total and per
// metered segment.
type runOut struct {
	digest          string
	counts          counters
	allreduceUS     []float64
	hostS, cpuS     float64
	segHost, segCPU []float64
}

// runSeed derives a run's seed from the base seed and the run's sweep
// coordinates, as the experiment harness does.
func runSeed(base int64, nodes, idx int) int64 { return base + int64(1000*nodes) + int64(idx) }

type preset struct {
	tag string
	cfg func(nodes, tasksPerNode int, seed int64) cluster.Config
}

// sweepPlan is a fig3/fig5/fig6-shaped sweep: aggregate_trace runs over a
// node range under the vanilla and prototype kernels, in the order the
// experiment harness enumerates them.
func sweepPlan(seed int64) []runSpec {
	var out []runSpec
	for _, p := range []preset{{"vanilla", cluster.Vanilla}, {"proto", cluster.Prototype}} {
		for _, nodes := range sweepNodes {
			for s := 0; s < sweepSeeds; s++ {
				out = append(out, runSpec{
					label: fmt.Sprintf("%s/n%d/s%d", p.tag, nodes, s),
					cfg:   p.cfg(nodes, tasksPerNode, runSeed(seed, nodes, s)),
					exec:  aggregateRun(sweepCalls, sweepGrain, false),
				})
			}
		}
	}
	return out
}

func ale3dSpec() workload.ALE3DSpec {
	spec := workload.DefaultALE3DSpec()
	spec.Timesteps = ale3dSteps
	spec.CheckpointEvery = 10
	return spec
}

// ale3dPlan runs the ALE3D proxy under the paper's T3 trio of configurations.
func ale3dPlan(seed int64) []runSpec {
	var out []runSpec
	for _, p := range []preset{{"vanilla", cluster.ALE3DVanilla}, {"naive", cluster.ALE3DNaive}, {"tuned", cluster.ALE3DTuned}} {
		for s := 0; s < ale3dSeeds; s++ {
			out = append(out, runSpec{
				label: fmt.Sprintf("%s/n%d/s%d", p.tag, ale3dNodes, s),
				cfg:   p.cfg(ale3dNodes, tasksPerNode, runSeed(seed, ale3dNodes, s)),
				exec:  ale3dRun(ale3dSpec()),
			})
		}
	}
	return out
}

// shardedRun is the allreduce-sharded workload's single run with the given
// intra-run worker count; 0 runs the same configuration on the serial engine.
func shardedRun(seed int64, shardWorkers int) runSpec {
	cfg := cluster.Prototype(shardedNodes, tasksPerNode, runSeed(seed, shardedNodes, 0))
	cfg.IntraRunWorkers = shardWorkers
	return runSpec{
		label: fmt.Sprintf("proto/n%d/s0", shardedNodes),
		cfg:   cfg,
		exec:  aggregateRun(shardedCalls, shardedGrain, true),
	}
}

// markEvery is how many timed calls of a streamed run make one metered
// segment: about a quarter second of allreduce-sharded's run.
const markEvery = 10

// aggregateRun runs the aggregate_trace benchmark: calls timed Allreduce
// calls, each after grain of compute. With stream set the timings reach a
// callback as they complete, as in the huge tier, instead of being retained
// by the workload, and the callback marks m every markEvery calls.
func aggregateRun(calls int, grain sim.Time, stream bool) func(*cluster.Cluster, *meter) (runOut, error) {
	return func(c *cluster.Cluster, m *meter) (runOut, error) {
		spec := workload.AggregateSpec{Loops: 1, CallsPerLoop: calls, Compute: grain}
		var streamed []float64
		if stream {
			streamed = make([]float64, 0, calls)
			spec.Stream = func(i int, us float64) {
				streamed = append(streamed, us)
				if (i+1)%markEvery == 0 {
					m.mark()
				}
			}
		}
		res, err := workload.RunAggregate(c, spec, horizon)
		if err != nil {
			return runOut{}, err
		}
		times := res.TimesUS
		if stream {
			times = streamed
		}
		if err := checkAggregate(res.Completed, times, calls); err != nil {
			return runOut{}, err
		}
		k := readCounters(c, res.Wall)
		k["mpi.rank_calls"] = float64(c.Procs() * calls)
		return runOut{digest: digest(times, int64(res.Wall)), counts: k, allreduceUS: times}, nil
	}
}

// ale3dRun runs the ALE3D proxy with spec.
func ale3dRun(spec workload.ALE3DSpec) func(*cluster.Cluster, *meter) (runOut, error) {
	return func(c *cluster.Cluster, _ *meter) (runOut, error) {
		res, err := workload.RunALE3D(c, spec, horizon)
		if err != nil {
			return runOut{}, err
		}
		if err := checkALE3D(res, spec, c.Procs()); err != nil {
			return runOut{}, err
		}
		k := readCounters(c, res.Wall)
		// Every step's exchanges and reductions, plus the opening and
		// closing barriers.
		calls := spec.Timesteps*(spec.ExchangesPerStep+spec.ReductionsPerStep) + 2
		k["mpi.rank_calls"] = float64(c.Procs() * calls)
		k["workload.ale3d_runs"] = 1
		k["workload.ale3d_step_sim_s"] = res.StepTime.Seconds()
		k["workload.ale3d_dump_sim_s"] = res.DumpTime.Seconds()
		io := res.IOStats
		d := digest(nil, int64(res.ReadTime), int64(res.StepTime), int64(res.DumpTime), int64(res.Wall),
			int64(io.BytesWritten), int64(io.BytesRead), int64(io.WriterStalls), int64(io.DaemonCPUTime))
		return runOut{digest: d, counts: k}, nil
	}
}

// digest hashes a run's simulated outputs bit for bit: its per-call times,
// then its scalar results.
func digest(times []float64, scalars ...int64) string {
	h := sha256.New()
	var b [8]byte
	for _, t := range times {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(t))
		h.Write(b[:])
	}
	for _, s := range scalars {
		binary.LittleEndian.PutUint64(b[:], uint64(s))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// counters holds one run's layer counts by name; a pass sums its runs'.
type counters map[string]float64

func (k counters) add(o counters) {
	for name, v := range o {
		k[name] += v
	}
}

// readCounters reads every layer's Stats-style counters from a finished run
// whose job completed at elapsed (simulated time).
func readCounters(c *cluster.Cluster, elapsed sim.Time) counters {
	k := counters{}
	if g := c.Group; g != nil {
		gs := g.Stats()
		k["sim.events"] = float64(g.Fired())
		k["sim.windows"] = float64(gs.Windows)
		k["sim.parallel_windows"] = float64(gs.ParallelWindows)
		k["sim.active_shard_windows"] = float64(gs.ActiveShardWindows)
		k["sim.cross_shard_events"] = float64(gs.CrossShardEvents)
		k["sim.barrier_stall_ms"] = float64(gs.BarrierStallNs) / 1e6
	} else {
		k["sim.events"] = float64(c.Eng.Fired())
	}
	for i, n := range c.Nodes {
		ns := n.Stats()
		k["kernel.ctx_switches"] += float64(ns.CtxSwitches)
		k["kernel.preemptions"] += float64(ns.Preemptions)
		k["kernel.ipis"] += float64(ns.IPIs)
		k["kernel.steal_sim_ms"] += (ns.TickSteal + ns.IdleTickSteal + ns.CtxSteal + ns.ExtSteal).Millis()
		for _, cpu := range n.CPUs() {
			k["kernel.ticks"] += float64(cpu.Stats().Ticks)
		}
		k["noise.daemon_cpu_sim_ms"] += c.Noise[i].DaemonCPUTime().Millis()
		k["noise.overhead_frac_sum"] += c.Noise[i].Measure(elapsed).PerCPUFraction
	}
	k["noise.nodes"] = float64(len(c.Nodes))
	for _, r := range c.Job.Ranks() {
		k["kernel.rank_wait_sim_ms"] += r.Thread().Stats().WaitTime.Millis()
	}
	fs := c.Fabric.Stats()
	k["network.messages"] = float64(fs.Messages)
	k["network.bytes"] = float64(fs.Bytes)
	k["network.cross_shard_sends"] = float64(fs.CrossShardSends)
	k["mpi.p2p_sends"] = float64(c.Job.P2PSends())
	if c.Sched != nil {
		k["cosched.transitions"] = float64(len(c.Sched.Transitions()))
	}
	for _, svc := range c.IO {
		st := svc.Stats()
		k["gpfs.bytes_written"] += float64(st.BytesWritten)
		k["gpfs.bytes_read"] += float64(st.BytesRead)
		k["gpfs.writer_stalls"] += float64(st.WriterStalls)
		k["gpfs.daemon_cpu_sim_ms"] += st.DaemonCPUTime.Millis()
	}
	return k
}
