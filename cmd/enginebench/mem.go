// Allocation measurement (-mode mem) and the allocation-regression guard
// used by -mode check. Where the engine modes ask "how many events per
// second", this file asks "how many bytes per event": full-cluster scenarios
// are run once per rep under ReadMemStats bracketing (TotalAlloc/Mallocs
// deltas over build+run, divided by events fired), and the two hot-path
// micro-benchmarks (MPI collective steady state, sharded window loop) are
// run through testing.Benchmark for exact AllocsPerOp numbers. The committed
// results/bench_mem.json carries the pre-diet baseline alongside the current
// numbers, so the "≥30% fewer bytes per event" claim is auditable from the
// artifact alone.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"coschedsim"
	"coschedsim/internal/kernel"
	"coschedsim/internal/mpi"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

// memMeasurement is one scenario's allocation profile over a full
// build+run: construction cost is deliberately included, because at the
// huge tier the per-rank/per-node object graph is exactly what blows the
// memory budget.
type memMeasurement struct {
	EventsFired    uint64  `json:"events_fired"`
	BytesAlloc     uint64  `json:"bytes_alloc"`
	Mallocs        uint64  `json:"mallocs"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
}

// memComparison is one scenario: the current numbers and, when a baseline
// file was merged in, the pre-change numbers plus the fractional
// bytes-per-event improvement (positive = current allocates less).
type memComparison struct {
	Name        string          `json:"name"`
	Detail      string          `json:"detail"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	NumCPU      int             `json:"num_cpu"`
	Current     memMeasurement  `json:"current"`
	Baseline    *memMeasurement `json:"baseline,omitempty"`
	Improvement float64         `json:"bytes_per_event_improvement,omitempty"`
}

// microMeasurement is one testing.Benchmark hot-path result.
type microMeasurement struct {
	Name        string `json:"name"`
	Detail      string `json:"detail"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	NsPerOp     int64  `json:"ns_per_op"`
	Iterations  int    `json:"iterations"`
}

// memReport is the bench_mem.json schema.
type memReport struct {
	Generated    string             `json:"generated"`
	GoVersion    string             `json:"go_version"`
	GOMAXPROCS   int                `json:"gomaxprocs"`
	NumCPU       int                `json:"num_cpu"`
	Reps         int                `json:"reps"`
	BaselineNote string             `json:"baseline_note,omitempty"`
	Scenarios    []memComparison    `json:"scenarios"`
	Micro        []microMeasurement `json:"micro"`
}

// memScenarios are the full-simulation allocation scenarios: the four pdes
// scenarios (the acceptance set for the memory diet) plus a 256-node point
// where construction cost — per-rank, per-node, per-thread object graphs —
// carries real weight.
func memScenarios() []pdesScenario {
	return append(pdesScenarios(), pdesScenario{
		name: "mem-cluster-256",
		detail: "4 Allreduce calls on a 256-node x 16-CPU vanilla cluster " +
			"(4096 CPUs): the construction-heavy point where flattened " +
			"per-rank state matters most",
		nodes: 256, calls: 4,
	})
}

// measureMemOnce runs one rep of a scenario under MemStats bracketing.
func measureMemOnce(s pdesScenario) (memMeasurement, error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c := coschedsim.MustBuild(pdesConfig(s, 0, 1))
	if err := pdesRun(s, c); err != nil {
		return memMeasurement{}, err
	}
	fired := c.Eng.Fired()
	if c.Group != nil {
		fired = c.Group.Fired()
	}
	runtime.ReadMemStats(&m1)
	m := memMeasurement{
		EventsFired: fired,
		BytesAlloc:  m1.TotalAlloc - m0.TotalAlloc,
		Mallocs:     m1.Mallocs - m0.Mallocs,
	}
	if fired > 0 {
		m.BytesPerEvent = float64(m.BytesAlloc) / float64(fired)
		m.AllocsPerEvent = float64(m.Mallocs) / float64(fired)
	}
	return m, nil
}

// measureMem keeps the rep with the fewest bytes per event: allocation is
// deterministic for a fixed seed up to runtime-internal noise (map growth
// timing, goroutine stacks), and the minimum is the code's true cost.
func measureMem(s pdesScenario, reps int) (memMeasurement, error) {
	var best memMeasurement
	for i := 0; i < reps; i++ {
		m, err := measureMemOnce(s)
		if err != nil {
			return memMeasurement{}, err
		}
		if i == 0 || m.BytesPerEvent < best.BytesPerEvent {
			best = m
		}
	}
	return best, nil
}

// mpiHotPathBody is the MPI collective steady-state micro-benchmark: 16
// ranks over 4 quiet nodes run b.N back-to-back Allreduces (recursive
// doubling: fold + 4 exchange rounds, 2*log2(16) p2p messages per rank).
// Cluster construction happens before the timer reset, so AllocsPerOp is
// the per-collective steady-state cost — deliver/matching, collective state,
// delivery records, and event scheduling, with zero as the target.
// BenchmarkMPIAllreduceSteadyAllocs in internal/mpi is the test-suite twin.
func mpiHotPathBody(b *testing.B) {
	const size, ncpu = 16, 4
	eng := sim.NewEngine(1)
	fabric := network.MustFabric(eng, network.DefaultConfig())
	cfg := mpi.DefaultConfig()
	cfg.ProgressEnabled = false
	opts := kernel.VanillaOptions(ncpu)
	nodes := make([]*kernel.Node, size/ncpu)
	for i := range nodes {
		nodes[i] = kernel.MustNode(eng, i, opts)
		nodes[i].Start()
	}
	job := mpi.MustJob(eng, fabric, cfg, nil)
	for i := 0; i < size; i++ {
		job.AddRank(nodes[i/ncpu], i%ncpu)
	}
	job.OnComplete(eng.Stop)
	b.ReportAllocs()
	b.ResetTimer()
	job.Launch(func(r *mpi.Rank) {
		var i int
		var loop func(float64)
		loop = func(float64) {
			if i == b.N {
				r.Done()
				return
			}
			i++
			r.Allreduce(float64(i), loop)
		}
		loop(0)
	})
	eng.Run(sim.Forever)
	if !job.Completed() {
		b.Fatal("allreduce loop did not complete")
	}
}

// shardedWindowBody is the sharded-core window-loop micro-benchmark: 4
// shards under 2 workers, each shard carrying a dense self-rescheduling
// event chain plus a cross-shard send every 4th firing, driven for b.N
// window-lengths of simulated time. AllocsPerOp is the window machinery's
// steady-state cost (dispatch, outbox staging, canonical merge).
// BenchmarkShardedWindowAllocs in internal/sim is the test-suite twin.
func shardedWindowBody(b *testing.B) {
	const shards = 4
	lookahead := 24 * sim.Microsecond
	g := sim.NewShardGroup(1, shards, 2, lookahead)
	for i := 0; i < shards; i++ {
		i := i
		e := g.Shard(i)
		n := 0
		e.Recur(sim.Time(i+1)*sim.Microsecond, "chain", func() sim.Time {
			n++
			if n%4 == 0 {
				dst := g.Shard((i + 1) % shards)
				e.ScheduleOn(dst, e.Now()+lookahead, "cross", func() {})
			}
			return e.Now() + 10*sim.Microsecond
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(sim.Time(b.N) * lookahead)
}

// memMicros names the micro-benchmarks recorded in the report.
func memMicros() []struct {
	name, detail string
	body         func(b *testing.B)
} {
	return []struct {
		name, detail string
		body         func(b *testing.B)
	}{
		{
			name: "mpi-allreduce-steady",
			detail: "per-Allreduce steady-state allocations: 16 ranks / 4 quiet " +
				"nodes, recursive doubling; mirrors BenchmarkMPIAllreduceSteadyAllocs",
			body: mpiHotPathBody,
		},
		{
			name: "sharded-window-loop",
			detail: "per-window steady-state allocations of the conservative " +
				"time-window machinery: 4 shards, 2 workers, cross-shard sends; " +
				"mirrors BenchmarkShardedWindowAllocs",
			body: shardedWindowBody,
		},
	}
}

// runMem measures every scenario and micro-benchmark and writes
// bench_mem.json, merging baseline numbers from -mem-baseline when given.
func runMem(out, basePath string, reps int) {
	rep := memReport{
		Generated:  nowStamp(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       reps,
	}
	var base memReport
	if basePath != "" {
		buf, err := os.ReadFile(basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "enginebench: -mem-baseline:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(buf, &base); err != nil {
			fmt.Fprintln(os.Stderr, "enginebench: -mem-baseline:", err)
			os.Exit(1)
		}
		rep.BaselineNote = base.BaselineNote
		if rep.BaselineNote == "" {
			rep.BaselineNote = fmt.Sprintf("baseline merged from %s (generated %s)",
				basePath, base.Generated)
		}
	}
	baseByName := map[string]memMeasurement{}
	for _, c := range base.Scenarios {
		baseByName[c.Name] = c.Current
	}
	for _, s := range memScenarios() {
		fmt.Fprintf(os.Stderr, "%-18s mem...", s.name)
		m, err := measureMem(s, reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "enginebench:", err)
			os.Exit(1)
		}
		cmp := memComparison{
			Name: s.name, Detail: s.detail,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Current: m,
		}
		if bm, ok := baseByName[s.name]; ok && bm.BytesPerEvent > 0 {
			b := bm
			cmp.Baseline = &b
			cmp.Improvement = 1 - m.BytesPerEvent/bm.BytesPerEvent
			fmt.Fprintf(os.Stderr, " %.0f B/ev (baseline %.0f, %+.0f%%)\n",
				m.BytesPerEvent, bm.BytesPerEvent, cmp.Improvement*100)
		} else {
			fmt.Fprintf(os.Stderr, " %.0f B/ev, %.2f allocs/ev\n",
				m.BytesPerEvent, m.AllocsPerEvent)
		}
		rep.Scenarios = append(rep.Scenarios, cmp)
	}
	for _, mc := range memMicros() {
		fmt.Fprintf(os.Stderr, "%-18s micro...", mc.name)
		r := testing.Benchmark(mc.body)
		rep.Micro = append(rep.Micro, microMeasurement{
			Name: mc.name, Detail: mc.detail,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp(),
			NsPerOp: r.NsPerOp(), Iterations: r.N,
		})
		fmt.Fprintf(os.Stderr, " %d allocs/op, %d B/op\n", r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
	writeJSON(out, rep)
}

// runMemCheck is the allocation-regression guard wired into make
// bench-check: re-measure the cheapest pdes scenario's bytes per event and
// fail if it exceeds the committed bench_mem.json by more than tolerance.
// Allocation per event is nearly deterministic for a fixed seed, so the
// tolerance can be much tighter than the throughput guard's.
func runMemCheck(against string, reps int, tolerance float64) {
	var committed memReport
	loadBaseline(against, "-mem-against", "bench-mem", &committed)
	guarded := map[string]bool{"pdes-cluster-8": true, "pdes-jitter-8": true}
	failed := false
	var missing []string
	for _, s := range memScenarios() {
		if !guarded[s.name] {
			continue
		}
		var ref *memMeasurement
		for _, c := range committed.Scenarios {
			if c.Name == s.name && c.Current.BytesPerEvent > 0 {
				ref = &c.Current
				break
			}
		}
		if ref == nil {
			missing = append(missing, s.name)
			continue
		}
		got, err := measureMem(s, reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "enginebench:", err)
			os.Exit(1)
		}
		ratio := got.BytesPerEvent / ref.BytesPerEvent
		status := "ok"
		if ratio > 1+tolerance {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%-18s %.0f B/ev vs committed %.0f B/ev (%.2fx) %s\n",
			s.name, got.BytesPerEvent, ref.BytesPerEvent, ratio, status)
	}
	failMissingGuards(missing, against, "bench-mem")
	if failed {
		fmt.Fprintf(os.Stderr, "enginebench: bytes per event regressed more than %.0f%% vs %s\n",
			tolerance*100, against)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "allocation check passed")
}
