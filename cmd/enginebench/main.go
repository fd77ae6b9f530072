// enginebench measures the event engine's throughput and guards against
// performance regressions. Three modes:
//
//	enginebench [-mode engine] [-o results/bench_engine.json] [-reps 3]
//	enginebench -mode pdes [-o results/bench_pdes.json] [-reps 3]
//	enginebench -mode check [-against results/bench_engine.json] [-tolerance 0.25]
//
// Engine mode measures the serial queue cores — the production timer wheel
// against the reference 4-ary heap — on the two acceptance scenarios
// (full-cluster simulation and tick-heavy single node) plus the engine
// micro-benchmarks. The scenarios mirror BenchmarkEngineThroughput (package
// coschedsim) and BenchmarkNodeTickHeavy (internal/kernel) exactly; both
// cores are measured back-to-back in one process, which keeps the speedup
// ratio honest even on a noisy machine.
//
// Pdes mode measures the sharded conservative-time-window core on full
// cluster simulations: each scenario runs serially (the wheel core) and then
// with 2 and 4 intra-run workers, reporting events/s, speedup over serial,
// and the window statistics (count, cross-shard events, mean active shards,
// barrier stall) that explain the number.
//
// Check mode is the CI perf guard: it re-measures the two acceptance
// scenarios wheel-only and fails (exit 1) if either regresses more than
// -tolerance against the committed bench_engine.json. With -pdes-against it
// additionally guards the serial throughput of the 8-node pdes scenario and
// its jittered variant against the committed bench_pdes.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"coschedsim"
	"coschedsim/internal/kernel"
	"coschedsim/internal/sim"
)

// measurement is one (scenario, core) data point.
type measurement struct {
	EventsPerSec float64 `json:"events_per_s"`
	NsPerOp      int64   `json:"ns_per_op"`
	Iterations   int     `json:"iterations"`
}

// comparison is one scenario measured under both cores. Baseline, when
// present, is the same scenario measured at the pre-timer-wheel commit
// (read from -baseline, see results/bench_baseline.json): the in-process
// heap core shares this change's allocation optimizations, so heap-vs-wheel
// isolates the queue data structure while wheel-vs-baseline is the
// end-to-end gain of the change. GOMAXPROCS/NumCPU are recorded per
// scenario so artifacts measured on a single-core box are self-describing.
type comparison struct {
	Name              string       `json:"name"`
	Detail            string       `json:"detail"`
	GOMAXPROCS        int          `json:"gomaxprocs"`
	NumCPU            int          `json:"num_cpu"`
	Heap              measurement  `json:"heap"`
	Wheel             measurement  `json:"wheel"`
	Speedup           float64      `json:"speedup"`
	Baseline          *measurement `json:"baseline,omitempty"`
	SpeedupVsBaseline float64      `json:"speedup_vs_baseline,omitempty"`
}

// baselineFile is the schema of -baseline (results/bench_baseline.json).
type baselineFile struct {
	Commit      string                 `json:"commit"`
	Description string                 `json:"description"`
	Scenarios   map[string]measurement `json:"scenarios"`
}

// report is the bench_engine.json schema.
type report struct {
	Generated      string       `json:"generated"`
	GoVersion      string       `json:"go_version"`
	GOMAXPROCS     int          `json:"gomaxprocs"`
	NumCPU         int          `json:"num_cpu"`
	Reps           int          `json:"reps"`
	BaselineCommit string       `json:"baseline_commit,omitempty"`
	Scenarios      []comparison `json:"scenarios"`
}

// nowStamp is the shared timestamp format of every report.
func nowStamp() string { return time.Now().UTC().Format(time.RFC3339) }

// scenario couples a benchmark body with its description. Bodies must call
// b.ReportMetric(..., "events/s") like the _test.go versions they mirror.
type scenario struct {
	name   string
	detail string
	run    func(b *testing.B)
}

func scenarios() []scenario {
	return []scenario{
		{
			name: "engine-throughput",
			detail: "128 Allreduce calls on the 944-CPU vanilla cluster slice " +
				"(8 nodes x 16 CPUs + noise + co-scheduling machinery); " +
				"mirrors BenchmarkEngineThroughput",
			run: engineThroughput,
		},
		{
			name: "node-tick-heavy",
			detail: "2 simulated seconds of one 16-CPU node: 24 preempting CPU " +
				"hogs, 16 sleep/wake cyclers, 10ms ticks, usage-decay sweep; " +
				"mirrors BenchmarkNodeTickHeavy",
			run: nodeTickHeavy,
		},
		{
			name:   "schedule-fire",
			detail: "bare schedule+fire round trip; mirrors BenchmarkEngineScheduleFire",
			run:    scheduleFire,
		},
		{
			name:   "churn-1k",
			detail: "schedule/reschedule/cancel churn over a 1k-event standing population; mirrors BenchmarkEngineChurn1k",
			run:    churn1k,
		},
	}
}

// engineThroughput mirrors BenchmarkEngineThroughput in bench_test.go.
func engineThroughput(b *testing.B) {
	var fired uint64
	for i := 0; i < b.N; i++ {
		c := coschedsim.MustBuild(coschedsim.Vanilla(8, 16, int64(i+1)))
		res, err := coschedsim.RunAggregate(c, coschedsim.AggregateSpec{
			Loops: 1, CallsPerLoop: 128,
		}, coschedsim.Hour)
		if err != nil || !res.Completed {
			b.Fatal(err)
		}
		fired += c.Eng.Fired()
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
}

// nodeTickHeavy mirrors BenchmarkNodeTickHeavy in internal/kernel.
func nodeTickHeavy(b *testing.B) {
	var fired uint64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i + 1))
		opts := kernel.VanillaOptions(16)
		opts.UsageDecay = true
		n := kernel.MustNode(eng, 0, opts)
		for h := 0; h < 24; h++ {
			th := n.NewThread("hog", 100, h%16)
			var spin func()
			spin = func() { th.Run(500*sim.Microsecond, spin) }
			th.Start(spin)
		}
		for s := 0; s < 16; s++ {
			th := n.NewThread("cycler", 80, s)
			var cycle func()
			cycle = func() {
				th.Run(100*sim.Microsecond, func() {
					th.Sleep(3*sim.Millisecond, cycle)
				})
			}
			th.Start(cycle)
		}
		n.Start()
		eng.Run(2 * sim.Second)
		fired += eng.Fired()
	}
	b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
}

// scheduleFire mirrors BenchmarkEngineScheduleFire in internal/sim.
func scheduleFire(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	for i := 0; i < b.N; i++ {
		e.After(sim.Time(i%97)+1, "bench", fn)
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// churn1k mirrors BenchmarkEngineChurn1k in internal/sim.
func churn1k(b *testing.B) {
	e := sim.NewEngine(1)
	fn := func() {}
	var standing []*sim.Event
	for i := 0; i < 1024; i++ {
		standing = append(standing, e.After(sim.Time(i+1)*sim.Millisecond, "standing", fn))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := e.After(sim.Time(500+i%1000), "churn", fn)
		e.Reschedule(ev, e.Now()+sim.Time(200+i%100))
		e.Cancel(ev)
		if i%8 == 0 && e.Pending() > 0 {
			e.Step()
		}
	}
	_ = standing
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// measure runs one scenario under one core reps times (testing.Benchmark
// auto-calibrates each run to ~1s) and keeps the fastest run — the standard
// way to reject scheduler and frequency noise on a shared machine.
func measure(s scenario, core sim.Core, reps int) measurement {
	prev := sim.DefaultCore
	sim.DefaultCore = core
	defer func() { sim.DefaultCore = prev }()
	var best measurement
	for i := 0; i < reps; i++ {
		r := testing.Benchmark(s.run)
		m := measurement{
			EventsPerSec: r.Extra["events/s"],
			NsPerOp:      r.NsPerOp(),
			Iterations:   r.N,
		}
		if m.EventsPerSec > best.EventsPerSec {
			best = m
		}
	}
	return best
}

// pdesMeasurement is one sharded run of a pdes scenario: throughput plus
// the deterministic window statistics behind it.
type pdesMeasurement struct {
	Workers         int     `json:"workers"`
	EventsPerSec    float64 `json:"events_per_s"`
	NsPerOp         int64   `json:"ns_per_op"`
	Iterations      int     `json:"iterations"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
	Windows         uint64  `json:"windows"`
	CrossShardEvts  uint64  `json:"cross_shard_events"`
	AvgActiveShards float64 `json:"avg_active_shards"`
	BarrierStallMs  float64 `json:"barrier_stall_ms"`
}

// pdesComparison is one scenario: the serial wheel baseline and the sharded
// runs at each worker count. GOMAXPROCS/NumCPU are recorded per scenario so
// single-core artifacts are self-describing.
type pdesComparison struct {
	Name       string            `json:"name"`
	Detail     string            `json:"detail"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Serial     measurement       `json:"serial_wheel"`
	Sharded    []pdesMeasurement `json:"sharded"`
}

// pdesReport is the bench_pdes.json schema.
type pdesReport struct {
	Generated   string           `json:"generated"`
	GoVersion   string           `json:"go_version"`
	GOMAXPROCS  int              `json:"gomaxprocs"`
	NumCPU      int              `json:"num_cpu"`
	Reps        int              `json:"reps"`
	MachineNote string           `json:"machine_note,omitempty"`
	Scenarios   []pdesComparison `json:"scenarios"`
}

// pdesScenario is a full-cluster simulation sized for the sharded core.
// Jitter adds fabric-transit randomness; ale3d swaps the aggregate
// benchmark for the ALE3D proxy (GPFS I/O, checkpoints). Both were
// serial-only before counter-based RNG streams made them shard-safe.
type pdesScenario struct {
	name   string
	detail string
	nodes  int
	calls  int
	jitter sim.Time
	ale3d  bool
}

func pdesScenarios() []pdesScenario {
	return []pdesScenario{
		{
			name: "pdes-cluster-8",
			detail: "128 Allreduce calls on an 8-node x 16-CPU vanilla cluster " +
				"(the engine-throughput scenario run through the sharded core)",
			nodes: 8, calls: 128,
		},
		{
			name: "pdes-cluster-59",
			detail: "64 Allreduce calls at the paper's full scale: 59 nodes x " +
				"16 CPUs = 944 CPUs",
			nodes: 59, calls: 64,
		},
		{
			name: "pdes-jitter-8",
			detail: "the 8-node scenario with 2us switch-transit jitter: every " +
				"message draws from a counter-keyed per-(src,dst,msg) stream",
			nodes: 8, calls: 128, jitter: 2 * coschedsim.Microsecond,
		},
		{
			name: "pdes-ale3d-8",
			detail: "the ALE3D proxy (30 timesteps, GPFS restart dumps) on 8 " +
				"nodes x 16 CPUs, sharded via per-(rank,step) imbalance streams; " +
				"halo exchanges make it the cross-shard-heavy case",
			nodes: 8, ale3d: true,
		},
	}
}

// pdesConfig builds the scenario's cluster config for one benchmark rep.
func pdesConfig(s pdesScenario, workers int, seed int64) coschedsim.Config {
	var cfg coschedsim.Config
	if s.ale3d {
		cfg = coschedsim.ALE3DVanilla(s.nodes, 16, seed)
	} else {
		cfg = coschedsim.Vanilla(s.nodes, 16, seed)
	}
	cfg.Network.Jitter = s.jitter
	cfg.IntraRunWorkers = workers
	return cfg
}

// pdesALE3DSpec sizes the ALE3D proxy for a benchmark rep.
func pdesALE3DSpec() coschedsim.ALE3DSpec {
	spec := coschedsim.DefaultALE3DSpec()
	spec.Timesteps = 30
	spec.CheckpointEvery = 10
	return spec
}

// pdesRun executes one rep of the scenario on an already-built cluster.
func pdesRun(s pdesScenario, c *coschedsim.Cluster) error {
	if s.ale3d {
		res, err := coschedsim.RunALE3D(c, pdesALE3DSpec(), coschedsim.Hour)
		if err == nil && !res.Completed {
			err = fmt.Errorf("ale3d did not complete")
		}
		return err
	}
	res, err := coschedsim.RunAggregate(c, coschedsim.AggregateSpec{
		Loops: 1, CallsPerLoop: s.calls,
	}, coschedsim.Hour)
	if err == nil && !res.Completed {
		err = fmt.Errorf("aggregate did not complete")
	}
	return err
}

// pdesBody builds a benchmark body running the scenario with the given
// intra-run worker count (0 = serial wheel engine).
func pdesBody(s pdesScenario, workers int) func(b *testing.B) {
	return func(b *testing.B) {
		var fired uint64
		for i := 0; i < b.N; i++ {
			c := coschedsim.MustBuild(pdesConfig(s, workers, int64(i+1)))
			if err := pdesRun(s, c); err != nil {
				b.Fatal(err)
			}
			if c.Group != nil {
				fired += c.Group.Fired()
			} else {
				fired += c.Eng.Fired()
			}
		}
		b.ReportMetric(float64(fired)/b.Elapsed().Seconds(), "events/s")
	}
}

// pdesStats runs the scenario once sharded to collect its deterministic
// window statistics (identical at any worker count, so one run suffices).
func pdesStats(s pdesScenario, workers int) (sim.GroupStats, float64) {
	c := coschedsim.MustBuild(pdesConfig(s, workers, 1))
	if err := pdesRun(s, c); err != nil || c.Group == nil {
		return sim.GroupStats{}, 0
	}
	gs := c.Group.Stats()
	avg := 0.0
	if gs.Windows > 0 {
		avg = float64(gs.ActiveShardWindows) / float64(gs.Windows)
	}
	return gs, avg
}

// runPDES measures the pdes scenarios and writes bench_pdes.json.
func runPDES(out string, reps int) {
	rep := pdesReport{
		Generated:  nowStamp(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Reps:       reps,
	}
	workerCounts := []int{2, 4}
	if max := runtime.GOMAXPROCS(0); max < 4 {
		rep.MachineNote = fmt.Sprintf(
			"measured with GOMAXPROCS=%d: worker goroutines time-share %d core(s), "+
				"so these speedups come from the sharded core's smaller per-shard "+
				"event queues (cache locality), not parallel execution; rerun on a "+
				"multi-core machine to measure real parallel speedups",
			max, max)
	}
	for _, s := range pdesScenarios() {
		fmt.Fprintf(os.Stderr, "%-16s serial...", s.name)
		serial := measure(scenario{name: s.name, run: pdesBody(s, 0)}, sim.CoreWheel, reps)
		cmp := pdesComparison{
			Name: s.name, Detail: s.detail,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Serial: serial,
		}
		for _, w := range workerCounts {
			fmt.Fprintf(os.Stderr, " %.3gM ev/s, w=%d...", serial.EventsPerSec/1e6, w)
			m := measure(scenario{name: s.name, run: pdesBody(s, w)}, sim.CoreWheel, reps)
			gs, avg := pdesStats(s, w)
			pm := pdesMeasurement{
				Workers:         w,
				EventsPerSec:    m.EventsPerSec,
				NsPerOp:         m.NsPerOp,
				Iterations:      m.Iterations,
				Windows:         gs.Windows,
				CrossShardEvts:  gs.CrossShardEvents,
				AvgActiveShards: avg,
				BarrierStallMs:  float64(gs.BarrierStallNs) / 1e6,
			}
			if serial.EventsPerSec > 0 {
				pm.SpeedupVsSerial = m.EventsPerSec / serial.EventsPerSec
			}
			fmt.Fprintf(os.Stderr, " %.2fx", pm.SpeedupVsSerial)
			cmp.Sharded = append(cmp.Sharded, pm)
		}
		fmt.Fprintln(os.Stderr)
		rep.Scenarios = append(rep.Scenarios, cmp)
	}
	writeJSON(out, rep)
}

// loadBaseline reads and unmarshals one committed benchmark baseline. A
// missing or malformed file fails with the make target that regenerates it,
// instead of a bare open/unmarshal error (or a silent "pass" over an empty
// report).
func loadBaseline(path, flagName, regen string, v any) {
	buf, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "enginebench: %s: %v\nregenerate the baseline with `make %s` and commit %s\n",
			flagName, err, regen, path)
		os.Exit(1)
	}
	if err := json.Unmarshal(buf, v); err != nil {
		fmt.Fprintf(os.Stderr, "enginebench: %s: %s is not a valid baseline report: %v\nregenerate it with `make %s`\n",
			flagName, path, err, regen)
		os.Exit(1)
	}
}

// failMissingGuards aborts the check when guarded scenarios have no usable
// reference in the baseline: skipping them silently would let the guard
// report "passed" while guarding nothing.
func failMissingGuards(missing []string, against, regen string) {
	if len(missing) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "enginebench: %s has no usable entry for guarded scenario(s) %s\nregenerate it with `make %s` and commit the result\n",
		against, strings.Join(missing, ", "), regen)
	os.Exit(1)
}

// runCheck is the CI perf guard: re-measure the acceptance scenarios
// wheel-only and compare events/s against the committed report.
func runCheck(against string, reps int, tolerance float64) {
	var committed report
	loadBaseline(against, "-against", "bench-engine", &committed)
	want := map[string]measurement{}
	for _, c := range committed.Scenarios {
		want[c.Name] = c.Wheel
	}
	guarded := []string{"engine-throughput", "node-tick-heavy"}
	failed := false
	var missing []string
	for _, s := range scenarios() {
		keep := false
		for _, g := range guarded {
			if s.name == g {
				keep = true
			}
		}
		if !keep {
			continue
		}
		ref, ok := want[s.name]
		if !ok || ref.EventsPerSec <= 0 {
			missing = append(missing, s.name)
			continue
		}
		got := measure(s, sim.CoreWheel, reps)
		ratio := got.EventsPerSec / ref.EventsPerSec
		status := "ok"
		if ratio < 1-tolerance {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%-18s %.3gM ev/s vs committed %.3gM ev/s (%.2fx) %s\n",
			s.name, got.EventsPerSec/1e6, ref.EventsPerSec/1e6, ratio, status)
	}
	failMissingGuards(missing, against, "bench-engine")
	if failed {
		fmt.Fprintf(os.Stderr, "enginebench: wheel throughput regressed more than %.0f%% vs %s\n",
			tolerance*100, against)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "perf check passed")
}

// runPDESCheck extends the perf guard to the sharded-core scenarios: the
// 8-node cluster and its jittered variant (the jitter path is new RNG work
// on every message, so a regression there is exactly what the counter-based
// stream refactor could introduce). Serial wheel throughput is compared
// against the committed bench_pdes.json.
func runPDESCheck(against string, reps int, tolerance float64) {
	var committed pdesReport
	loadBaseline(against, "-pdes-against", "bench-pdes", &committed)
	want := map[string]measurement{}
	for _, c := range committed.Scenarios {
		want[c.Name] = c.Serial
	}
	guarded := map[string]bool{"pdes-cluster-8": true, "pdes-jitter-8": true}
	failed := false
	var missing []string
	for _, s := range pdesScenarios() {
		if !guarded[s.name] {
			continue
		}
		ref, ok := want[s.name]
		if !ok || ref.EventsPerSec <= 0 {
			missing = append(missing, s.name)
			continue
		}
		got := measure(scenario{name: s.name, run: pdesBody(s, 0)}, sim.CoreWheel, reps)
		ratio := got.EventsPerSec / ref.EventsPerSec
		status := "ok"
		if ratio < 1-tolerance {
			status = "REGRESSION"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "%-18s %.3gM ev/s vs committed %.3gM ev/s (%.2fx) %s\n",
			s.name, got.EventsPerSec/1e6, ref.EventsPerSec/1e6, ratio, status)
	}
	failMissingGuards(missing, against, "bench-pdes")
	if failed {
		fmt.Fprintf(os.Stderr, "enginebench: pdes throughput regressed more than %.0f%% vs %s\n",
			tolerance*100, against)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "pdes perf check passed")
}

// writeJSON marshals v and writes it to path ("-" for stdout).
func writeJSON(path string, v any) {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if path == "-" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "enginebench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
}

func main() {
	mode := flag.String("mode", "engine", "engine (serial core comparison), pdes (sharded core scaling), mem (allocation profile), or check (CI perf guard)")
	out := flag.String("o", "", "output JSON path (- for stdout; defaults per mode)")
	reps := flag.Int("reps", 3, "benchmark repetitions per scenario per core (best run is kept)")
	basePath := flag.String("baseline", "", "pre-change baseline JSON to merge in (see results/bench_baseline.json)")
	memBaseline := flag.String("mem-baseline", "", "pre-diet bench_mem.json to merge as the baseline for -mode mem")
	against := flag.String("against", "results/bench_engine.json", "committed report for -mode check")
	pdesAgainst := flag.String("pdes-against", "", "committed bench_pdes.json for -mode check (empty: skip the pdes guard)")
	memAgainst := flag.String("mem-against", "", "committed bench_mem.json for -mode check (empty: skip the allocation guard)")
	tolerance := flag.Float64("tolerance", 0.25, "allowed fractional events/s regression for -mode check")
	memTolerance := flag.Float64("mem-tolerance", 0.20, "allowed fractional bytes-per-event growth for the -mem-against guard")
	flag.Parse()
	debug.SetGCPercent(800) // match parsim's production GC setting

	switch *mode {
	case "pdes":
		if *out == "" {
			*out = "results/bench_pdes.json"
		}
		runPDES(*out, *reps)
		return
	case "mem":
		if *out == "" {
			*out = "results/bench_mem.json"
		}
		runMem(*out, *memBaseline, *reps)
		return
	case "check":
		runCheck(*against, *reps, *tolerance)
		if *pdesAgainst != "" {
			runPDESCheck(*pdesAgainst, *reps, *tolerance)
		}
		if *memAgainst != "" {
			runMemCheck(*memAgainst, *reps, *memTolerance)
		}
		return
	case "engine":
		if *out == "" {
			*out = "results/bench_engine.json"
		}
	default:
		fmt.Fprintf(os.Stderr, "enginebench: unknown -mode %q\n", *mode)
		os.Exit(2)
	}

	var base baselineFile
	if *basePath != "" {
		buf, err := os.ReadFile(*basePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "enginebench: -baseline:", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(buf, &base); err != nil {
			fmt.Fprintln(os.Stderr, "enginebench: -baseline:", err)
			os.Exit(1)
		}
	}

	rep := report{
		Generated:      nowStamp(),
		GoVersion:      runtime.Version(),
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		NumCPU:         runtime.NumCPU(),
		Reps:           *reps,
		BaselineCommit: base.Commit,
	}
	for _, s := range scenarios() {
		fmt.Fprintf(os.Stderr, "%-18s heap...", s.name)
		heap := measure(s, sim.CoreHeap, *reps)
		fmt.Fprintf(os.Stderr, " %.3gM ev/s, wheel...", heap.EventsPerSec/1e6)
		wheel := measure(s, sim.CoreWheel, *reps)
		speedup := 0.0
		if heap.EventsPerSec > 0 {
			speedup = wheel.EventsPerSec / heap.EventsPerSec
		}
		cmp := comparison{
			Name: s.name, Detail: s.detail,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			Heap: heap, Wheel: wheel, Speedup: speedup,
		}
		if bm, ok := base.Scenarios[s.name]; ok && bm.EventsPerSec > 0 {
			b := bm
			cmp.Baseline = &b
			cmp.SpeedupVsBaseline = wheel.EventsPerSec / bm.EventsPerSec
			fmt.Fprintf(os.Stderr, " %.3gM ev/s => %.2fx (%.2fx vs %s)\n",
				wheel.EventsPerSec/1e6, speedup, cmp.SpeedupVsBaseline, base.Commit)
		} else {
			fmt.Fprintf(os.Stderr, " %.3gM ev/s => %.2fx\n", wheel.EventsPerSec/1e6, speedup)
		}
		rep.Scenarios = append(rep.Scenarios, cmp)
	}

	writeJSON(*out, rep)
}
