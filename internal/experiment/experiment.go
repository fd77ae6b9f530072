package experiment

import (
	"fmt"
	"math"
	"sort"
	"time"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
)

// Options scales an experiment run. The defaults (via Full or Quick) trade
// fidelity against wall-clock time; the *shape* conclusions hold at either
// size.
type Options struct {
	// MaxNodes caps the largest cluster in scaling sweeps (paper: 59-120
	// sixteen-way nodes).
	MaxNodes int
	// Calls is the number of timed Allreduces per data point (paper: 4096;
	// that many at ~1000 ranks is minutes of simulation, so sweeps default
	// lower and note it).
	Calls int
	// Seeds is the number of independent runs averaged per point
	// ("each plotted datum is the average of at least 3 runs").
	Seeds int
	// ComputeGrain is work inserted between timed calls. It stretches the
	// measurement window so that second-scale daemon periods are actually
	// sampled (the paper's runs lasted tens of seconds); without it a
	// simulated benchmark of a few hundred back-to-back ~300us calls would
	// finish before a single daemon fired.
	ComputeGrain sim.Time
	// Window, when non-zero, targets a benchmark span per run: the call
	// count is raised above Calls until the estimated run covers it. Runs
	// must span several co-scheduler periods (5s each) or the prototype
	// never pays for its unfavored windows and looks unrealistically clean.
	Window sim.Time
	// BaseSeed roots the deterministic RNG.
	BaseSeed int64
	// Parallelism is the number of worker goroutines executing a sweep's
	// independent runs concurrently. 0 means runtime.GOMAXPROCS(0); 1
	// restores strictly serial execution. Every run's seed is derived
	// from (BaseSeed, nodes, seed index) and results are assembled in
	// enumeration order, so tables, fits and notes are bit-identical at
	// any parallelism.
	Parallelism int
	// ShardWorkers > 1 additionally parallelizes *inside* each simulation
	// run: clusters are built on the sharded engine core (nodes grouped
	// onto event shards, conservative time windows) with this many intra-run
	// workers. The Parallelism value is the TOTAL worker budget — the
	// sweep-level pool shrinks to Parallelism/ShardWorkers workers so
	// sweep x intra-run never oversubscribes it. ShardWorkers above the
	// budget is clamped to it. Outputs do not depend on the value above 1,
	// and they match the serial engine's except in some jittered
	// configurations, where same-time cross-shard deliveries can order
	// differently (see cluster.Config.IntraRunWorkers). 0 and 1 keep runs
	// on the serial engine.
	ShardWorkers int
	// Progress, when non-nil, receives one line per run, tagged with its
	// label, nodes and seed (sharded runs add one engine-window line). Under
	// parallelism > 1 the callback is invoked from worker goroutines but
	// never concurrently (calls are serialized); line order across runs
	// is not deterministic, line content is.
	Progress func(string)
	// CheckpointPath, when non-empty, appends every completed
	// aggregate-benchmark run's result (the Allreduce-timing sweeps) to a
	// JSONL file as the sweep progresses. Combined with Resume, a
	// sweep killed mid-flight restarts from the completed cells instead of
	// from scratch — replayed cells are bit-identical to re-run ones
	// because seeds derive from sweep coordinates, not execution order.
	CheckpointPath string
	// Resume replays a CheckpointPath file written by a previous attempt of
	// the same sweep (matching option fingerprint); a mismatched or absent
	// file is started fresh.
	Resume bool
	// RunDeadline, when positive, bounds each individual run's wall-clock
	// time. A run that exceeds it is quarantined (its table cell shows "-")
	// rather than hanging the whole sweep.
	RunDeadline time.Duration
}

// Full approximates the paper's sizes (59 nodes / 944 processors at the top
// of the sweep).
func Full() Options {
	return Options{MaxNodes: 59, Calls: 512, Seeds: 3,
		ComputeGrain: sim.Millisecond, Window: 12 * sim.Second, BaseSeed: 1}
}

// Quick is sized for tests and laptops.
func Quick() Options {
	return Options{MaxNodes: 12, Calls: 256, Seeds: 2,
		ComputeGrain: sim.Millisecond, Window: 2 * sim.Second, BaseSeed: 1}
}

func (o Options) validate() error {
	if o.MaxNodes <= 0 || o.Calls <= 0 || o.Seeds <= 0 {
		return fmt.Errorf("experiment: MaxNodes, Calls and Seeds must be positive")
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("experiment: Parallelism must be >= 0 (0 = GOMAXPROCS)")
	}
	if o.ShardWorkers < 0 {
		return fmt.Errorf("experiment: ShardWorkers must be >= 0 (0/1 = serial engine)")
	}
	return nil
}

// callsFor sizes the timed-call count for a cluster of the given processor
// count: at least Calls, more when a Window is requested.
func (o Options) callsFor(procs int) int {
	calls := o.Calls
	if o.Window > 0 {
		rounds := 2
		for p := 1; p < procs; p *= 2 {
			rounds++
		}
		cleanEst := sim.Time(rounds) * 35 * sim.Microsecond
		need := int(o.Window / (o.ComputeGrain + cleanEst))
		if need > calls {
			calls = need
		}
		if calls > 20000 {
			calls = 20000
		}
	}
	return calls
}

// nodeSweep returns the node counts for a scaling sweep up to max,
// mimicking the paper's strategy of denser points at low counts and a
// top-end point (59 nodes = 944 processors).
func nodeSweep(max int) []int {
	candidates := []int{1, 2, 4, 8, 16, 24, 32, 48, 59, 80, 100, 120}
	var out []int
	for _, n := range candidates {
		if n <= max {
			out = append(out, n)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	sort.Ints(out)
	return out
}

// Runner is one named experiment.
type Runner struct {
	Name     string
	Describe string
	Run      func(Options) (*Table, error)
}

// Registry lists every experiment in presentation order.
func Registry() []Runner {
	return []Runner{
		{"fig1", "Figure 1: noise overlap, random vs co-scheduled (8-way node)", Fig1NoiseOverlap},
		{"fig3", "Figure 3: Allreduce vs procs, 16 tasks/node, vanilla kernel", Fig3VanillaScaling},
		{"fig4", "Figure 4: sorted Allreduce times and outlier attribution", Fig4OutlierProfile},
		{"fig5", "Figure 5: Allreduce vs procs, prototype kernel + co-scheduler", Fig5PrototypeScaling},
		{"fig6", "Figure 6: fitted lines, vanilla vs prototype slope ratio", Fig6FittedSlopes},
		{"t1", "T1: 15 tasks/node baseline sweep", T1FifteenPerNode},
		{"t2", "T2: fully-populated prototype vs 15 t/n vanilla speedup", T2PopulatedSpeedup},
		{"t3", "T3: ALE3D under vanilla / naive / tuned co-scheduling", T3ALE3D},
		{"t4", "T4: OS noise accounting and MPI timer-thread interference", T4Noise},
		{"t5", "T5: Allreduce share of BSP total time vs scale", T5AllreduceFraction},
		{"abl-bigtick", "Ablation: big-tick interval sweep", ablBigTick.run},
		{"abl-duty", "Ablation: co-scheduler duty cycle and period", ablDuty.run},
		{"abl-ipi", "Ablation: forced-preemption (IPI) feature matrix", ablIPI.run},
		{"abl-clock", "Ablation: clock synchronization error", ablClock.run},
		{"abl-ticks", "Ablation: staggered vs aligned tick interrupts", ablTicks.run},
		{"abl-hints", "Extension: fine-grain region hints (paper §7 future work)", AblationFineGrainHints},
		{"abl-hwcoll", "Extension: hardware-assisted collectives (paper §7 future work)", ablHWColl.run},
		{"abl-jitter", "Ablation: switch-transit jitter sweep, vanilla vs prototype", AblationNetworkJitter},
		{"abl-gang", "Baseline: coarse-quantum gang scheduler (paper §6 category 1)", ablGang.run},
		{"abl-fairshare", "Baseline: fair-share usage decay (paper §6 category 3)", ablFairShare.run},
		{"abl-fault", "Ablation: fault rate x resilience policy (retry vs abort vs co-sched re-plan)", AblationFault},
		{"huge", "Extended: vanilla, co-scheduled and tuned-ALE3D scaling to 1024 nodes / 16384 procs, paper-range fits extrapolated", HugeScaling},
	}
}

// Lookup finds a runner by name.
func Lookup(name string) (Runner, bool) {
	for _, r := range Registry() {
		if r.Name == name {
			return r, true
		}
	}
	return Runner{}, false
}

// measureScaling runs the aggregate benchmark across the node sweep for a
// config family and aggregates per-point statistics over seeds.
func measureScaling(o Options, label string, cfgFor func(nodes int, seed int64) cluster.Config) ([]pointStats, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	var runs []runDesc
	for _, nodes := range nodeSweep(o.MaxNodes) {
		runs = o.seeded(runs, label, nodes, o.BaseSeed+int64(1000*nodes), func(seed int64) cluster.Config {
			return cfgFor(nodes, seed)
		})
	}
	return runAggregate(o, runs, o.Seeds)
}

// scalingTable renders a sweep as the standard scaling table.
func scalingTable(id, title string, pts []pointStats, notes ...string) *Table {
	t := &Table{
		ID:    id,
		Title: title,
		Cols: []Column{
			{Name: "procs"}, {Name: "mean", Unit: "us"}, {Name: "stddev", Unit: "us"},
			{Name: "seedmin", Unit: "us"}, {Name: "seedmax", Unit: "us"},
		},
	}
	for _, p := range pts {
		t.AddRow("", float64(p.procs), p.mean, p.stddev, p.min, p.max)
	}
	xs := t.Col("procs")
	ys := t.Col("mean")
	clean := true
	for _, y := range ys {
		if math.IsNaN(y) {
			clean = false
			break
		}
	}
	if !clean {
		t.AddNote("fit skipped: one or more points quarantined (shown as -)")
	} else if fit, err := stats.LinearFit(xs, ys); err == nil {
		t.AddNote("least-squares fit: y = %.3f*x + %.0f us (R2=%.3f)", fit.Slope, fit.Intercept, fit.R2)
	}
	t.Notes = append(t.Notes, notes...)
	return t
}
