package experiment

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"coschedsim/internal/cluster"
	"coschedsim/internal/parallel"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
	"coschedsim/internal/workload"
)

// runDesc describes one independent simulation run of a sweep. Sweeps
// enumerate every run up front as descriptors so the work pool can execute
// them in any order while results are assembled in descriptor order —
// seeds are already derived from (BaseSeed, nodes, seed index), so
// ordering is the only hazard to determinism.
type runDesc struct {
	Label   string
	Nodes   int
	SeedIdx int
	Seed    int64
	Cfg     cluster.Config
}

// procs is the run's rank count, known before the cluster is built.
func (r runDesc) procs() int { return r.Cfg.Nodes * r.Cfg.TasksPerNode }

// seeded appends o.Seeds runs of one sweep point: seed index s runs with
// seed base+s on cfg(seed).
func (o Options) seeded(runs []runDesc, label string, nodes int, base int64, cfg func(seed int64) cluster.Config) []runDesc {
	for s := 0; s < o.Seeds; s++ {
		seed := base + int64(s)
		runs = append(runs, runDesc{Label: label, Nodes: nodes, SeedIdx: s, Seed: seed, Cfg: cfg(seed)})
	}
	return runs
}

// workers resolves the sweep-level worker count: the total budget
// (Parallelism, or GOMAXPROCS when unset) divided by whatever each run
// consumes for intra-run parallelism, so that sweep workers times shard
// workers never exceeds the budget.
func (o Options) workers() int {
	w := parallel.Workers(o.Parallelism)
	if s := o.shardWorkers(); s > 0 {
		w /= s
		if w < 1 {
			w = 1
		}
	}
	return w
}

// shardWorkers resolves the per-run intra-run worker count, clamped to the
// total budget; 0 keeps runs on the serial engine.
func (o Options) shardWorkers() int {
	return min(o.ShardWorkers, parallel.Workers(o.Parallelism))
}

// errRunDeadline marks a run cut short by Options.RunDeadline. It is
// wrapped into the run's error so quarantinable can recognize it.
var errRunDeadline = errors.New("run wall deadline exceeded")

// buildCluster is cluster.Build, indirected so tests can inject run-level
// failures (a panicking build for one descriptor) without inventing a real
// configuration that panics.
var buildCluster = cluster.Build

// quarantinable reports whether a run failure is isolated to that run —
// a panic inside the simulation or a per-run wall deadline — and may be
// quarantined without invalidating the rest of the sweep. Configuration
// and model errors stay fatal: they mean the sweep itself is wrong.
func quarantinable(err error) bool {
	var pe *parallel.PanicError
	return errors.As(err, &pe) || errors.Is(err, errRunDeadline)
}

// runAll is the one path every simulation of every experiment takes. It
// builds a cluster per descriptor (on the sharded core under ShardWorkers,
// with the RunDeadline wall budget), runs body(i, cluster) on o.workers()
// pool workers, and returns the results in descriptor order, so any
// aggregation over them is bit-identical to a serial loop.
//
// cached, when non-nil, may supply run i's result without simulating it.
// Each run reports one Progress line tagged with its label, nodes and seed
// (results that implement fmt.Stringer add their summary), plus the engine
// window statistics of sharded runs; Progress calls are serialized.
//
// A run that panics or overruns its deadline is quarantined: its slot holds
// dash, which tables render as "-". Any other error fails the sweep (the
// lowest-index one is returned), and so does a sweep whose every run was
// quarantined.
func runAll[T any](o Options, runs []runDesc, dash T, cached func(i int) (T, bool), body func(i int, c *cluster.Cluster) (T, error)) ([]T, error) {
	var mu sync.Mutex
	progress := func(format string, args ...any) {
		if o.Progress == nil {
			return
		}
		line := fmt.Sprintf(format, args...)
		mu.Lock()
		defer mu.Unlock()
		o.Progress(line)
	}
	tag := func(r runDesc) string { return fmt.Sprintf("%s nodes=%d seed=%d", r.Label, r.Nodes, r.SeedIdx) }
	shard := o.shardWorkers()
	outs, errs := parallel.MapAll(o.workers(), len(runs), func(i int) (T, error) {
		var zero T
		r := runs[i]
		if cached != nil {
			if v, ok := cached(i); ok {
				progress("%s checkpoint cached%s", tag(r), summary(v))
				return v, nil
			}
		}
		r.Cfg.IntraRunWorkers = shard
		c, err := buildCluster(r.Cfg)
		if err != nil {
			return zero, err
		}
		c.SetWallDeadline(o.RunDeadline)
		v, err := body(i, c)
		if c.DeadlineHit() {
			return zero, fmt.Errorf("experiment %s: %w", tag(r), errRunDeadline)
		}
		if err != nil {
			return zero, err
		}
		progress("%s%s", tag(r), summary(v))
		if c.Group != nil {
			gs := c.Group.Stats()
			avg := 0.0
			if gs.Windows > 0 {
				avg = float64(gs.ActiveShardWindows) / float64(gs.Windows)
			}
			progress("%s pdes windows=%d cross-events=%d cross-sends=%d avg-active-shards=%.1f barrier-stall=%.0fms",
				tag(r), gs.Windows, gs.CrossShardEvents, c.Fabric.Stats().CrossShardSends, avg, float64(gs.BarrierStallNs)/1e6)
		}
		return v, nil
	})
	quarantined := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !quarantinable(err) {
			return nil, err
		}
		outs[i] = dash
		progress("%s QUARANTINED: %v", tag(runs[i]), err)
		quarantined++
	}
	if quarantined > 0 && quarantined == len(runs) {
		return nil, fmt.Errorf("experiment: all %d runs quarantined; first failure: %w", quarantined, errs[0])
	}
	return outs, nil
}

// summary is v's progress-line suffix: its String form when it has one.
func summary(v any) string {
	if s, ok := v.(fmt.Stringer); ok {
		return " " + s.String()
	}
	return ""
}

// row is one run's table cells.
type row []float64

// nanRow is the quarantined value of an n-cell row: every cell renders "-".
func nanRow(n int) row {
	r := make(row, n)
	for i := range r {
		r[i] = math.NaN()
	}
	return r
}

func (r row) String() string {
	cells := make([]string, len(r))
	for i, v := range r {
		cells[i] = fmt.Sprintf("%.4g", v)
	}
	return strings.Join(cells, " ")
}

// runOut is the aggregate-benchmark outcome of one run.
type runOut struct {
	mean   float64
	stddev float64
}

func (r runOut) String() string { return fmt.Sprintf("mean=%.1fus stddev=%.1fus", r.mean, r.stddev) }

// pointStats is one sweep point's aggregate over its seeds.
type pointStats struct {
	procs  int
	mean   float64 // mean Allreduce us, averaged over seeds
	stddev float64 // within-run stddev, averaged over seeds
	min    float64
	max    float64 // spread of per-seed means (run-to-run variability)
}

// runAggregate runs the paper's aggregate benchmark once per descriptor
// and folds each consecutive group of seeds runs into one point, in
// descriptor order: the grand mean of the per-run means, the mean of the
// per-run stddevs, and the spread of the per-run means. Under
// CheckpointPath every completed run is appended to the checkpoint file,
// and under Resume a run found there is replayed instead of simulated.
func runAggregate(o Options, runs []runDesc, seeds int) ([]pointStats, error) {
	var cp *checkpoint
	if o.CheckpointPath != "" {
		var err error
		if cp, err = openCheckpoint(o.CheckpointPath, o.Resume, o.fingerprint()); err != nil {
			return nil, err
		}
	}
	key := func(i int) string {
		r := runs[i]
		return fmt.Sprintf("%s|%d|%d|%d", r.Label, r.Nodes, r.SeedIdx, r.Seed)
	}
	outs, err := runAll(o, runs, runOut{math.NaN(), math.NaN()},
		func(i int) (runOut, bool) { return cp.lookup(key(i)) },
		func(i int, c *cluster.Cluster) (runOut, error) {
			spec := workload.AggregateSpec{Loops: 1, CallsPerLoop: o.callsFor(c.Procs()), Compute: o.ComputeGrain}
			res, err := workload.RunAggregate(c, spec, 30*sim.Minute)
			if err != nil {
				return runOut{}, err
			}
			if !res.Completed {
				return runOut{}, fmt.Errorf("experiment %s: %d-node run did not complete", runs[i].Label, runs[i].Nodes)
			}
			sum := stats.Summarize(res.TimesUS)
			r := runOut{mean: sum.Mean, stddev: sum.Stddev}
			if c.DeadlineHit() {
				return r, nil // quarantined by runAll; a replay must not revive it
			}
			return r, cp.record(key(i), r)
		})
	if err != nil {
		return nil, err
	}
	pts := make([]pointStats, 0, len(outs)/seeds)
	for i := 0; i < len(outs); i += seeds {
		var means, sds []float64
		for _, r := range outs[i : i+seeds] {
			means = append(means, r.mean)
			sds = append(sds, r.stddev)
		}
		ms := stats.Summarize(means)
		pts = append(pts, pointStats{procs: runs[i].procs(), mean: ms.Mean,
			stddev: stats.Summarize(sds).Mean, min: ms.Min, max: ms.Max})
	}
	return pts, nil
}
