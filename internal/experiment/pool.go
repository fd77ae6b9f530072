package experiment

import (
	"errors"
	"fmt"
	"math"
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

// runOut is the aggregate-benchmark outcome of one runDesc.
type runOut struct {
	procs  int
	mean   float64
	stddev float64
}

// workers resolves the sweep-level worker count: the total budget
// (Parallelism, or GOMAXPROCS when unset) divided by whatever each run
// consumes for intra-run parallelism, so that sweep workers times shard
// workers never exceeds the budget.
func (o Options) workers() int {
	w := parallel.Workers(o.Parallelism)
	if s := o.shardWorkers(); s > 1 {
		w /= s
		if w < 1 {
			w = 1
		}
	}
	return w
}

// shardWorkers resolves the per-run intra-run worker count, clamped to the
// total budget; values <= 1 disable sharding.
func (o Options) shardWorkers() int {
	s := o.ShardWorkers
	if budget := parallel.Workers(o.Parallelism); s > budget {
		s = budget
	}
	if s <= 1 {
		return 0
	}
	return s
}

// withSafeProgress returns a copy of o whose Progress callback is
// serialized behind a mutex so pool workers may report concurrently.
// Every line carries its run's label/nodes/seed tags, so interleaved
// output remains attributable to a run.
func (o Options) withSafeProgress() Options {
	if o.Progress == nil {
		return o
	}
	var mu sync.Mutex
	inner := o.Progress
	o.Progress = func(line string) {
		mu.Lock()
		defer mu.Unlock()
		inner(line)
	}
	return o
}

// runAggregateJobs executes the paper's aggregate benchmark once per
// descriptor on o.workers() workers. out[i] corresponds to jobs[i] no
// matter which worker ran it, so aggregations over the result slice are
// bit-identical to a serial loop; the first failing job (lowest index)
// cancels the remaining ones.
func runAggregateJobs(o Options, jobs []runDesc) ([]runOut, error) {
	return runJobs(o, jobs, false)
}

// runStreamedJobs is runAggregateJobs with per-call timings streamed into
// an online accumulator instead of retained: each run's memory is O(1) in
// the call count, which is what lets the huge tier sweep 16k-rank clusters.
// The streamed stddev comes from Welford's update rather than Summarize's
// two-pass formula, so it is NOT bitwise-comparable to the retained path —
// only new huge-tier tables use it; every golden path keeps
// runAggregateJobs.
func runStreamedJobs(o Options, jobs []runDesc) ([]runOut, error) {
	return runJobs(o, jobs, true)
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

func runJobs(o Options, jobs []runDesc, streamed bool) ([]runOut, error) {
	o = o.withSafeProgress()
	shard := o.shardWorkers()
	var cp *checkpoint
	if o.CheckpointPath != "" {
		var err error
		cp, err = openCheckpoint(o.CheckpointPath, o.Resume, o.fingerprint())
		if err != nil {
			return nil, err
		}
	}
	outs, errs := parallel.MapAll(o.workers(), len(jobs), func(i int) (runOut, error) {
		j := jobs[i]
		key := cpKey(j, streamed)
		if cp != nil {
			if r, ok := cp.lookup(key); ok {
				o.progress("%s nodes=%d seed=%d checkpoint cached mean=%.1fus stddev=%.1fus",
					j.Label, j.Nodes, j.SeedIdx, r.mean, r.stddev)
				return r, nil
			}
		}
		if shard > 1 {
			j.Cfg.IntraRunWorkers = shard
		}
		c, err := buildCluster(j.Cfg)
		if err != nil {
			return runOut{}, err
		}
		if o.RunDeadline > 0 {
			c.SetWallDeadline(o.RunDeadline)
		}
		spec := workload.AggregateSpec{
			Loops: 1, CallsPerLoop: o.callsFor(c.Procs()), Compute: o.ComputeGrain,
		}
		var acc stats.Accum
		if streamed {
			spec.Stream = func(_ int, us float64) { acc.Add(us) }
		}
		res, err := workload.RunAggregate(c, spec, 30*sim.Minute)
		if err != nil {
			return runOut{}, err
		}
		if c.DeadlineHit() {
			return runOut{}, fmt.Errorf("experiment %s: %d-node run seed=%d: %w",
				j.Label, j.Nodes, j.SeedIdx, errRunDeadline)
		}
		if !res.Completed {
			return runOut{}, fmt.Errorf("experiment %s: %d-node run did not complete", j.Label, j.Nodes)
		}
		var sum stats.Summary
		if streamed {
			sum = acc.Summary()
		} else {
			sum = stats.Summarize(res.TimesUS)
		}
		o.progress("%s nodes=%d procs=%d seed=%d mean=%.1fus stddev=%.1fus",
			j.Label, j.Nodes, c.Procs(), j.SeedIdx, sum.Mean, sum.Stddev)
		if c.Group != nil {
			gs := c.Group.Stats()
			ns := c.Fabric.Stats()
			avg := 0.0
			if gs.Windows > 0 {
				avg = float64(gs.ActiveShardWindows) / float64(gs.Windows)
			}
			o.progress("%s nodes=%d seed=%d pdes windows=%d cross-events=%d cross-sends=%d avg-active-shards=%.1f barrier-stall=%.0fms",
				j.Label, j.Nodes, j.SeedIdx, gs.Windows, gs.CrossShardEvents,
				ns.CrossShardSends, avg, float64(gs.BarrierStallNs)/1e6)
		}
		r := runOut{procs: c.Procs(), mean: sum.Mean, stddev: sum.Stddev}
		if cp != nil {
			cp.record(key, r)
		}
		return r, nil
	})
	// Quarantine isolated failures: the cell keeps its processor count (so
	// table rows stay aligned) with NaN statistics, which render as "-" and
	// suppress the fit. Any non-quarantinable error — lowest index first,
	// matching parallel.Map's old contract — fails the sweep.
	quarantined := 0
	for i, err := range errs {
		if err == nil {
			continue
		}
		if !quarantinable(err) {
			return nil, err
		}
		j := jobs[i]
		outs[i] = runOut{procs: j.Cfg.Nodes * j.Cfg.TasksPerNode, mean: math.NaN(), stddev: math.NaN()}
		o.progress("%s nodes=%d seed=%d QUARANTINED: %v", j.Label, j.Nodes, j.SeedIdx, err)
		quarantined++
	}
	if quarantined == len(jobs) && len(jobs) > 0 {
		first := 0
		for i, err := range errs {
			if err != nil {
				first = i
				break
			}
		}
		return nil, fmt.Errorf("experiment: all %d runs quarantined; first failure: %w", quarantined, errs[first])
	}
	return outs, nil
}

// variantSpec names one configuration of a design-choice sweep.
type variantSpec struct {
	tag string
	cfg func(seed int64) cluster.Config
}

// meanSD is one variant's aggregate over seeds.
type meanSD struct {
	mean   float64
	stddev float64
}

// runVariantMeans runs every (variant, seed) combination of a sweep
// through the work pool and aggregates per variant in declaration order:
// the grand mean of per-run means and the mean of per-run stddevs, exactly
// as the serial per-variant loop did.
func runVariantMeans(o Options, label string, nodes int, variants []variantSpec) ([]meanSD, error) {
	jobs := make([]runDesc, 0, len(variants)*o.Seeds)
	for _, v := range variants {
		for s := 0; s < o.Seeds; s++ {
			seed := o.BaseSeed + int64(s)
			jobs = append(jobs, runDesc{
				Label: label + "/" + v.tag, Nodes: nodes, SeedIdx: s, Seed: seed, Cfg: v.cfg(seed),
			})
		}
	}
	outs, err := runAggregateJobs(o, jobs)
	if err != nil {
		return nil, err
	}
	res := make([]meanSD, len(variants))
	for vi := range variants {
		group := outs[vi*o.Seeds : (vi+1)*o.Seeds]
		var means, sds []float64
		for _, r := range group {
			means = append(means, r.mean)
			sds = append(sds, r.stddev)
		}
		res[vi] = meanSD{mean: stats.Summarize(means).Mean, stddev: stats.Summarize(sds).Mean}
	}
	return res, nil
}
