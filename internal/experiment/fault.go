package experiment

import (
	"fmt"
	"math"

	"coschedsim/internal/cluster"
	"coschedsim/internal/fault"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
	"coschedsim/internal/workload"
)

// faultDetect is the survivor detection latency used by every ablation
// variant. It must clear the fabric lookahead (24us) so abort broadcasts can
// cross conservative shard windows; cluster.Validate enforces the bound.
const faultDetect = 50 * sim.Microsecond

// faultVariant is one (fault pattern, resilience policy) cell of the sweep.
type faultVariant struct {
	tag string
	cfg func(seed int64) cluster.Config
}

// faultVariants enumerates the ablation: each injected fault class under the
// policy meant to absorb it, plus the abort-policy control for the same
// fault so the table shows what the resilience response buys.
func faultVariants(nodes int) []faultVariant {
	drop := func(rate float64, retries int) func(int64) cluster.Config {
		return func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Faults = &fault.Config{Policy: fault.PolicyRetry, DropRate: rate, DetectLatency: faultDetect}
			if retries > 0 {
				cfg.MPI.SendRetries = retries
				cfg.MPI.SendTimeout = 200 * sim.Microsecond
			} else {
				cfg.Faults.Policy = fault.PolicyAbort
			}
			return cfg
		}
	}
	crash := func(policy fault.Policy) func(int64) cluster.Config {
		return func(seed int64) cluster.Config {
			cfg := cluster.Prototype(nodes, 16, seed)
			cfg.Faults = &fault.Config{
				Policy: policy, CrashProb: 0.3, CrashWindow: 40 * sim.Millisecond,
				DetectLatency: faultDetect,
			}
			if policy == fault.PolicyReplan {
				cfg.Faults.ReplanDrain = 20 * sim.Millisecond
			}
			return cfg
		}
	}
	return []faultVariant{
		{"baseline", func(seed int64) cluster.Config {
			return cluster.Vanilla(nodes, 16, seed)
		}},
		{"drop-abort", drop(1e-3, 0)},
		{"drop-retry", drop(1e-3, 6)},
		{"drop-heavy", drop(1e-2, 8)},
		{"partition-retry", func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Faults = &fault.Config{
				Policy: fault.PolicyRetry, DetectLatency: faultDetect,
				PartitionStart: 10 * sim.Millisecond, PartitionDuration: 5 * sim.Millisecond,
				PartitionFrac: 0.5,
			}
			// Cumulative exponential backoff 500us*(2^8-1) = 127.5ms spans the
			// 5ms cut, so every message eventually crosses the healed link.
			cfg.MPI.SendTimeout = 500 * sim.Microsecond
			cfg.MPI.SendRetries = 8
			return cfg
		}},
		{"straggler", func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Faults = &fault.Config{
				Policy: fault.PolicyRetry, DetectLatency: faultDetect,
				StragglerProb: 0.5, StragglerWindow: 20 * sim.Millisecond,
				StragglerDuration: 100 * sim.Millisecond, StragglerDuty: 0.5,
			}
			return cfg
		}},
		{"stall-restart", func(seed int64) cluster.Config {
			cfg := cluster.Vanilla(nodes, 16, seed)
			cfg.Faults = &fault.Config{
				Policy: fault.PolicyRetry, DetectLatency: faultDetect,
				StallProb: 0.5, StallWindow: 50 * sim.Millisecond,
				RestartDelay: 5 * sim.Millisecond, CheckPeriod: 2 * sim.Millisecond,
			}
			return cfg
		}},
		{"crash-abort", crash(fault.PolicyAbort)},
		{"crash-replan", crash(fault.PolicyReplan)},
	}
}

// AblationFault sweeps fault rate x resilience policy. Every fault schedule
// is drawn from counter streams keyed by stable identities, so the whole
// table is byte-identical on the heap, wheel, and sharded cores at any
// worker count — the differential test and golden hash pin exactly that.
func AblationFault(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	variants := faultVariants(nodes)
	var runs []runDesc
	for _, v := range variants {
		runs = o.seeded(runs, "abl-fault/"+v.tag, nodes, o.BaseSeed, v.cfg)
	}
	// Unlike the clean sweeps, a run that does not complete is data, not an
	// error: its row reports how far it got and what the resilience
	// machinery did.
	outs, err := runAll(o, runs, nanRow(10), nil, func(_ int, c *cluster.Cluster) (row, error) {
		spec := workload.AggregateSpec{
			Loops: 1, CallsPerLoop: o.callsFor(c.Procs()), Compute: o.ComputeGrain,
		}
		res, err := workload.RunAggregate(c, spec, 30*sim.Minute)
		if err != nil {
			return nil, err
		}
		mean := math.NaN()
		if len(res.TimesUS) > 0 {
			mean = stats.Summarize(res.TimesUS).Mean
		}
		completed := 0.0
		if res.Completed {
			completed = 1
		}
		rep := c.FaultReport()
		return row{mean, float64(len(res.TimesUS)), completed,
			float64(rep.Dropped), float64(rep.Retries), float64(rep.AbortedCollectives),
			float64(rep.LostRanks), float64(rep.AbortedRanks), float64(rep.Replans), float64(rep.Restarts)}, nil
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ABL11",
		Title: fmt.Sprintf("Fault injection x resilience policy, %d procs", nodes*16),
		Cols: []Column{
			{Name: "mean", Unit: "us"}, {Name: "calls"}, {Name: "done"},
			{Name: "drops"}, {Name: "retries"}, {Name: "cabort"},
			{Name: "lost"}, {Name: "aborted"}, {Name: "replans"}, {Name: "restarts"},
		},
	}
	for vi, v := range variants {
		// Per variant: the mean over seeds, then every counter summed over
		// seeds, except calls, which is averaged.
		var means []float64
		sums := make(row, 9)
		for _, r := range outs[vi*o.Seeds : (vi+1)*o.Seeds] {
			means = append(means, r[0])
			for k := range sums {
				sums[k] += r[k+1]
			}
		}
		sums[0] /= float64(o.Seeds)
		t.AddRow(v.tag, append(row{stats.Summarize(means).Mean}, sums...)...)
	}
	t.AddNote("fault schedules are drawn from counter streams keyed by (node, rank, send index, attempt): the table is byte-identical on heap/wheel/sharded cores at any worker count")
	t.AddNote("drop-retry absorbs what drop-abort dies to; crash-replan drains surviving nodes in favored quanta (replans column) before release; counters are summed over %d seed(s)", o.Seeds)
	return t, nil
}
