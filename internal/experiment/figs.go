package experiment

import (
	"fmt"
	"strings"

	"coschedsim/internal/cluster"
	"coschedsim/internal/kernel"
	"coschedsim/internal/parallel"
	"coschedsim/internal/sim"
	"coschedsim/internal/stats"
	"coschedsim/internal/trace"
	"coschedsim/internal/workload"
)

// Fig1NoiseOverlap quantifies Figure 1: the same noise budget hurts far less
// when it is overlapped. An 8-way node runs an 8-task BSP job under (a) the
// vanilla kernel with random daemon activity and (b) the prototype kernel +
// co-scheduler; we measure the fraction of wall time during which *all*
// processors are simultaneously executing application threads — the "green"
// time the figure depicts — plus application progress.
func Fig1NoiseOverlap(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "FIG1",
		Title: "Noise overlap: random vs co-scheduled (8-way node, fixed noise budget)",
		Cols: []Column{
			{Name: "allcpu-app", Unit: "%"}, {Name: "steps/s"}, {Name: "noise", Unit: "% per cpu"},
		},
	}
	scens := []struct {
		tag string
		cfg cluster.Config
	}{
		{"random", cluster.Vanilla(1, 8, o.BaseSeed)},
		{"co-scheduled", cluster.Prototype(1, 8, o.BaseSeed)},
	}
	type fig1Out struct {
		green, stepsPerSec, noisePct float64
	}
	op := o.withSafeProgress()
	outs, err := parallel.Map(op.workers(), len(scens), func(i int) (fig1Out, error) {
		cfg := scens[i].cfg
		cfg.CPUsPerNode = 8
		cfg.TasksPerNode = 8
		cfg.Kernel.NumCPUs = 8
		c, err := cluster.Build(cfg)
		if err != nil {
			return fig1Out{}, err
		}
		buf := trace.NewBuffer(4 << 20)
		buf.SkipTicks(true)
		c.Nodes[0].SetSink(buf)
		spec := workload.BSPSpec{
			Steps:             600,
			ComputeMean:       20 * sim.Millisecond,
			ComputeJitter:     2 * sim.Millisecond,
			AllreducesPerStep: 2,
		}
		res, err := workload.RunBSP(c, spec, 30*sim.Minute)
		if err != nil {
			return fig1Out{}, err
		}
		if !res.Completed {
			return fig1Out{}, fmt.Errorf("experiment fig1: %s run did not complete", scens[i].tag)
		}
		green := appOverlapFraction(buf.Records(), 0, 8, 0, res.Wall, "rank")
		noise := c.Noise[0].Measure(res.Wall)
		op.progress("fig1 %s: green=%.1f%% wall=%v", scens[i].tag, green*100, res.Wall)
		return fig1Out{
			green:       green * 100,
			stepsPerSec: float64(spec.Steps) / res.Wall.Seconds(),
			noisePct:    noise.PerCPUFraction * 100,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scens {
		t.AddRow(sc.tag, outs[i].green, outs[i].stepsPerSec, outs[i].noisePct)
	}
	t.AddNote("paper (Fig.1, qualitative): overlapping the same amount of system activity enlarges the periods during which the whole job can progress")
	return t, nil
}

// appOverlapFraction integrates the fraction of [from,to] during which all
// ncpu processors of the node were running threads with the app prefix.
func appOverlapFraction(recs []trace.Record, node, ncpu int, from, to sim.Time, appPrefix string) float64 {
	if to <= from {
		return 0
	}
	state := make([]bool, ncpu) // cpu -> app running
	appCount := 0
	var green sim.Time
	last := from
	set := func(cpu int, app bool, at sim.Time) {
		if cpu < 0 || cpu >= ncpu || state[cpu] == app {
			return
		}
		if appCount == ncpu && at > last {
			green += at - last
		}
		last = at
		state[cpu] = app
		if app {
			appCount++
		} else {
			appCount--
		}
	}
	for _, r := range recs {
		if r.Node != node || r.Time > to {
			if r.Time > to {
				break
			}
			continue
		}
		switch r.Kind {
		case kernel.EvDispatch:
			set(int(r.Arg), strings.HasPrefix(r.Thread, appPrefix), r.Time)
		case kernel.EvPreempt:
			set(int(r.Arg), false, r.Time)
		case kernel.EvBlock, kernel.EvSleep, kernel.EvExit:
			set(r.CPU, false, r.Time)
		}
	}
	if appCount == ncpu && to > last {
		green += to - last
	}
	return float64(green) / float64(to-from)
}

// Fig3VanillaScaling is the paper's Figure 3: mean Allreduce time vs
// processor count on the standard kernel with 16 tasks per node — linear,
// with large variability.
func Fig3VanillaScaling(o Options) (*Table, error) {
	pts, err := measureScaling(o, "fig3", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err != nil {
		return nil, err
	}
	return scalingTable("FIG3",
		"Allreduce vs procs: 16 tasks/node, standard kernel (paper fit: 0.70x+166us)",
		pts,
		"paper: linear rather than logarithmic scaling, extreme variability"), nil
}

// Fig5PrototypeScaling is Figure 5: the same sweep under the prototype
// kernel + co-scheduler (and quieted MPI timer threads).
func Fig5PrototypeScaling(o Options) (*Table, error) {
	pts, err := measureScaling(o, "fig5", func(nodes int, seed int64) cluster.Config {
		return cluster.Prototype(nodes, 16, seed)
	})
	if err != nil {
		return nil, err
	}
	return scalingTable("FIG5",
		"Allreduce vs procs: 16 tasks/node, prototype kernel + co-scheduler (paper fit: 0.22x+210us)",
		pts,
		"paper: ~3x faster, small variability, still linear"), nil
}

// Fig6FittedSlopes overlays the two sweeps and compares fitted lines, the
// paper's headline quantitative claim (slope ratio ~3.2x).
func Fig6FittedSlopes(o Options) (*Table, error) {
	van, err := measureScaling(o, "fig6-vanilla", func(nodes int, seed int64) cluster.Config {
		return cluster.Vanilla(nodes, 16, seed)
	})
	if err != nil {
		return nil, err
	}
	proto, err := measureScaling(o, "fig6-prototype", func(nodes int, seed int64) cluster.Config {
		return cluster.Prototype(nodes, 16, seed)
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "FIG6",
		Title: "Fitted lines: vanilla vs prototype",
		Cols: []Column{
			{Name: "slope", Unit: "us/proc"}, {Name: "intercept", Unit: "us"}, {Name: "r2"},
		},
	}
	fit := func(pts []pointStats) (stats.Fit, error) {
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, p := range pts {
			xs[i] = float64(p.procs)
			ys[i] = p.mean
		}
		return stats.LinearFit(xs, ys)
	}
	fv, err := fit(van)
	if err != nil {
		return nil, err
	}
	fp, err := fit(proto)
	if err != nil {
		return nil, err
	}
	t.AddRow("vanilla", fv.Slope, fv.Intercept, fv.R2)
	t.AddRow("prototype", fp.Slope, fp.Intercept, fp.R2)
	if fp.Slope > 0 {
		t.AddNote("slope ratio vanilla/prototype = %.2fx (paper: 0.70/0.22 = 3.2x)", fv.Slope/fp.Slope)
	}
	t.AddNote("paper fits: y_vanilla = 0.70x + 166, y_prototype = 0.22x + 210")
	return t, nil
}

// Fig4OutlierProfile reproduces Figure 4's forensics: the sorted per-call
// Allreduce times of one large vanilla run, plus trace attribution of the
// slowest call (the paper caught a 15-minute administrative cron job
// consuming >600ms).
func Fig4OutlierProfile(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := o.MaxNodes
	if nodes > 59 {
		nodes = 59 // the paper's 944-processor run
	}
	calls := o.Calls
	if calls < 448 {
		calls = 448 // the paper plots 448 sampled times
	}
	cfg := cluster.Vanilla(nodes, 16, o.BaseSeed)
	// Bias the cron job so that roughly one firing lands somewhere in the
	// cluster during the measured window — the paper's captured sample had
	// exactly one, and it produced the flagship >600ms outlier. (At the
	// paper's true 15-minute period, most short windows would miss it.)
	cronPeriod := sim.Time(nodes) * 8 * sim.Second
	if cronPeriod > 15*sim.Minute {
		cronPeriod = 15 * sim.Minute
	}
	cfg.Noise.Cron.Period = cronPeriod
	c, err := cluster.Build(cfg)
	if err != nil {
		return nil, err
	}
	buf := trace.NewBuffer(8 << 20)
	buf.SkipTicks(true)
	buf.FilterNode(0)
	c.Nodes[0].SetSink(buf)

	res, err := workload.RunAggregate(c, workload.AggregateSpec{Loops: 1, CallsPerLoop: calls, Compute: o.ComputeGrain}, 30*sim.Minute)
	if err != nil {
		return nil, err
	}
	if !res.Completed {
		return nil, fmt.Errorf("experiment fig4: run did not complete")
	}

	sorted := stats.SortedCopy(res.TimesUS)
	sum := stats.Summarize(res.TimesUS)
	t := &Table{
		ID:    "FIG4",
		Title: fmt.Sprintf("Sorted Allreduce times, %d procs, vanilla kernel (%d calls)", c.Procs(), calls),
		Cols:  []Column{{Name: "percentile"}, {Name: "time", Unit: "us"}},
	}
	for _, p := range []float64{0, 10, 25, 50, 75, 90, 95, 99, 100} {
		t.AddRow("", p, stats.Percentile(sorted, p))
	}
	slowestShare := sorted[len(sorted)-1] / sum.Sum
	t.AddNote("mean=%.0fus median=%.0fus fastest=%.0fus slowest=%.0fus", sum.Mean, sum.Median, sum.Min, sum.Max)
	t.AddNote("slowest call carries %.1f%% of total time (paper: the slowest accounted for more than half)", slowestShare*100)
	t.AddNote("paper sample: fastest ~ model+10%%, median +25%%, mean 2240us at 944 procs")

	// Attribute the slowest call's interval on node 0.
	slowIdx, slowVal := 0, 0.0
	for i, v := range res.TimesUS {
		if v > slowVal {
			slowVal = v
			slowIdx = i
		}
	}
	if slowIdx < len(res.Starts) {
		start := res.Starts[slowIdx]
		end := start + sim.Time(slowVal*float64(sim.Microsecond))
		att := trace.Attribute(buf.Records(), 0, start, end, "rank")
		top := att.TopOffenders(5)
		if len(top) > 0 {
			t.AddNote("slowest call attribution (node 0): %s", strings.Join(top, ", "))
		}
		if att.LongestName != "" {
			t.AddNote("longest interfering burst: %s for %v (paper: cron components >600ms)", att.LongestName, att.LongestBurst)
		}
	}
	return t, nil
}
