package experiment

import (
	"fmt"

	"coschedsim/internal/cluster"
	"coschedsim/internal/cosched"
	"coschedsim/internal/sim"
	"coschedsim/internal/workload"
)

// ablationNodes picks a fixed mid-size cluster for design-choice sweeps.
func ablationNodes(o Options) int {
	n := o.MaxNodes
	if n > 16 {
		n = 16
	}
	if n < 2 {
		n = 2
	}
	return n
}

// variant is one configuration of a design-choice sweep: a preset
// (cluster.Vanilla or cluster.Prototype) with a tweak applied.
type variant struct {
	tag    string
	params []float64 // the row's parameter cells, one per variantSweep.params column
	preset func(nodes, tasksPerNode int, seed int64) cluster.Config
	tweak  func(*cluster.Config)
}

// variantSweep is a design-choice ablation on the ablation cluster: one
// table row per variant holding its parameter cells (rows of a sweep
// without parameter columns are tagged with the variant instead) and the
// Allreduce mean and within-run stddev averaged over seeds.
type variantSweep struct {
	name     string
	id       string
	title    string // formatted with the processor count
	params   []Column
	variants []variant
	note     string
}

func (a variantSweep) run(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	var runs []runDesc
	for _, v := range a.variants {
		runs = o.seeded(runs, a.name+"/"+v.tag, nodes, o.BaseSeed, func(seed int64) cluster.Config {
			cfg := v.preset(nodes, 16, seed)
			if v.tweak != nil {
				v.tweak(&cfg)
			}
			return cfg
		})
	}
	pts, err := runAggregate(o, runs, o.Seeds)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: a.id, Title: fmt.Sprintf(a.title, nodes*16),
		Cols: append(append([]Column{}, a.params...), Column{Name: "mean", Unit: "us"}, Column{Name: "stddev", Unit: "us"})}
	for i, v := range a.variants {
		tag := v.tag
		if len(a.params) > 0 {
			tag = ""
		}
		t.AddRow(tag, append(append(row{}, v.params...), pts[i].mean, pts[i].stddev)...)
	}
	t.Notes = append(t.Notes, a.note)
	return t, nil
}

// ablBigTick sweeps the big-tick multiplier on the otherwise-complete
// prototype configuration (the paper generally chose 25).
var ablBigTick = variantSweep{
	name:   "abl-bigtick",
	id:     "ABL1",
	title:  "Big-tick multiplier sweep, %d procs, prototype+cosched",
	params: []Column{{Name: "bigtick"}, {Name: "tick", Unit: "ms"}},
	variants: func() []variant {
		var vs []variant
		for _, bt := range []int{1, 5, 10, 25, 50, 100} {
			vs = append(vs, variant{fmt.Sprintf("bt=%d", bt), []float64{float64(bt), float64(bt) * 10},
				cluster.Prototype, func(c *cluster.Config) { c.Kernel.BigTick = bt }})
		}
		return vs
	}(),
	note: "paper: 'we generally chose a big tick constant value of 25' (250ms)",
}

// ablDuty sweeps the co-scheduler window geometry (the paper: a period of
// about 5-10s at 90-95% duty 'seems to work pretty well').
var ablDuty = variantSweep{
	name:   "abl-duty",
	id:     "ABL2",
	title:  "Co-scheduler period x duty sweep, %d procs",
	params: []Column{{Name: "period", Unit: "s"}, {Name: "duty", Unit: "%"}},
	variants: func() []variant {
		var vs []variant
		for _, period := range []sim.Time{1 * sim.Second, 5 * sim.Second, 10 * sim.Second} {
			for _, duty := range []float64{0.5, 0.8, 0.9, 0.95} {
				vs = append(vs, variant{fmt.Sprintf("period=%v duty=%.0f%%", period, duty*100),
					[]float64{period.Seconds(), duty * 100}, cluster.Prototype, func(c *cluster.Config) {
						params := cosched.DefaultParams()
						params.Period = period
						params.Duty = duty
						c.Cosched = &params
					}})
			}
		}
		return vs
	}(),
	note: "paper: ~10s period at 90-95% duty works well; 100% duty can require a reboot (refused by Params.Validate)",
}

// ipi sets the three forced-preemption features of the IPI ablation.
func ipi(rt, reverse, multi bool) func(*cluster.Config) {
	return func(c *cluster.Config) {
		c.Kernel.RealTimeIPI = rt
		c.Kernel.ReversePreemptIPI = reverse
		c.Kernel.MultiIPI = multi
	}
}

// ablIPI isolates the forced-preemption features: lazy preemption, the
// pre-existing real-time IPI, and the paper's two improvements (reverse
// preemption, multiple in-flight IPIs).
var ablIPI = variantSweep{
	name:  "abl-ipi",
	id:    "ABL3",
	title: "Forced-preemption feature matrix, %d procs, prototype+cosched",
	variants: []variant{
		{"lazy (tick-notice only)", nil, cluster.Prototype, ipi(false, false, false)},
		{"rt-ipi", nil, cluster.Prototype, ipi(true, false, false)},
		{"rt-ipi+reverse", nil, cluster.Prototype, ipi(true, true, false)},
		{"rt-ipi+reverse+multi", nil, cluster.Prototype, ipi(true, true, true)},
	},
	note: "paper: rapid pre-emptions and reverse pre-emptions across processors are 'a major building block' of the approach",
}

// ablClock sweeps the cluster clock error: the switch's global clock versus
// local clocks skewed up to several hundred ms, which misaligns the
// co-scheduler windows across nodes.
var ablClock = variantSweep{
	name:   "abl-clock",
	id:     "ABL4",
	title:  "Clock synchronization error sweep, %d procs, prototype+cosched",
	params: []Column{{Name: "skew", Unit: "ms"}},
	variants: func() []variant {
		var vs []variant
		for _, skew := range []sim.Time{0, 100 * sim.Millisecond, 500 * sim.Millisecond, 1500 * sim.Millisecond, 3 * sim.Second} {
			vs = append(vs, variant{fmt.Sprintf("skew=%v", skew), []float64{skew.Millis()},
				cluster.Prototype, func(c *cluster.Config) {
					if skew > 0 {
						c.SyncClocks = false
						c.ClockSkew = skew
					}
				}})
		}
		return vs
	}(),
	note: "paper: the switch clock lets all favored windows align cluster-wide with no inter-node communication",
}

// ticks sets the tick alignment and big-tick multiplier of the tick ablation.
func ticks(aligned bool, bigTick int) func(*cluster.Config) {
	return func(c *cluster.Config) {
		c.Kernel.AlignTicks = aligned
		c.Kernel.BigTick = bigTick
	}
}

// ablTicks compares AIX's staggered tick design against the prototype's
// simultaneous ticks.
var ablTicks = variantSweep{
	name:  "abl-ticks",
	id:    "ABL5",
	title: "Staggered vs aligned tick interrupts, %d procs",
	variants: []variant{
		{"staggered-10ms", nil, cluster.Prototype, ticks(false, 1)},
		{"aligned-10ms", nil, cluster.Prototype, ticks(true, 1)},
		{"staggered-250ms", nil, cluster.Prototype, ticks(false, 25)},
		{"aligned-250ms", nil, cluster.Prototype, ticks(true, 25)},
	},
	note: "paper §3.2.1: simultaneous ticks trade a little lock efficiency for overlap of the tick handling",
}

// hwColl switches the Allreduce to the switch-offloaded collective.
func hwColl(c *cluster.Config) {
	c.MPI.HardwareCollectives = true
	c.MPI.HWCollectiveLatency = 25 * sim.Microsecond
}

// ablHWColl evaluates the paper's second §7 proposal: switch-offloaded
// ("hardware assisted") Allreduce, alone and combined with the co-scheduled
// prototype. Offload removes the 2*log2(N) software scheduling points per
// call, so it attacks the same noise-sensitivity from the other side; the
// paper suggests the techniques are complementary.
var ablHWColl = variantSweep{
	name:  "abl-hwcoll",
	id:    "ABL7",
	title: "Hardware-assisted collectives (paper §7 future work), %d procs",
	variants: []variant{
		{"vanilla-swtree", nil, cluster.Vanilla, nil},
		{"vanilla-hwcoll", nil, cluster.Vanilla, hwColl},
		{"prototype-swtree", nil, cluster.Prototype, nil},
		{"prototype-hwcoll", nil, cluster.Prototype, hwColl},
	},
	note: "paper §7: combining parallel-aware scheduling with hardware assisted collectives is named as a promising direction",
}

// ablGang operationalizes the paper's §6 argument against related-work
// category 1: a gang scheduler time-slices whole jobs on coarse quanta (NQS
// default: 10 minutes) but leaves the job at ordinary user priority within
// its quantum, so fine-grain OS interference is untouched. Compared against
// vanilla (no scheduler) and the paper's dedicated-job co-scheduler.
var ablGang = variantSweep{
	name:  "abl-gang",
	id:    "ABL8",
	title: "Gang scheduler vs dedicated-job co-scheduler, %d procs",
	variants: []variant{
		{"vanilla", nil, cluster.Vanilla, nil},
		{"gang-scheduler", nil, cluster.Vanilla, func(c *cluster.Config) {
			params := cosched.GangParams()
			c.Cosched = &params
			c.SyncClocks = true
		}},
		{"dedicated-cosched", nil, cluster.Prototype, nil},
	},
	note: "paper §6: 'Due to their time quanta, the Gang-schedulers of category 1 are not able to address context switch interference'",
}

// ablFairShare operationalizes the paper's distinction from related-work
// category 3: fair-share scheduling (AIX usage decay) optimizes
// machine-wide fairness, not the parallel job's turnaround. The benchmark's
// tasks degrade with their own CPU consumption and end up even easier for
// daemons to interrupt — decay does not address fine-grain collective
// interference.
var ablFairShare = variantSweep{
	name:  "abl-fairshare",
	id:    "ABL9",
	title: "Fair-share (usage decay) vs static priorities, %d procs, vanilla kernel",
	variants: []variant{
		{"static-priorities", nil, cluster.Vanilla, func(c *cluster.Config) { c.Kernel.UsageDecay = false }},
		{"fair-share-decay", nil, cluster.Vanilla, func(c *cluster.Config) { c.Kernel.UsageDecay = true }},
	},
	note: "paper §6: fair-share co-schedulers 'seek to optimize the overall efficiency of the machine' — a different goal from dedicated-job turnaround; decay leaves collective interference in place",
}

// AblationFineGrainHints evaluates the paper's §7 future-work proposal: a
// BSP application that announces its synchronized reduction phases to the
// co-scheduler, which then defers the favored-window flip (within a budget)
// so collectives are not deprioritized mid-flight. Compared against the
// identical run without hints.
func AblationFineGrainHints(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL6",
		Title: fmt.Sprintf("Fine-grain region hints (paper §7 future work), %d procs", nodes*16),
		Cols: []Column{
			{Name: "steps/s"}, {Name: "coll-share", Unit: "%"}, {Name: "extension", Unit: "ms"},
		},
	}
	scens := []struct {
		tag   string
		hints bool
	}{
		{"no-hints", false},
		{"hints", true},
	}
	// One step per call, but at least 256 steps (5.1s of compute, about five
	// co-scheduler periods). Over fewer, the favored-window flips can miss
	// every collective, and then the hints defer nothing: at 128 steps on 4
	// nodes, and at 200 on 2 or 16, both rows read the same.
	steps := max(o.Calls, 256)
	var runs []runDesc
	for _, sc := range scens {
		cfg := cluster.Prototype(nodes, 16, o.BaseSeed)
		params := cosched.HintAwareParams()
		params.Period = sim.Second
		params.Duty = 0.80
		params.MaxFineGrainExtension = 100 * sim.Millisecond
		if !sc.hints {
			params.MaxFineGrainExtension = 0
		}
		cfg.Cosched = &params
		runs = append(runs, runDesc{Label: "abl-hints/" + sc.tag, Nodes: nodes, Seed: o.BaseSeed, Cfg: cfg})
	}
	outs, err := runAll(o, runs, nanRow(3), nil, func(i int, c *cluster.Cluster) (row, error) {
		spec := workload.BSPSpec{
			Steps:             steps,
			ComputeMean:       20 * sim.Millisecond,
			ComputeJitter:     2 * sim.Millisecond,
			AllreducesPerStep: 4,
			FineGrainHints:    scens[i].hints,
		}
		res, err := workload.RunBSP(c, spec, 30*sim.Minute)
		if err != nil {
			return nil, err
		}
		if !res.Completed {
			return nil, fmt.Errorf("experiment abl-hints: %s run did not complete", scens[i].tag)
		}
		var ext sim.Time
		for _, n := range c.Nodes {
			ext += c.Sched.Extensions(n)
		}
		return row{float64(spec.Steps) / res.Wall.Seconds(), res.CollectiveShare * 100, ext.Millis()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, sc := range scens {
		t.AddRow(sc.tag, outs[i]...)
	}
	t.AddNote("paper §7: 'providing a mechanism for parallel applications to establish when they are entering and exiting fine-grain regions may be beneficial'")
	return t, nil
}

// AblationNetworkJitter sweeps switch-transit jitter on the vanilla and
// prototype kernels. The paper treats the SP switch as essentially
// deterministic and pins all variability on the OS; this ablation checks how
// much fabric-side variance it would take to drown the co-scheduling win.
// Jitter draws are counter-keyed per (src, dst, message), so this sweep runs
// sharded under ShardWorkers like every other ablation.
func AblationNetworkJitter(o Options) (*Table, error) {
	if err := o.validate(); err != nil {
		return nil, err
	}
	nodes := ablationNodes(o)
	t := &Table{
		ID:    "ABL10",
		Title: fmt.Sprintf("Network-jitter sweep, %d procs, vanilla vs prototype", nodes*16),
		Cols: []Column{
			{Name: "jitter", Unit: "us"}, {Name: "van-mean", Unit: "us"}, {Name: "van-sd", Unit: "us"},
			{Name: "proto-mean", Unit: "us"}, {Name: "proto-sd", Unit: "us"},
		},
	}
	jitters := []sim.Time{0, sim.Microsecond, 5 * sim.Microsecond, 20 * sim.Microsecond}
	var runs []runDesc
	for _, j := range jitters {
		for _, p := range []struct {
			tag    string
			preset func(nodes, tasksPerNode int, seed int64) cluster.Config
		}{{"vanilla", cluster.Vanilla}, {"prototype", cluster.Prototype}} {
			runs = o.seeded(runs, fmt.Sprintf("abl-jitter/%s j=%v", p.tag, j), nodes, o.BaseSeed, func(seed int64) cluster.Config {
				cfg := p.preset(nodes, 16, seed)
				cfg.Network.Jitter = j
				return cfg
			})
		}
	}
	pts, err := runAggregate(o, runs, o.Seeds)
	if err != nil {
		return nil, err
	}
	for i, j := range jitters {
		van, proto := pts[2*i], pts[2*i+1]
		t.AddRow("", j.Micros(), van.mean, van.stddev, proto.mean, proto.stddev)
	}
	t.AddNote("paper: the SP switch itself is treated as deterministic; OS noise, not fabric jitter, drives Allreduce variability")
	return t, nil
}
