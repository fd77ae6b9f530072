package main

import (
	"errors"
	"testing"

	"coschedsim"
	"coschedsim/internal/kernel"
	"coschedsim/internal/mpi"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

// point is one engine core at one intra-run worker count. A serial point's
// row keeps workers 1 as its key.
type point struct {
	core    string // "heap", "wheel" or "sharded"
	workers int
}

// intraRun is the worker count the point's body runs with: 0, the serial
// engine, on heap and wheel points.
func (p point) intraRun() int {
	if p.core == "sharded" {
		return p.workers
	}
	return 0
}

// The point sets scenarios are recorded at. Heap and wheel rows isolate the
// serial queue; wheel and sharded rows show what intra-run parallelism buys.
var (
	wheelOnly = []point{{"wheel", 1}}
	serial    = []point{{"heap", 1}, {"wheel", 1}}
	scaling   = []point{{"wheel", 1}, {"sharded", 2}, {"sharded", 4}}
)

// body runs b.N iterations of a scenario with the given intra-run worker
// count, 0 for the serial engine. It returns the events they fired, and the
// window statistics of the first iteration when it ran on the sharded core.
// A body that fails calls b.Fatal, which leaves its events at zero.
type body func(b *testing.B, workers int) (events uint64, win *sim.GroupStats)

// scenario is one benchmark body and the points it is recorded at. Cluster
// scenarios build and run a whole simulation per iteration, so their rows
// also carry the wall time of one run.
type scenario struct {
	name    string
	detail  string
	cluster bool
	points  []point
	run     body
}

func scenarios() []scenario {
	return []scenario{
		{
			name: "cluster-8",
			detail: "128 Allreduce calls on an 8-node x 16-CPU vanilla cluster with its " +
				"noise and co-scheduling machinery, built and run per iteration",
			cluster: true,
			points:  []point{{"heap", 1}, {"wheel", 1}, {"sharded", 2}, {"sharded", 4}},
			run:     clusterBody(8, 128, 0, false),
		},
		{
			name:    "cluster-59",
			detail:  "64 Allreduce calls at the paper's full scale: 59 nodes x 16 CPUs = 944 CPUs",
			cluster: true,
			points:  scaling,
			run:     clusterBody(59, 64, 0, false),
		},
		{
			name: "jitter-8",
			detail: "cluster-8 with 2us switch-transit jitter: every message draws from a " +
				"counter-keyed per-(src,dst,msg) stream",
			cluster: true,
			points:  scaling,
			run:     clusterBody(8, 128, 2*sim.Microsecond, false),
		},
		{
			name: "ale3d-8",
			detail: "the ALE3D proxy (30 timesteps, GPFS restart dumps every 10) on 8 nodes " +
				"x 16 CPUs; halo exchanges make it the cross-shard-heavy case",
			cluster: true,
			points:  scaling,
			run:     clusterBody(8, 0, 0, true),
		},
		{
			name: "cluster-256",
			detail: "4 Allreduce calls on a 256-node x 16-CPU vanilla cluster (4096 CPUs): " +
				"construction dominates, so it weighs per-rank and per-node state",
			cluster: true,
			points:  wheelOnly,
			run:     clusterBody(256, 4, 0, false),
		},
		{
			name: "node-tick-heavy",
			detail: "2 simulated seconds of one 16-CPU node: 24 preempting CPU hogs, 16 " +
				"sleep/wake cyclers, 10ms ticks, usage-decay sweep",
			points: serial,
			run:    nodeTickHeavy,
		},
		{
			name:   "schedule-fire",
			detail: "schedule one event 1-97ns ahead and Step it: the bare queue round trip",
			points: serial,
			run:    scheduleFire,
		},
		{
			name: "churn-1k",
			detail: "schedule, reschedule and cancel one event per iteration over 1,024 " +
				"standing events, stepping every 8th; its events are canceled, not " +
				"fired, so it counts events scheduled",
			points: serial,
			run:    churn1k,
		},
		{
			name: "mpi-allreduce-steady",
			detail: "back-to-back recursive-doubling Allreduces on 16 ranks over 4 quiet " +
				"nodes, construction untimed",
			points: wheelOnly,
			run:    mpiAllreduceSteady,
		},
		{
			name: "sharded-window-loop",
			detail: "4 shards, each a self-rescheduling chain with a cross-shard send every " +
				"4th firing, run for b.N window lengths",
			points: []point{{"sharded", 2}},
			run:    shardedWindowLoop,
		},
	}
}

// clusterBody builds and runs one cluster per iteration, seeds 1..b.N. The
// build is timed with the run: at large node counts construction is a real
// share of a sweep's cost. calls is ignored by the ALE3D proxy.
func clusterBody(nodes, calls int, jitter sim.Time, ale3d bool) body {
	return func(b *testing.B, workers int) (uint64, *sim.GroupStats) {
		var events uint64
		var win *sim.GroupStats
		for i := 0; i < b.N; i++ {
			var cfg coschedsim.Config
			if ale3d {
				cfg = coschedsim.ALE3DVanilla(nodes, 16, int64(i+1))
			} else {
				cfg = coschedsim.Vanilla(nodes, 16, int64(i+1))
			}
			cfg.Network.Jitter = jitter
			cfg.IntraRunWorkers = workers
			c := coschedsim.MustBuild(cfg)
			if err := runCluster(c, calls, ale3d); err != nil {
				b.Fatal(err)
			}
			if c.Group == nil {
				events += c.Eng.Fired()
				continue
			}
			events += c.Group.Fired()
			if i == 0 {
				gs := c.Group.Stats()
				win = &gs
			}
		}
		return events, win
	}
}

// runCluster runs the workload of a cluster scenario to completion.
func runCluster(c *coschedsim.Cluster, calls int, ale3d bool) error {
	if ale3d {
		spec := coschedsim.DefaultALE3DSpec()
		spec.Timesteps = 30
		spec.CheckpointEvery = 10
		res, err := coschedsim.RunALE3D(c, spec, coschedsim.Hour)
		if err == nil && !res.Completed {
			err = errors.New("ale3d did not complete")
		}
		return err
	}
	res, err := coschedsim.RunAggregate(c, coschedsim.AggregateSpec{Loops: 1, CallsPerLoop: calls}, coschedsim.Hour)
	if err == nil && !res.Completed {
		err = errors.New("aggregate did not complete")
	}
	return err
}

// nodeTickHeavy stresses the per-node periodic machinery that dominates long
// simulations: every tick on a busy CPU reschedules the running thread's
// burst-end event, the one-tick timeslice round-robins the equal-priority
// hogs, and the cyclers sleep under one tick, so every wakeup lands on the
// quantized timer grid.
func nodeTickHeavy(b *testing.B, _ int) (uint64, *sim.GroupStats) {
	var fired uint64
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(i + 1))
		opts := kernel.VanillaOptions(16)
		opts.UsageDecay = true
		n := kernel.MustNode(eng.NewHandle(0), opts)
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
	return fired, nil
}

// scheduleFire schedules and fires one event per iteration from the
// harness loop. BenchmarkEngineScheduleFire (internal/sim) times the same
// round trip as a self-rescheduling chain instead.
func scheduleFire(b *testing.B, _ int) (uint64, *sim.GroupStats) {
	e := sim.NewEngine(1)
	h := e.NewHandle(0)
	fn := func() {}
	for i := 0; i < b.N; i++ {
		h.After(sim.Time(i%97)+1, fn)
		e.Step()
	}
	return e.Fired(), nil
}

// churn1k is the engine's churn pattern over a standing population of
// far-future events: schedule, reschedule nearer, cancel.
func churn1k(b *testing.B, _ int) (uint64, *sim.GroupStats) {
	e := sim.NewEngine(1)
	h := e.NewHandle(0)
	fn := func() {}
	for i := 0; i < 1024; i++ {
		h.After(sim.Time(i+1)*sim.Millisecond, fn)
	}
	standing := e.Scheduled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.After(sim.Time(500+i%1000), fn)
		h.Reschedule(ev, e.Now()+sim.Time(200+i%100))
		e.Cancel(ev)
		if i%8 == 0 && e.Pending() > 0 {
			e.Step()
		}
	}
	return e.Scheduled() - standing, nil
}

// mpiAllreduceSteady times back-to-back Allreduces with construction before
// the timer reset, so the row is the steady-state cost of matching,
// collective state, delivery records and event scheduling, with zero
// allocations as the target.
func mpiAllreduceSteady(b *testing.B, _ int) (uint64, *sim.GroupStats) {
	const size, ncpu = 16, 4
	eng := sim.NewEngine(1)
	cfg := mpi.DefaultConfig()
	cfg.ProgressEnabled = false
	opts := kernel.VanillaOptions(ncpu)
	nodes := make([]*kernel.Node, size/ncpu)
	handles := make([]*sim.Handle, len(nodes))
	for i := range nodes {
		handles[i] = eng.NewHandle(i)
		nodes[i] = kernel.MustNode(handles[i], opts)
		nodes[i].Start()
	}
	fabric := network.MustFabric(handles, network.DefaultConfig())
	job := mpi.MustJob(fabric, cfg, nil)
	for i := 0; i < size; i++ {
		job.AddRank(nodes[i/ncpu], i%ncpu)
	}
	job.OnComplete(eng.Stop)
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
	return eng.Fired(), nil
}

// shardedWindowLoop is the steady-state cost of window dispatch, outbox
// staging and the canonical merge, which all reuse their storage, so its
// allocations per event stay flat as b.N grows.
func shardedWindowLoop(b *testing.B, workers int) (uint64, *sim.GroupStats) {
	const shards = 4
	lookahead := 24 * sim.Microsecond
	g := sim.NewShardGroup(1, shards, workers, lookahead)
	for i := 0; i < shards; i++ {
		h := g.Shard(i).NewHandle(i)
		n := 0
		var chain func()
		chain = func() {
			n++
			if n%4 == 0 {
				dst := g.Shard((i + 1) % shards)
				h.ScheduleOn(dst, h.Now()+lookahead, func() {})
			}
			h.At(h.Now()+10*sim.Microsecond, chain)
		}
		h.At(sim.Time(i+1)*sim.Microsecond, chain)
	}
	b.ResetTimer()
	g.Run(sim.Time(b.N) * lookahead)
	gs := g.Stats()
	return g.Fired(), &gs
}
