// Package cluster assembles the substrates into runnable systems: nodes with
// a kernel configuration, the switch fabric, per-node clocks (synchronized
// switch clock or skewed local clocks), OS noise, the optional co-scheduler,
// the optional GPFS client, and an MPI job placed one task per processor.
//
// The preset constructors correspond to the paper's measured configurations:
//
//	Vanilla(nodes, 16)    — standard AIX kernel, 16 tasks/node, no co-scheduler
//	Vanilla(nodes, 15)    — the common workaround: one CPU left for daemons
//	Prototype(nodes, 16)  — big-tick/IPI kernel + co-scheduler + quiet MPI
//	                        timer threads (MP_POLLING_INTERVAL=400s)
package cluster

import (
	"fmt"
	"time"

	"coschedsim/internal/cosched"
	"coschedsim/internal/fault"
	"coschedsim/internal/gpfs"
	"coschedsim/internal/kernel"
	"coschedsim/internal/mpi"
	"coschedsim/internal/network"
	"coschedsim/internal/noise"
	"coschedsim/internal/sim"
)

// Config fully describes a cluster scenario.
type Config struct {
	Nodes        int
	CPUsPerNode  int
	TasksPerNode int // ranks bound to CPUs 0..TasksPerNode-1 of every node

	Kernel  kernel.Options // per-node policy (Phase is overridden per node)
	Noise   noise.Config
	Network network.Config
	MPI     mpi.Config

	// Cosched enables the co-scheduler with these parameters; nil runs
	// without one.
	Cosched *cosched.Params

	// SyncClocks selects the switch's global clock; when false each node
	// gets a local clock with a deterministic pseudo-random offset in
	// [0, ClockSkew], which also shifts its tick grid.
	SyncClocks bool
	ClockSkew  sim.Time

	// GPFS attaches an I/O service to every node; nil disables it. When
	// enabled, the periodic "mmfsd" entry in Noise is replaced by the live
	// service daemon.
	GPFS *gpfs.Config

	// IntraRunWorkers decides sharding: 0 runs this cluster on one serial
	// engine, and n >= 1 runs it on the sharded parallel engine core with
	// n worker goroutines. Nodes are mapped onto event shards in groups of
	// consecutive nodes (about four shards per worker, see autoShardGroup),
	// executed window by window with the fabric latency as conservative
	// lookahead. The value is a worker budget for this single run; the
	// experiment harness divides the sweep-level budget by it so sweep x
	// intra-run workers never exceeds the -procs total. Configurations the
	// sharded core cannot execute (hardware collectives, single node, zero
	// fabric latency) silently fall back to the serial engine. Sharded
	// output does not depend on the worker count or the group size, and it
	// matches the serial engine's. Jitter and workload imbalance draw from
	// counter-based streams (pure functions of identity), so they are
	// shard-safe.
	IntraRunWorkers int

	// Faults enables deterministic fault injection: crashes, stragglers,
	// link drops, partitions and daemon stalls, all drawn from counter-based
	// streams keyed by stable identities (so fault-injected runs are
	// byte-identical across engine cores and worker counts). nil or a
	// disabled config injects nothing.
	Faults *fault.Config

	Seed int64
}

// Validate reports an error for inconsistent configurations.
func (c Config) Validate() error {
	switch {
	case c.Nodes <= 0:
		return fmt.Errorf("cluster: Nodes must be positive")
	case c.CPUsPerNode <= 0:
		return fmt.Errorf("cluster: CPUsPerNode must be positive")
	case c.TasksPerNode <= 0 || c.TasksPerNode > c.CPUsPerNode:
		return fmt.Errorf("cluster: TasksPerNode %d must be in 1..%d", c.TasksPerNode, c.CPUsPerNode)
	case !c.SyncClocks && c.ClockSkew < 0:
		return fmt.Errorf("cluster: negative clock skew")
	case c.Nodes > sim.MaxNodes:
		return fmt.Errorf("cluster: Nodes %d exceeds the %d node ids an event key holds", c.Nodes, sim.MaxNodes)
	case c.IntraRunWorkers < 0:
		return fmt.Errorf("cluster: IntraRunWorkers %d must be >= 0 (0 = serial engine)", c.IntraRunWorkers)
	}
	if c.Kernel.NumCPUs != c.CPUsPerNode {
		return fmt.Errorf("cluster: Kernel.NumCPUs %d != CPUsPerNode %d", c.Kernel.NumCPUs, c.CPUsPerNode)
	}
	if err := c.Kernel.Validate(); err != nil {
		return err
	}
	if err := c.Network.Validate(); err != nil {
		return err
	}
	if err := c.MPI.Validate(); err != nil {
		return err
	}
	if c.Cosched != nil {
		if err := c.Cosched.Validate(); err != nil {
			return err
		}
	}
	if c.GPFS != nil {
		if err := c.GPFS.Validate(); err != nil {
			return err
		}
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			return err
		}
		if c.Faults.Enabled() {
			if c.MPI.HardwareCollectives {
				return fmt.Errorf("cluster: fault injection is not supported with hardware collectives")
			}
			if c.Faults.DetectLatency < c.Network.Lookahead() {
				// Abort broadcasts are scheduled DetectLatency ahead; under
				// the sharded core they must clear the conservative window.
				return fmt.Errorf("cluster: fault DetectLatency %v below fabric lookahead %v",
					c.Faults.DetectLatency, c.Network.Lookahead())
			}
		}
	}
	return nil
}

// Cluster is a built, ready-to-launch system.
type Cluster struct {
	Config Config
	Eng    *sim.Engine
	// Group is the shard coordinator when the cluster was built on the
	// sharded core (nil on the serial engine). Eng is then shard 0, which
	// also carries the cluster-scoped random streams.
	Group  *sim.ShardGroup
	Nodes  []*kernel.Node
	Clocks []network.Clock
	Fabric *network.Fabric
	Noise  []*noise.Set
	Sched  *cosched.Scheduler
	IO     []*gpfs.Service
	Job    *mpi.Job
	// Faults is the armed injector (nil when fault injection is off).
	Faults *fault.Injector
	// Supervisors restart stalled daemons, one per node, only when stall
	// faults are configured.
	Supervisors []*kernel.Supervisor
}

// shardable reports whether the sharded core can execute the
// configuration. Hardware collectives funnel every rank through one
// combine accumulator in arrival order — inherently serial. A single node
// has nothing to shard, and a zero fabric latency gives no lookahead.
// Network jitter and workload imbalance draw from counter-based streams
// (pure functions of identity, not execution order) and so no longer gate
// sharding.
func shardable(cfg Config) bool {
	return cfg.Nodes > 1 &&
		cfg.Network.Lookahead() > 0 &&
		!cfg.MPI.HardwareCollectives
}

// autoShardGroup picks nodes-per-shard so that roughly four shards exist
// per worker: enough width to balance windows across the pool without
// paying per-shard dispatch overhead for dozens of mostly-idle shards at
// high node counts.
func autoShardGroup(nodes, workers int) int {
	g := nodes / (4 * workers)
	if g < 1 {
		g = 1
	}
	return g
}

// Build constructs the cluster. The job is created with one rank per task
// slot but not launched; call Launch (or Job.Launch) with the program.
func Build(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{Config: cfg}
	// handles[i] is node i's scheduling handle, on the one serial engine or
	// on node i's shard. Everything node i owns schedules through it, so
	// serial and sharded runs key every event alike (see sim.Engine).
	handles := make([]*sim.Handle, cfg.Nodes)
	if cfg.IntraRunWorkers > 0 && shardable(cfg) {
		// This always leaves at least two shards: shardable needs two
		// nodes, and a group of more than one node is at most a quarter of
		// them.
		group := autoShardGroup(cfg.Nodes, cfg.IntraRunWorkers)
		c.Group = sim.NewShardGroup(cfg.Seed, (cfg.Nodes+group-1)/group, cfg.IntraRunWorkers, cfg.Network.Lookahead())
		for i := range handles {
			handles[i] = c.Group.Shard(i / group).NewHandle(i)
		}
	} else {
		eng := sim.NewEngine(cfg.Seed)
		for i := range handles {
			handles[i] = eng.NewHandle(i)
		}
	}
	c.Eng = handles[0].Engine()
	var err error
	c.Fabric, err = network.NewFabric(handles, cfg.Network)
	if err != nil {
		return nil, err
	}
	if cfg.Cosched != nil {
		c.Sched, err = cosched.New(*cfg.Cosched)
		if err != nil {
			return nil, err
		}
	}

	noiseCfg := cfg.Noise
	if cfg.GPFS != nil {
		noiseCfg.Daemons = dropDaemon(noiseCfg.Daemons, "mmfsd")
	}

	// One kernel.Options record serves every node: the only per-node policy
	// value is the clock phase, which kernel.NewNodeShared takes separately.
	// Likewise the synchronized switch clock is stateless per engine, so one
	// instance per shard serves all its nodes. At 1024 nodes this removes a
	// thousand copies of each.
	sharedOpts := cfg.Kernel
	sharedOpts.Phase = 0
	switchClocks := map[*sim.Engine]network.Clock{}

	for i := 0; i < cfg.Nodes; i++ {
		// Everything owned by node i — kernel, clock, noise, GPFS — lives
		// on node i's engine, as its fabric traffic does.
		eng := handles[i].Engine()
		var clock network.Clock
		var phase sim.Time
		if cfg.SyncClocks {
			clock = switchClocks[eng]
			if clock == nil {
				clock = network.NewSwitchClock(eng)
				switchClocks[eng] = clock
			}
		} else {
			skew := cfg.ClockSkew
			if skew <= 0 {
				skew = 500 * sim.Millisecond
			}
			// Per-node counter stream: node i's skew is a pure function
			// of (seed, i), not of the node-construction order.
			skewRNG := eng.CounterRand("clock-skew", uint64(i))
			off := skewRNG.Duration(skew + 1)
			phase = off % sharedOpts.EffectiveTick()
			clock = network.NewLocalClock(eng, off)
		}
		n, err := kernel.NewNodeShared(handles[i], &sharedOpts, phase)
		if err != nil {
			return nil, err
		}
		n.Start()
		c.Nodes = append(c.Nodes, n)
		c.Clocks = append(c.Clocks, clock)

		ns, err := noise.Attach(n, noiseCfg)
		if err != nil {
			return nil, err
		}
		c.Noise = append(c.Noise, ns)

		if cfg.GPFS != nil {
			svc, err := gpfs.NewService(n, *cfg.GPFS)
			if err != nil {
				return nil, err
			}
			c.IO = append(c.IO, svc)
		}
		if c.Sched != nil {
			c.Sched.AddNode(n, clock)
		}
	}

	var registry mpi.Registry
	if c.Sched != nil {
		registry = c.Sched
	}
	c.Job, err = mpi.NewJob(c.Fabric, cfg.MPI, registry)
	if err != nil {
		return nil, err
	}
	c.Job.Reserve(cfg.Nodes * cfg.TasksPerNode)
	for _, n := range c.Nodes {
		for cpu := 0; cpu < cfg.TasksPerNode; cpu++ {
			c.Job.AddRank(n, cpu)
		}
	}
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		c.Faults = fault.NewInjector(*cfg.Faults, cfg.Seed, cfg.Nodes, len(noiseCfg.Daemons))
		c.Job.SetFaults(c.Faults)
		c.armFaults()
	}
	return c, nil
}

// armFaults schedules every precomputed fault through its node's handle.
// This runs at build time, before any window executes, so each event's key
// (time, node, that node's order) is a pure function of the injector's
// schedules, the same on every core.
func (c *Cluster) armFaults() {
	inj := c.Faults
	fc := inj.Config()

	// Daemon-stall recovery: one supervisor per node watches the noise
	// daemons and respawns killed ones.
	if fc.StallProb > 0 {
		for i, n := range c.Nodes {
			set := c.Noise[i]
			sup := kernel.NewSupervisor(n, fc.CheckPeriod, fc.RestartDelay)
			for d := 0; d < set.DaemonCount(); d++ {
				d := d
				sup.Watch(set.DaemonThread(d), func() *kernel.Thread { return set.Respawn(d) })
			}
			c.Supervisors = append(c.Supervisors, sup)
		}
	}

	for i, n := range c.Nodes {
		sched := n.Sched()
		inj.LaunchStraggler(n, i)
		for d := 0; d < c.Noise[i].DaemonCount(); d++ {
			at := inj.StallAt(i, d)
			if at == 0 {
				continue
			}
			set, d := c.Noise[i], d
			sched.At(at, func() {
				if th := set.DaemonThread(d); th != nil && th.State() != kernel.StateExited {
					th.Kill()
				}
			})
		}
		crash := inj.CrashAt(i)
		if crash == 0 {
			continue
		}
		node, set, idx := n, c.Noise[i], i
		sched.At(crash, func() {
			// The node dies whole: its ranks are lost, its noise and
			// co-scheduler daemon stop, its supervisor gives up.
			c.Job.FailRanksOn(node, true)
			set.Stop()
			if c.Sched != nil {
				c.Sched.NodeDown(node)
			}
			if len(c.Supervisors) > idx {
				c.Supervisors[idx].Stop()
			}
		})
		// Survivors respond DetectLatency later: re-plan then abort
		// (PolicyReplan), or abort immediately on detection.
		detect := crash + fc.DetectLatency
		for si, sn := range c.Nodes {
			if si == i {
				continue
			}
			ssched, sn := sn.Sched(), sn
			if fc.Policy == fault.PolicyReplan && c.Sched != nil {
				ssched.At(detect, func() { c.Sched.Replan(sn) })
				ssched.At(detect+fc.ReplanDrain, func() {
					c.Job.FailRanksOn(sn, false)
				})
			} else {
				ssched.At(detect, func() {
					c.Job.FailRanksOn(sn, false)
				})
			}
		}
	}
}

// FaultReport aggregates a faulty run's degraded-mode statistics across the
// injector, the MPI job, the fabric, the co-scheduler and the supervisors.
type FaultReport struct {
	Crashes            int      // nodes that crashed
	Stragglers         int      // nodes that hosted a straggler daemon
	Stalls             int      // daemons stalled (killed)
	Dropped            uint64   // send attempts lost (drops + partition cuts)
	Retries            uint64   // retransmit attempts
	AbortedCollectives int64    // ranks killed mid-collective
	LostRanks          int64    // ranks on crashed nodes
	AbortedRanks       int64    // survivors killed by collective abort
	Replans            int      // nodes re-planned by the co-scheduler
	Restarts           int      // daemons respawned by supervisors
	RecoveryTime       sim.Time // summed daemon death-to-respawn latency
}

// FaultReport returns the run's degraded-mode statistics (zero when fault
// injection is off). Call after Launch.
func (c *Cluster) FaultReport() FaultReport {
	var r FaultReport
	if c.Faults == nil {
		return r
	}
	r.Crashes = c.Faults.Crashes()
	r.Stragglers = c.Faults.Stragglers()
	r.Stalls = c.Faults.Stalls()
	fs := c.Job.FaultStats()
	r.Dropped = fs.Dropped
	r.Retries = fs.Retries
	r.AbortedCollectives = fs.AbortedCollectives
	r.LostRanks = fs.LostRanks
	r.AbortedRanks = fs.AbortedRanks
	if c.Sched != nil {
		r.Replans = c.Sched.Replans()
	}
	// Count only restarts that fired strictly before the job's termination:
	// how many respawn events drain after the workload ends depends on the
	// engine core (a serial engine stops mid-timestamp, the sharded core
	// finishes its window), and termination time is the last instant all
	// cores agree on.
	cutoff := c.Job.TerminatedAt()
	if cutoff == 0 {
		cutoff = sim.Forever
	}
	for _, sup := range c.Supervisors {
		n, rec := sup.RestartsBefore(cutoff)
		r.Restarts += n
		r.RecoveryTime += rec
	}
	return r
}

// SetWallDeadline bounds the real time Launch may spend: once the wall clock
// passes now+d the run exits early (at a window barrier on the sharded core)
// and DeadlineHit reports true. d <= 0 is a no-op.
func (c *Cluster) SetWallDeadline(d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.Now().Add(d)
	if c.Group != nil {
		c.Group.SetWallDeadline(t)
	} else {
		c.Eng.SetWallDeadline(t)
	}
}

// DeadlineHit reports whether the run was cut short by SetWallDeadline.
func (c *Cluster) DeadlineHit() bool {
	if c.Group != nil {
		return c.Group.WallDeadlineHit()
	}
	return c.Eng.WallDeadlineHit()
}

// MustBuild is Build for known-valid configurations.
func MustBuild(cfg Config) *Cluster {
	c, err := Build(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

func dropDaemon(specs []noise.DaemonSpec, name string) []noise.DaemonSpec {
	out := make([]noise.DaemonSpec, 0, len(specs))
	for _, d := range specs {
		if d.Name != name {
			out = append(out, d)
		}
	}
	return out
}

// Procs returns the total rank count.
func (c *Cluster) Procs() int { return c.Job.Size() }

// Launch starts the job and runs the simulation until it completes or the
// horizon passes; it returns the job's completion time and whether it
// finished. Noise continues during the run and is stopped afterwards.
func (c *Cluster) Launch(program func(*mpi.Rank), horizon sim.Time) (sim.Time, bool) {
	// On the sharded core the completion callback runs on whichever shard
	// fires the final Done; it may only touch shard-safe state. Stop ends
	// the run at the next window barrier, and the completion time is the
	// job's own max-over-ranks record rather than a shared clock read.
	c.Job.OnComplete(func() { c.Eng.Stop() })
	c.Job.Launch(program)
	if c.Group != nil {
		c.Group.Run(horizon)
	} else {
		c.Eng.Run(horizon)
	}
	for _, ns := range c.Noise {
		ns.Stop()
	}
	for _, sup := range c.Supervisors {
		sup.Stop()
	}
	return c.Job.CompletedAt(), c.Job.Completed()
}

// Preset constructors ------------------------------------------------------

// BaseConfig is the shared skeleton: 16-way nodes, standard noise, default
// fabric and MPI cost model.
func BaseConfig(nodes, tasksPerNode int, seed int64) Config {
	return Config{
		Nodes:        nodes,
		CPUsPerNode:  16,
		TasksPerNode: tasksPerNode,
		Kernel:       kernel.VanillaOptions(16),
		Noise:        noise.StandardConfig(),
		Network:      network.DefaultConfig(),
		MPI:          mpi.DefaultConfig(),
		SyncClocks:   false,
		ClockSkew:    500 * sim.Millisecond,
		Seed:         seed,
	}
}

// Vanilla is the standard AIX 4.3.3 configuration the paper measures first:
// lazy preemption, staggered 10ms ticks, bound daemons, 400ms MPI timer
// threads, no co-scheduler.
func Vanilla(nodes, tasksPerNode int, seed int64) Config {
	return BaseConfig(nodes, tasksPerNode, seed)
}

// Prototype is the paper's full solution: prototype kernel (big tick 250ms,
// aligned ticks, IPI preemption with both improvements, global daemon
// queue), co-scheduler at favored 30/unfavored 100 with a 5s/90% window,
// switch-clock synchronization, and MPI timer threads effectively disabled
// via MP_POLLING_INTERVAL.
func Prototype(nodes, tasksPerNode int, seed int64) Config {
	cfg := BaseConfig(nodes, tasksPerNode, seed)
	cfg.Kernel = kernel.PrototypeOptions(16)
	cfg.SyncClocks = true
	params := cosched.DefaultParams()
	cfg.Cosched = &params
	cfg.MPI.ProgressInterval = 400 * sim.Second // the paper's workaround
	return cfg
}

// PrototypeKernelOnly applies the kernel modifications without the
// co-scheduler (for ablations separating the two contributions).
func PrototypeKernelOnly(nodes, tasksPerNode int, seed int64) Config {
	cfg := Prototype(nodes, tasksPerNode, seed)
	cfg.Cosched = nil
	return cfg
}

// ALE3DVanilla is the production-code scenario on the standard kernel:
// GPFS attached, no co-scheduler.
func ALE3DVanilla(nodes, tasksPerNode int, seed int64) Config {
	cfg := Vanilla(nodes, tasksPerNode, seed)
	g := gpfs.DefaultConfig()
	cfg.GPFS = &g
	return cfg
}

// ALE3DNaive is the first, disappointing co-scheduled attempt: favored 30
// starves the I/O daemons.
func ALE3DNaive(nodes, tasksPerNode int, seed int64) Config {
	cfg := Prototype(nodes, tasksPerNode, seed)
	g := gpfs.DefaultConfig()
	cfg.GPFS = &g
	return cfg
}

// ALE3DTuned sets the favored priority just above mmfsd (41 vs 40), the
// configuration that won for real applications.
func ALE3DTuned(nodes, tasksPerNode int, seed int64) Config {
	cfg := ALE3DNaive(nodes, tasksPerNode, seed)
	params := cosched.IOAwareParams()
	cfg.Cosched = &params
	return cfg
}
