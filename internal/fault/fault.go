// Package fault is a deterministic fault-injection subsystem. Every fault —
// node crash, straggler slow-down, link drop, partition window, daemon stall
// — is drawn from sim.CounterRand streams keyed by stable identities
// (node, rank, send index, attempt), never by execution order. An Injector is
// therefore a pure function of (seed, Config): the same faulty scenario is
// byte-identical on the heap, wheel, and sharded engine cores at any worker
// count. All schedules are precomputed at construction; DropMessage holds no
// mutable RNG state, so it is safe to call from any shard.
package fault

import (
	"fmt"

	"coschedsim/internal/kernel"
	"coschedsim/internal/sim"
)

// Policy selects the resilience response exercised when ranks die.
type Policy int

const (
	// PolicyAbort kills the whole job once a dead rank is detected.
	PolicyAbort Policy = iota
	// PolicyRetry relies on MPI send timeouts + bounded retry alone.
	PolicyRetry
	// PolicyReplan asks the co-scheduler to re-plan priorities on the
	// surviving nodes (drain in favored quanta) before the job aborts.
	PolicyReplan
)

func (p Policy) String() string {
	switch p {
	case PolicyAbort:
		return "abort"
	case PolicyRetry:
		return "retry"
	case PolicyReplan:
		return "replan"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Config describes which faults to inject. The zero value injects nothing.
type Config struct {
	Policy Policy

	// CrashProb is the per-node probability of a full crash, drawn once per
	// node; the crash instant is uniform in (0, CrashWindow].
	CrashProb   float64
	CrashWindow sim.Time
	// DetectLatency is the time for survivors to detect a dead peer and for
	// abort broadcasts to propagate. Must be >= the fabric lookahead so
	// detection events can cross shard windows.
	DetectLatency sim.Time
	// ReplanDrain is how long the co-scheduler drains in favored quanta
	// before surviving ranks are aborted (PolicyReplan only).
	ReplanDrain sim.Time

	// StragglerProb/Window/Duration/Duty: per-node probability of hosting a
	// CPU-hogging straggler daemon starting uniform in (0, Window], running
	// for Duration at the given duty cycle.
	StragglerProb     float64
	StragglerWindow   sim.Time
	StragglerDuration sim.Time
	StragglerDuty     float64

	// DropRate is the per-attempt probability that a message is lost in the
	// fabric, keyed by (source rank, send index, attempt).
	DropRate float64

	// Partition cuts all traffic between the first PartitionFrac of nodes
	// and the rest during [PartitionStart, PartitionStart+PartitionDuration).
	PartitionStart    sim.Time
	PartitionDuration sim.Time
	PartitionFrac     float64

	// StallProb is the per-daemon probability of being killed (stalled) at a
	// time uniform in (0, StallWindow]; a kernel.Supervisor restarts stalled
	// daemons after RestartDelay, scanning every CheckPeriod.
	StallProb    float64
	StallWindow  sim.Time
	RestartDelay sim.Time
	CheckPeriod  sim.Time
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.CrashProb > 0 || c.StragglerProb > 0 || c.DropRate > 0 ||
		c.PartitionDuration > 0 || c.StallProb > 0
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"CrashProb", c.CrashProb},
		{"StragglerProb", c.StragglerProb},
		{"DropRate", c.DropRate},
		{"StallProb", c.StallProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("fault: %s %v outside [0,1]", p.name, p.v)
		}
	}
	if c.CrashProb > 0 && c.CrashWindow <= 0 {
		return fmt.Errorf("fault: CrashProb %v needs CrashWindow > 0", c.CrashProb)
	}
	if c.StragglerProb > 0 {
		if c.StragglerWindow <= 0 || c.StragglerDuration <= 0 {
			return fmt.Errorf("fault: StragglerProb %v needs StragglerWindow and StragglerDuration > 0", c.StragglerProb)
		}
		if c.StragglerDuty <= 0 || c.StragglerDuty >= 1 {
			return fmt.Errorf("fault: StragglerDuty %v outside (0,1)", c.StragglerDuty)
		}
	}
	if c.PartitionDuration > 0 && (c.PartitionFrac <= 0 || c.PartitionFrac >= 1) {
		return fmt.Errorf("fault: PartitionFrac %v outside (0,1)", c.PartitionFrac)
	}
	if c.StallProb > 0 && (c.RestartDelay <= 0 || c.CheckPeriod <= 0) {
		return fmt.Errorf("fault: StallProb %v needs RestartDelay and CheckPeriod > 0", c.StallProb)
	}
	if c.Enabled() && c.DetectLatency <= 0 {
		return fmt.Errorf("fault: enabled faults need DetectLatency > 0")
	}
	return nil
}

// Injector holds precomputed fault schedules for one cluster run. All fields
// are immutable after NewInjector, so shards may consult it concurrently.
type Injector struct {
	cfg               Config
	src               *sim.Source
	crashAt           []sim.Time   // per node; 0 = no crash
	stragglerAt       []sim.Time   // per node; 0 = no straggler
	stallAt           [][]sim.Time // per node, per daemon; 0 = no stall
	partitionBoundary int
	crashes           int
	stragglers        int
	stalls            int
}

// NewInjector draws every scheduled fault up front from streams keyed by
// stable identities: ("fault-crash", node), ("fault-straggler", node),
// ("fault-stall", node, daemon). Message drops are drawn lazily but purely
// in DropMessage.
func NewInjector(cfg Config, seed int64, nodes, daemonsPerNode int) *Injector {
	inj := &Injector{
		cfg:         cfg,
		src:         sim.NewSource(seed),
		crashAt:     make([]sim.Time, nodes),
		stragglerAt: make([]sim.Time, nodes),
		stallAt:     make([][]sim.Time, nodes),
	}
	for i := 0; i < nodes; i++ {
		if cfg.CrashProb > 0 {
			r := inj.src.CounterRand("fault-crash", uint64(i))
			if r.Float64() < cfg.CrashProb {
				inj.crashAt[i] = 1 + r.Duration(cfg.CrashWindow)
				inj.crashes++
			}
		}
		if cfg.StragglerProb > 0 {
			r := inj.src.CounterRand("fault-straggler", uint64(i))
			if r.Float64() < cfg.StragglerProb {
				inj.stragglerAt[i] = 1 + r.Duration(cfg.StragglerWindow)
				inj.stragglers++
			}
		}
		if cfg.StallProb > 0 && daemonsPerNode > 0 {
			inj.stallAt[i] = make([]sim.Time, daemonsPerNode)
			for d := 0; d < daemonsPerNode; d++ {
				r := inj.src.CounterRand("fault-stall", uint64(i), uint64(d))
				if r.Float64() < cfg.StallProb {
					inj.stallAt[i][d] = 1 + r.Duration(cfg.StallWindow)
					inj.stalls++
				}
			}
		}
	}
	if cfg.PartitionDuration > 0 {
		inj.partitionBoundary = int(cfg.PartitionFrac * float64(nodes))
		if inj.partitionBoundary < 1 {
			inj.partitionBoundary = 1
		}
		if inj.partitionBoundary >= nodes {
			inj.partitionBoundary = nodes - 1
		}
	}
	return inj
}

// DropMessage decides whether one send attempt is lost. It is pure: the
// verdict depends only on the injector's schedules and the identity of the
// attempt, never on call order.
func (inj *Injector) DropMessage(now sim.Time, srcNode, dstNode, srcRank int, sendIdx, attempt uint64) bool {
	if inj.cfg.PartitionDuration > 0 && now >= inj.cfg.PartitionStart &&
		now < inj.cfg.PartitionStart+inj.cfg.PartitionDuration {
		if (srcNode < inj.partitionBoundary) != (dstNode < inj.partitionBoundary) {
			return true
		}
	}
	if inj.cfg.DropRate > 0 {
		r := inj.src.CounterRand("fault-drop", uint64(srcRank), sendIdx, attempt)
		return r.Float64() < inj.cfg.DropRate
	}
	return false
}

// DetectLatency implements mpi.FaultModel.
func (inj *Injector) DetectLatency() sim.Time { return inj.cfg.DetectLatency }

// Config returns the injector's configuration.
func (inj *Injector) Config() Config { return inj.cfg }

// CrashAt returns when node i crashes (0 = never).
func (inj *Injector) CrashAt(i int) sim.Time { return inj.crashAt[i] }

// StragglerAt returns when node i's straggler starts (0 = never).
func (inj *Injector) StragglerAt(i int) sim.Time { return inj.stragglerAt[i] }

// StallAt returns when daemon d on node i stalls (0 = never).
func (inj *Injector) StallAt(i, d int) sim.Time {
	if inj.stallAt[i] == nil {
		return 0
	}
	return inj.stallAt[i][d]
}

// Crashes, Stragglers, and Stalls count the scheduled faults.
func (inj *Injector) Crashes() int    { return inj.crashes }
func (inj *Injector) Stragglers() int { return inj.stragglers }
func (inj *Injector) Stalls() int     { return inj.stalls }

// stragglerQuantum is the duty-cycle granularity of injected stragglers.
const stragglerQuantum = 10 * sim.Millisecond

// stragglerPrio sits between the privileged daemons and housekeeping so a
// straggler competes with, but does not starve, the co-scheduler itself.
const stragglerPrio = kernel.Priority(56)

// LaunchStraggler schedules node i's straggler (if any) on its engine: a
// daemon that busy-spins StragglerDuty of every quantum for
// StragglerDuration, then exits. Must be called at build time, before the
// engines run.
func (inj *Injector) LaunchStraggler(n *kernel.Node, i int) {
	at := inj.stragglerAt[i]
	if at == 0 {
		return
	}
	cfg := inj.cfg
	sched := n.Sched()
	sched.At(at, func() {
		th := n.NewDaemon("straggler", stragglerPrio, 0)
		end := sched.Now() + cfg.StragglerDuration
		busy := sim.Time(cfg.StragglerDuty * float64(stragglerQuantum))
		if busy < 1 {
			busy = 1
		}
		if busy >= stragglerQuantum {
			busy = stragglerQuantum - 1
		}
		var cycle func()
		cycle = func() {
			if sched.Now() >= end {
				th.Exit()
				return
			}
			th.Run(busy, func() {
				th.Sleep(stragglerQuantum-busy, cycle)
			})
		}
		th.Start(cycle)
	})
}
