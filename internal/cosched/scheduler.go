package cosched

import (
	"fmt"
	"sort"

	"coschedsim/internal/kernel"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

// Transition records one favored/unfavored window edge on one node, for
// overlap analysis and tests.
type Transition struct {
	Time    sim.Time // engine (true) time
	Node    int
	Favored bool
}

// Scheduler is the cluster-wide co-scheduler: one daemon thread per node,
// all cycling priorities on period boundaries of their own clocks. It
// implements mpi.Registry so the MPI library's control-pipe messages reach
// it directly.
type Scheduler struct {
	params Params
	nodes  map[*kernel.Node]*nodeSched
}

// New creates a scheduler with the given class parameters.
func New(params Params) (*Scheduler, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{
		params: params,
		nodes:  map[*kernel.Node]*nodeSched{},
	}, nil
}

// MustNew is New for known-valid parameters.
func MustNew(params Params) *Scheduler {
	s, err := New(params)
	if err != nil {
		panic(err)
	}
	return s
}

// Params returns the active class parameters.
func (s *Scheduler) Params() Params { return s.params }

// Transitions returns the window-edge log, sorted by (Time, Node). Edges
// are recorded per node daemon — so daemons on different engine shards
// never share a slice — and merged here; a node never records two edges at
// the same instant, so the (Time, Node) order is total and matches the
// firing order of a serial run (same-time daemons fire in node order).
func (s *Scheduler) Transitions() []Transition {
	var all []Transition
	for _, ns := range s.nodes {
		all = append(all, ns.transitions...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Time != all[j].Time {
			return all[i].Time < all[j].Time
		}
		return all[i].Node < all[j].Node
	})
	return all
}

// AddNode starts a co-scheduler daemon on the node, driven by the node's
// clock. Call before launching the job.
func (s *Scheduler) AddNode(n *kernel.Node, clock network.Clock) {
	if _, dup := s.nodes[n]; dup {
		panic(fmt.Sprintf("cosched: node %d added twice", n.ID()))
	}
	ns := &nodeSched{
		sched: s,
		node:  n,
		clock: clock,
		procs: map[int]*procEntry{},
	}
	s.nodes[n] = ns
	ns.start()
}

// NodeFavored reports whether the node is currently inside a favored window
// (false for unknown nodes).
func (s *Scheduler) NodeFavored(n *kernel.Node) bool {
	ns := s.nodes[n]
	return ns != nil && ns.inFavored
}

// RegisterProcess implements mpi.Registry: a task process announced itself
// via the control pipe. It is co-scheduled immediately.
func (s *Scheduler) RegisterProcess(node *kernel.Node, proc int, threads []*kernel.Thread) {
	ns := s.nodes[node]
	if ns == nil {
		panic(fmt.Sprintf("cosched: RegisterProcess on unmanaged node %d", node.ID()))
	}
	ns.procs[proc] = &procEntry{threads: threads, attached: true}
	ns.hadProcs = true
	ns.applyTo(ns.procs[proc])
}

// UnregisterProcess implements mpi.Registry: the process ended.
func (s *Scheduler) UnregisterProcess(node *kernel.Node, proc int) {
	if ns := s.nodes[node]; ns != nil {
		delete(ns.procs, proc)
	}
}

// DetachProcess implements mpi.Registry: revert the process to normal
// priority until re-attached (the I/O escape mechanism).
func (s *Scheduler) DetachProcess(node *kernel.Node, proc int) {
	ns := s.nodes[node]
	if ns == nil {
		return
	}
	if e := ns.procs[proc]; e != nil && e.attached {
		e.attached = false
		for _, th := range e.threads {
			th.SetPriority(s.params.NormalPriority)
		}
	}
}

// AttachProcess implements mpi.Registry: re-enroll the process.
func (s *Scheduler) AttachProcess(node *kernel.Node, proc int) {
	ns := s.nodes[node]
	if ns == nil {
		return
	}
	if e := ns.procs[proc]; e != nil && !e.attached {
		e.attached = true
		ns.applyTo(e)
	}
}

// NodeDown tells the scheduler a node has died (fault injection): its
// co-scheduler daemon is killed in place and the node stops cycling windows.
func (s *Scheduler) NodeDown(n *kernel.Node) {
	ns := s.nodes[n]
	if ns == nil || ns.down {
		return
	}
	ns.down = true
	if ns.thread != nil && ns.thread.State() != kernel.StateExited {
		ns.thread.Kill()
	}
}

// Replan re-plans a surviving node after a peer died mid-job: the node's
// window state machine enters drain mode — the job is promoted to favored
// immediately and held there in hint quanta — so surviving ranks flush
// in-flight collectives and reach the abort point at full priority instead
// of stalling unfavored behind daemons.
func (s *Scheduler) Replan(n *kernel.Node) {
	ns := s.nodes[n]
	if ns == nil || ns.down || ns.drain {
		return
	}
	ns.drain = true
	ns.replans++
	if !ns.inFavored {
		ns.setFavored(true)
	}
}

// Replans counts nodes whose schedules were re-planned after a failure.
func (s *Scheduler) Replans() int {
	total := 0
	for _, ns := range s.nodes {
		total += ns.replans
	}
	return total
}

type procEntry struct {
	threads  []*kernel.Thread
	attached bool
}

// nodeSched is the per-node co-scheduler daemon.
type nodeSched struct {
	sched     *Scheduler
	node      *kernel.Node
	clock     network.Clock
	thread    *kernel.Thread
	procs     map[int]*procEntry
	inFavored bool
	hadProcs  bool
	cycles    uint64
	fineGrain int      // active fine-grain regions (hint API)
	extended  sim.Time // total favored-window extension granted

	down    bool // the node died; its daemon was killed
	drain   bool // re-plan: hold the job favored in quanta until it ends
	replans int

	transitions []Transition // this node's window edges (see Transitions)
}

// start launches the daemon thread and waits for the first period boundary
// of the node clock ("the co-scheduler adjusts its operation cycle so that
// the period ends on a second boundary").
func (ns *nodeSched) start() {
	p := ns.sched.params
	// Until the first period boundary the job is treated as favored, so a
	// process registered mid-period is actively co-scheduled immediately
	// (the paper: "as soon as a process registers").
	ns.inFavored = true
	ns.thread = ns.node.NewDaemon(fmt.Sprintf("cosched%d", ns.node.ID()), p.SelfPriority, 0)
	ns.thread.Start(func() { ns.sleepUntilClock(ns.nextBoundary(), ns.beginPeriod) })
}

// nextBoundary returns the next multiple of the period on the node clock.
func (ns *nodeSched) nextBoundary() sim.Time {
	p := ns.sched.params
	now := ns.clock.Now()
	return (now + 1).AlignUp(p.Period)
}

// sleepUntilClock sleeps until the node clock reads target.
func (ns *nodeSched) sleepUntilClock(target sim.Time, then func()) {
	wait := target - ns.clock.Now()
	if wait < 0 {
		wait = 0
	}
	ns.thread.Sleep(wait, then)
}

// beginPeriod opens the favored window, schedules its end, and recurs.
func (ns *nodeSched) beginPeriod() {
	if ns.maybeExit() {
		return
	}
	p := ns.sched.params
	ns.cycles++
	periodStart := ns.clock.Now().AlignDown(p.Period)
	favoredEnd := periodStart + sim.Time(float64(p.Period)*p.Duty)
	ns.thread.Run(p.AdjustCost, func() {
		ns.setFavored(true)
		ns.sleepUntilClock(favoredEnd, func() {
			ns.endFavoredOrExtend(periodStart, 0)
		})
	})
}

// maybeExit ends the daemon once the job it served is gone ("when the
// parallel job ends, the co-scheduler knows that the processes have gone
// away, and exits"). Reports true if it exited.
func (ns *nodeSched) maybeExit() bool {
	if ns.hadProcs && len(ns.procs) == 0 {
		if ns.inFavored {
			ns.setFavored(false)
		}
		ns.thread.Exit()
		return true
	}
	return false
}

// setFavored flips the window state and applies it to every attached
// process, in ascending process-ID order. The order matters: equal-priority
// threads dispatch in requeue order, so iterating the procs map directly
// would leak Go's randomized map order into the simulation and break
// same-seed reproducibility.
func (ns *nodeSched) setFavored(fav bool) {
	ns.inFavored = fav
	ns.transitions = append(ns.transitions,
		Transition{Time: ns.node.Engine().Now(), Node: ns.node.ID(), Favored: fav})
	ids := make([]int, 0, len(ns.procs))
	for id := range ns.procs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ns.applyTo(ns.procs[id])
	}
}

// applyTo applies the current window priority to one process.
func (ns *nodeSched) applyTo(e *procEntry) {
	if !e.attached {
		return
	}
	p := ns.sched.params
	prio := p.Unfavored
	if ns.inFavored {
		prio = p.Favored
	}
	for _, th := range e.threads {
		if th.State() != kernel.StateExited {
			th.SetPriority(prio)
		}
	}
}

// FavoredOverlap analyzes a transition log over [from, to]: it returns the
// mean per-node favored fraction and the fraction of time during which
// *every* node was favored simultaneously. Perfectly synchronized windows
// make the two equal; clock skew drives the joint fraction down — the
// quantity Figure 1 is about.
func FavoredOverlap(trans []Transition, nodes int, from, to sim.Time) (mean, joint float64) {
	if to <= from || nodes == 0 {
		return 0, 0
	}
	type edge struct {
		t     sim.Time
		delta int
	}
	var edges []edge
	state := make(map[int]bool, nodes)
	favoredAt := 0
	// Establish state at `from` and collect edges inside the window.
	for _, tr := range trans {
		if tr.t() <= from {
			was := state[tr.Node]
			state[tr.Node] = tr.Favored
			if !was && tr.Favored {
				favoredAt++
			} else if was && !tr.Favored {
				favoredAt--
			}
			continue
		}
		if tr.t() > to {
			break
		}
		d := 1
		if !tr.Favored {
			d = -1
		}
		edges = append(edges, edge{tr.t(), d})
	}
	var perNode, all sim.Time
	cur := favoredAt
	last := from
	flush := func(t sim.Time) {
		perNode += sim.Time(cur) * (t - last)
		if cur == nodes {
			all += t - last
		}
		last = t
	}
	for _, e := range edges {
		flush(e.t)
		cur += e.delta
	}
	flush(to)
	span := float64(to - from)
	return float64(perNode) / (span * float64(nodes)), float64(all) / span
}

func (tr Transition) t() sim.Time { return tr.Time }
