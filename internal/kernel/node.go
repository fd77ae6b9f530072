package kernel

import (
	"fmt"

	"coschedsim/internal/sim"
)

// Node is one SMP node: its CPUs, run queues, timer machinery, and the
// dispatch policies selected by Options. Options are held by pointer so a
// cluster of thousands of identically-configured nodes shares one read-only
// record (see NewNodeShared); the only per-node policy value, the clock
// phase shifting the tick grid, lives in the node itself.
type Node struct {
	sched *sim.Handle // the node's handle: every event its code schedules goes through it
	id    int
	opts  *Options // read-only after construction, possibly shared
	phase sim.Time // this node's tick-grid phase (clock skew)

	cpus    []*CPU
	globalQ runQueue
	threads []*Thread

	ipiInFlight int
	nextTID     int
	started     bool

	sink EventSink
	acct nodeAcct
}

type nodeAcct struct {
	tickSteal     sim.Time
	idleTickSteal sim.Time
	ctxSteal      sim.Time
	extSteal      sim.Time // injected interrupt-handler time (adapter interrupts)
	ctxSwitches   uint64
	ipis          uint64
	preemptions   uint64
}

// NodeStats is a snapshot of node-level scheduler accounting.
type NodeStats struct {
	TickSteal     sim.Time // tick handler time charged to running threads
	IdleTickSteal sim.Time // tick handler time taken on idle CPUs
	CtxSteal      sim.Time // context-switch time
	ExtSteal      sim.Time // injected external interrupt time
	CtxSwitches   uint64
	IPIs          uint64
	Preemptions   uint64
}

// NewNode builds a node with the given options that schedules through h,
// and takes h's node id as its own. Ticks do not begin until Start is
// called, so threads can be created and started at time zero first.
func NewNode(h *sim.Handle, opts Options) (*Node, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newNode(h, &opts, opts.Phase), nil
}

// NewNodeShared builds a node referencing a shared read-only Options record
// instead of a private copy, with the node's tick-grid phase supplied
// separately (opts.Phase is ignored). The caller must validate opts once and
// must not mutate it afterwards. This is the constructor cluster assembly
// uses: one Options record serves every node of a 1024-node system.
func NewNodeShared(h *sim.Handle, opts *Options, phase sim.Time) (*Node, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	return newNode(h, opts, phase), nil
}

func newNode(h *sim.Handle, opts *Options, phase sim.Time) *Node {
	n := &Node{sched: h, id: h.Node(), opts: opts, phase: phase}
	n.cpus = make([]*CPU, opts.NumCPUs)
	for i := range n.cpus {
		n.cpus[i] = &CPU{node: n, idx: i}
	}
	return n
}

// MustNode is NewNode for static configurations known to be valid.
func MustNode(h *sim.Handle, opts Options) *Node {
	n, err := NewNode(h, opts)
	if err != nil {
		panic(err)
	}
	return n
}

// ID returns the node's cluster-wide identifier.
func (n *Node) ID() int { return n.id }

// Engine returns the simulation engine driving this node.
func (n *Node) Engine() *sim.Engine { return n.sched.Engine() }

// Sched returns the node's scheduling handle. Code that runs for the node
// schedules its events through it.
func (n *Node) Sched() *sim.Handle { return n.sched }

// Options returns the node's scheduling options (with Phase reflecting
// this node's actual tick-grid phase).
func (n *Node) Options() Options {
	o := *n.opts
	o.Phase = n.phase
	return o
}

// CPUs returns the node's processors.
func (n *Node) CPUs() []*CPU { return n.cpus }

// NumCPUs returns the processor count.
func (n *Node) NumCPUs() int { return n.opts.NumCPUs }

// Threads returns every thread ever created on the node.
func (n *Node) Threads() []*Thread { return n.threads }

// Stats returns node-level accounting counters.
func (n *Node) Stats() NodeStats {
	return NodeStats{
		TickSteal:     n.acct.tickSteal,
		IdleTickSteal: n.acct.idleTickSteal,
		CtxSteal:      n.acct.ctxSteal,
		ExtSteal:      n.acct.extSteal,
		CtxSwitches:   n.acct.ctxSwitches,
		IPIs:          n.acct.ipis,
		Preemptions:   n.acct.preemptions,
	}
}

// SetSink installs a trace event sink (nil disables tracing).
func (n *Node) SetSink(s EventSink) { n.sink = s }

func (n *Node) trace(kind EventKind, th *Thread, arg int64) {
	if n.sink == nil {
		return
	}
	cpu := -1
	if th != nil && th.cpu != nil {
		cpu = th.cpu.idx
	}
	n.sink.KernelEvent(n.sched.Now(), n.id, cpu, kind, th, arg)
}

func (n *Node) traceCPU(kind EventKind, cpu int, arg int64) {
	if n.sink == nil {
		return
	}
	n.sink.KernelEvent(n.sched.Now(), n.id, cpu, kind, nil, arg)
}

// NewThread creates a thread bound to homeCPU (or Unbound) at the given
// priority. The thread does nothing until Start is called.
func (n *Node) NewThread(name string, prio Priority, homeCPU int) *Thread {
	if homeCPU != Unbound && (homeCPU < 0 || homeCPU >= n.opts.NumCPUs) {
		panic(fmt.Sprintf("kernel: homeCPU %d out of range on node %d", homeCPU, n.id))
	}
	t := &Thread{
		id:       n.nextTID,
		name:     name,
		node:     n,
		prio:     prio,
		basePrio: prio,
		state:    StateNew,
		homeCPU:  homeCPU,
		lastCPU:  -1,
		queueIdx: -1,
	}
	t.finishFn = func() { n.finishSegment(t) }
	t.wakeFn = func() {
		t.wakeEv = nil
		t.burstLeft = 0
		n.makeReady(t)
	}
	n.nextTID++
	n.threads = append(n.threads, t)
	return t
}

// NewDaemon creates a system daemon thread. Under the QueueDaemonsGlobal
// policy the preferred CPU is ignored and the daemon is queued to all
// processors.
func (n *Node) NewDaemon(name string, prio Priority, preferredCPU int) *Thread {
	home := preferredCPU
	if n.opts.QueueDaemonsGlobal {
		home = Unbound
	}
	t := n.NewThread(name, prio, home)
	t.Daemon = true
	t.fixedPrio = true // system daemons hold fixed priorities
	return t
}

// Start begins the node's periodic tick interrupts. Call once, after the
// simulation engine exists but before (or at) the start of the measured run.
// Each CPU's tick is a closure bound once here that re-arms itself with At
// on the CPU's tick grid; the engine recycles the fired record before the
// closure runs, so the re-arm allocates nothing.
func (n *Node) Start() {
	if n.started {
		panic("kernel: node started twice")
	}
	n.started = true
	for _, c := range n.cpus {
		c := c
		var fire func()
		fire = func() {
			n.tick(c)
			n.sched.At(c.nextTickAtOrAfter(n.sched.Now()+1), fire)
		}
		n.sched.At(c.nextTickAtOrAfter(n.sched.Now()), fire)
	}
	n.startUsageSweep()
}

// tick is one timer-decrement interrupt on one CPU: it charges the handler
// cost and serves as the lazy-preemption notice point. The closure armed in
// Start re-arms it on the CPU's tick grid.
func (n *Node) tick(c *CPU) {
	c.ticksTaken++
	n.stealCPU(c, n.opts.TickCost, &n.acct.tickSteal)
	n.traceCPU(EvTick, c.idx, 0)
	n.tickNotice(c)
}

// stealCPU charges interrupt-handler time on a CPU: a running thread's burst
// is pushed out by cost; an idle CPU just accounts it.
func (n *Node) stealCPU(c *CPU, cost sim.Time, counter *sim.Time) {
	if cost <= 0 {
		return
	}
	switch {
	case c.current != nil && c.current.burstEnd != nil:
		*counter += cost
		c.stolen += cost
		n.sched.Reschedule(c.current.burstEnd, c.current.burstEnd.When()+cost)
	case c.current != nil && c.current.spinning:
		// A spinner absorbs the handler time: it was producing nothing.
		*counter += cost
		c.stolen += cost
	default:
		n.acct.idleTickSteal += cost
	}
}

// InjectInterrupt models an external interrupt handler (e.g. a switch or
// disk adapter) commandeering the CPU for cost. Used by the noise package.
func (n *Node) InjectInterrupt(cpu int, cost sim.Time) {
	n.stealCPU(n.cpus[cpu], cost, &n.acct.extSteal)
}

// queueFor returns the run queue a ready thread belongs on.
func (n *Node) queueFor(t *Thread) *runQueue {
	if t.homeCPU == Unbound {
		return &n.globalQ
	}
	return &n.cpus[t.homeCPU].localQ
}

// makeReady transitions a thread to Ready and places it: an eligible idle
// CPU dispatches immediately ("no issue when processors are idle"); busy
// CPUs are handled by the preemption policy.
func (n *Node) makeReady(t *Thread) {
	switch t.state {
	case StateRunning, StateReady, StateExited:
		panic("kernel: makeReady on " + t.String())
	}
	t.state = StateReady
	t.readySince = n.sched.Now()
	n.queueFor(t).Push(t)
	n.trace(EvReady, t, 0)
	if c := n.idleCPUFor(t); c != nil {
		n.dispatchOn(c)
		return
	}
	n.reconcile()
}

// idleCPUFor finds an idle CPU that may run t, preferring its last CPU for
// locality. Bound threads run only on their home CPU unless idle stealing
// is enabled.
func (n *Node) idleCPUFor(t *Thread) *CPU {
	if t.homeCPU != Unbound {
		if home := n.cpus[t.homeCPU]; home.Idle() {
			return home
		}
		if !n.opts.IdleSteal {
			return nil
		}
	}
	if t.lastCPU >= 0 && n.cpus[t.lastCPU].Idle() {
		return n.cpus[t.lastCPU]
	}
	for _, c := range n.cpus {
		if c.Idle() {
			return c
		}
	}
	return nil
}

// betterCandidate compares two ready threads across queues: priority first,
// then longest waiting, then creation order (all deterministic).
func betterCandidate(a, b *Thread) *Thread {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.prio != b.prio:
		if a.prio < b.prio {
			return a
		}
		return b
	case a.readySince != b.readySince:
		if a.readySince < b.readySince {
			return a
		}
		return b
	case a.id < b.id:
		return a
	}
	return b
}

// bestCandidateFor returns the best ready thread this CPU could run from its
// local and the global queue (no stealing).
func (n *Node) bestCandidateFor(c *CPU) *Thread {
	return betterCandidate(c.localQ.Peek(), n.globalQ.Peek())
}

// pickFor selects the thread an idle CPU should run, consulting the local
// queue, the global queue, and — when allowed — other CPUs' queues (idle
// stealing).
func (n *Node) pickFor(c *CPU) *Thread {
	best := n.bestCandidateFor(c)
	if n.opts.IdleSteal {
		for _, o := range n.cpus {
			if o == c {
				continue
			}
			best = betterCandidate(best, o.localQ.Peek())
		}
	}
	return best
}

// dispatchOn fills an idle CPU with the best available thread, if any.
func (n *Node) dispatchOn(c *CPU) {
	if c.current != nil {
		panic("kernel: dispatchOn busy CPU")
	}
	t := n.pickFor(c)
	if t == nil {
		return
	}
	n.dispatch(c, t)
}

// dispatch places ready thread t on idle CPU c and starts its burst segment.
func (n *Node) dispatch(c *CPU, t *Thread) {
	now := n.sched.Now()
	t.queue.Remove(t)
	t.waitTime += now - t.readySince
	t.state = StateRunning
	t.cpu = c
	c.current = t
	t.dispatches++

	// Segment bookkeeping must begin before overhead is charged so the
	// steal mark captures it.
	c.busySince = now
	c.stolenMark = c.stolen

	var overhead sim.Time
	if c.lastThread != t {
		overhead += n.opts.CtxSwitchCost
		n.acct.ctxSteal += n.opts.CtxSwitchCost
		n.acct.ctxSwitches++
	}
	if t.lastCPU >= 0 && t.lastCPU != c.idx && n.opts.MigrationPenalty > 1.0 {
		extra := sim.Time(float64(t.burstLeft) * (n.opts.MigrationPenalty - 1.0))
		overhead += extra
		t.migrations++
	}
	c.stolen += overhead
	t.lastCPU = c.idx
	c.lastThread = t

	if t.spinning {
		// Re-dispatched spinner: no completion event; it spins until
		// signaled or preempted.
		n.trace(EvDispatch, t, int64(c.idx))
		return
	}
	work := t.burstLeft
	t.burstLeft = 0
	t.burstEnd = n.sched.After(overhead+work, t.finishFn)
	n.trace(EvDispatch, t, int64(c.idx))
}

// beginBurst starts a new burst for a thread that already holds a CPU
// (a Run issued from a continuation): same segment bookkeeping, no
// context-switch overhead.
func (t *Thread) beginBurst(d sim.Time) {
	n := t.node
	c := t.cpu
	c.busySince = n.sched.Now()
	c.stolenMark = c.stolen
	t.burstEnd = n.sched.After(d, t.finishFn)
}

// closeSegment accrues occupancy and productive time for the segment that
// is ending on t's CPU.
func (n *Node) closeSegment(t *Thread) {
	c := t.cpu
	occ := n.sched.Now() - c.busySince
	steal := c.stolen - c.stolenMark
	c.busy += occ
	t.cpuTime += occ - steal
	n.chargeUsage(t, occ-steal)
}

// finishSegment fires when a running thread's burst completes: close the
// segment and run the continuation (which must transition).
func (n *Node) finishSegment(t *Thread) {
	t.burstEnd = nil
	n.closeSegment(t)
	t.runContinuation()
}

// releaseCPU detaches a thread that is giving up its processor (sleep,
// block, exit, kill) and refills the CPU.
func (n *Node) releaseCPU(t *Thread) {
	c := t.cpu
	if c == nil {
		return
	}
	switch {
	case t.burstEnd != nil: // killed mid-burst
		n.sched.Engine().Cancel(t.burstEnd)
		t.burstEnd = nil
		n.closeSegment(t)
	case t.spinning: // killed mid-spin (eventless)
		n.closeSegment(t)
	}
	t.cpu = nil
	c.current = nil
	c.lastThread = t
	n.dispatchOn(c)
}

// preempt forces the running thread off CPU c back onto its run queue,
// preserving its remaining work.
func (n *Node) preempt(c *CPU) {
	t := c.current
	now := n.sched.Now()
	remaining := sim.Time(0)
	if t.burstEnd != nil {
		remaining = t.burstEnd.When() - now
		n.sched.Engine().Cancel(t.burstEnd)
		t.burstEnd = nil
	}
	n.closeSegment(t)
	t.burstLeft = remaining
	t.state = StateReady
	t.readySince = now
	t.preemptions++
	n.acct.preemptions++
	t.cpu = nil
	c.current = nil
	c.lastThread = t
	n.queueFor(t).Push(t)
	n.trace(EvPreempt, t, int64(c.idx))
}

// preemptCheckCPU is a notice point on one CPU: if a strictly better ready
// thread is visible from here, switch to it. This is what ticks and IPIs
// invoke; in the vanilla kernel it is the *only* way a busy CPU notices a
// pending preemption.
func (n *Node) preemptCheckCPU(c *CPU) {
	cand := n.bestCandidateFor(c)
	if cand == nil {
		return
	}
	if c.current == nil {
		n.dispatchOn(c)
		return
	}
	if cand.prio.Better(c.current.prio) {
		n.preempt(c)
		n.dispatchOn(c)
	}
}

// tickNotice is the tick-time variant of preemptCheckCPU: in addition to
// strict preemptions it expires the running thread's quantum, round-robining
// equal-priority threads (AIX's one-tick timeslice).
func (n *Node) tickNotice(c *CPU) {
	cand := n.bestCandidateFor(c)
	if cand == nil {
		return
	}
	if c.current == nil {
		n.dispatchOn(c)
		return
	}
	cur := c.current.prio
	if cand.prio.Better(cur) || (n.opts.Timeslice && cand.prio == cur) {
		n.preempt(c)
		n.dispatchOn(c)
	}
}

// reconcile is the forced-preemption policy: under RealTimeIPI, schedule
// preemption interrupts for CPUs whose running thread is strictly worse than
// a ready candidate. Without MultiIPI at most one interrupt is in flight per
// node (the deficiency the paper fixed); with it, one per CPU.
func (n *Node) reconcile() {
	if !n.opts.RealTimeIPI {
		return
	}
	// Local queues: each maps to exactly one CPU.
	for _, c := range n.cpus {
		if cand := c.localQ.Peek(); cand != nil && c.current != nil && cand.prio.Better(c.current.prio) {
			n.scheduleIPI(c)
		}
	}
	// Global queue head: interrupt the worst-priority running CPU.
	if g := n.globalQ.Peek(); g != nil {
		var worst *CPU
		for _, c := range n.cpus {
			if c.current == nil || c.pendingIPI {
				continue
			}
			if g.prio.Better(c.current.prio) && (worst == nil || c.current.prio > worst.current.prio) {
				worst = c
			}
		}
		if worst != nil {
			n.scheduleIPI(worst)
		}
	}
}

// scheduleIPI arranges a forced dispatch on c after the IPI latency.
func (n *Node) scheduleIPI(c *CPU) {
	if c.pendingIPI {
		return
	}
	if !n.opts.MultiIPI && n.ipiInFlight > 0 {
		return
	}
	c.pendingIPI = true
	n.ipiInFlight++
	n.sched.After(n.opts.IPILatency, func() {
		c.pendingIPI = false
		n.ipiInFlight--
		n.acct.ipis++
		n.traceCPU(EvIPI, c.idx, 0)
		n.preemptCheckCPU(c)
		n.reconcile() // chain: serial IPIs when MultiIPI is off
	})
}

// setPriority implements Thread.SetPriority with the paper's preemption
// semantics, including reverse preemption.
func (n *Node) setPriority(t *Thread, p Priority) {
	if t.prio == p {
		return
	}
	old := t.prio
	t.prio = p
	n.trace(EvSetPrio, t, int64(p))
	switch t.state {
	case StateReady:
		t.queue.Fix(t)
		if p.Better(old) {
			if c := n.idleCPUFor(t); c != nil {
				n.dispatchOn(c)
			} else {
				n.reconcile()
			}
		}
	case StateRunning:
		if old.Better(p) && n.opts.RealTimeIPI && n.opts.ReversePreemptIPI {
			// Reverse preemption: the running thread was just made worse
			// than a waiter. The base "real time scheduling" option never
			// forced an interrupt for this case.
			if cand := n.bestCandidateFor(t.cpu); cand != nil && cand.prio.Better(p) {
				n.scheduleIPI(t.cpu)
			}
		}
	}
}

// timerFireTime maps a requested wake time onto the timer wheel: quantized
// up to the owning CPU's next tick unless quantization is disabled. Unbound
// threads' timers live on CPU 0, as on AIX's master processor.
func (n *Node) timerFireTime(t *Thread, when sim.Time) sim.Time {
	if !n.opts.QuantizeTimers {
		return when
	}
	cpu := 0
	if t.homeCPU != Unbound {
		cpu = t.homeCPU
	}
	return n.cpus[cpu].nextTickAtOrAfter(when)
}

// RunnableCount reports ready + running threads (diagnostics).
func (n *Node) RunnableCount() int {
	count := n.globalQ.Len()
	for _, c := range n.cpus {
		count += c.localQ.Len()
		if c.current != nil {
			count++
		}
	}
	return count
}
