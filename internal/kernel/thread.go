package kernel

import (
	"fmt"

	"coschedsim/internal/sim"
)

// State is a thread's scheduling state.
type State uint8

// Thread states.
const (
	StateNew      State = iota // created, never started
	StateReady                 // runnable, waiting in a queue
	StateRunning               // executing on a CPU
	StateSleeping              // waiting on a kernel timer
	StateBlocked               // waiting for an external Wakeup
	StateExited                // finished
)

func (s State) String() string {
	switch s {
	case StateNew:
		return "new"
	case StateReady:
		return "ready"
	case StateRunning:
		return "running"
	case StateSleeping:
		return "sleeping"
	case StateBlocked:
		return "blocked"
	case StateExited:
		return "exited"
	}
	return "invalid"
}

// Unbound marks a thread with no home CPU: it is queued to the node-global
// run queue and may be dispatched on any processor.
const Unbound = -1

// Thread is a schedulable entity. Thread behaviour is written in
// continuation-passing style: each of Run, Sleep, SleepUntil, Block and Exit
// must be called exactly once from within the thread's current continuation
// (the function passed to the previous transition, or to Start). The
// continuation itself executes in zero simulated time while the thread holds
// its CPU.
//
// Wakeup, SetPriority and Kill may be called from outside the thread at any
// event.
type Thread struct {
	id   int
	name string
	node *Node

	// Proc groups threads that belong to one operating-system process
	// (an MPI task and its progress-engine timer thread share a Proc).
	// Zero means "no process"; the co-scheduler adjusts priorities at
	// process granularity.
	Proc int

	// Daemon marks system overhead threads for noise accounting and for
	// the QueueDaemonsGlobal policy.
	Daemon bool

	prio      Priority
	basePrio  Priority // priority before usage penalties
	fixedPrio bool     // explicitly set (setpri semantics): exempt from decay
	recentCPU sim.Time // decayed CPU usage for the fair-share option
	state     State

	homeCPU int // Unbound or a CPU index
	lastCPU int // CPU the thread last ran on, -1 if never ran
	cpu     *CPU

	burstLeft sim.Time   // remaining work of the current burst when not running
	burstEnd  *sim.Event // completion event while running
	cont      func()
	inCont    bool // a continuation is executing now
	moved     bool // the executing continuation has made its transition
	spinning  bool // busy-waiting in SpinWait, burning CPU until Signal

	wakeEv *sim.Event // pending sleep timer

	// finishFn and wakeFn are bound once at creation so the dispatch and
	// sleep hot paths schedule events without allocating a closure per
	// burst/sleep.
	finishFn func()
	wakeFn   func()

	// run queue bookkeeping (managed by runQueue)
	queue    *runQueue
	queueIdx int
	queueSeq uint64

	readySince sim.Time

	// Accounting, exported via Stats.
	cpuTime     sim.Time
	waitTime    sim.Time
	dispatches  uint64
	preemptions uint64
	migrations  uint64

	exitedAt sim.Time // when the thread exited or was killed (Supervisor recovery accounting)
}

// ThreadStats is a snapshot of a thread's scheduler accounting.
type ThreadStats struct {
	CPUTime     sim.Time // productive CPU time consumed (excludes stolen interrupt time)
	WaitTime    sim.Time // total time spent runnable-but-waiting
	Dispatches  uint64
	Preemptions uint64
	Migrations  uint64
}

// ID returns the node-unique thread id.
func (t *Thread) ID() int { return t.id }

// Name returns the debug name.
func (t *Thread) Name() string { return t.name }

// Node returns the owning node.
func (t *Thread) Node() *Node { return t.node }

// Priority returns the current dispatch priority.
func (t *Thread) Priority() Priority { return t.prio }

// State returns the current scheduling state.
func (t *Thread) State() State { return t.state }

// HomeCPU returns the bound CPU index, or Unbound.
func (t *Thread) HomeCPU() int { return t.homeCPU }

// Stats returns a snapshot of the thread's accounting counters.
func (t *Thread) Stats() ThreadStats {
	return ThreadStats{
		CPUTime:     t.cpuTime,
		WaitTime:    t.waitTime,
		Dispatches:  t.dispatches,
		Preemptions: t.preemptions,
		Migrations:  t.migrations,
	}
}

func (t *Thread) String() string {
	return fmt.Sprintf("%s(id=%d prio=%v %v)", t.name, t.id, t.prio, t.state)
}

// Start makes a new thread runnable; fn is its first continuation.
func (t *Thread) Start(fn func()) {
	if t.state != StateNew {
		panic("kernel: Start on " + t.String())
	}
	if fn == nil {
		panic("kernel: Start with nil continuation")
	}
	t.cont = fn
	t.burstLeft = 0
	t.node.makeReady(t)
}

// transition validates and flags a continuation-context state change.
func (t *Thread) transition(op string) {
	if t.state != StateRunning || !t.inCont {
		panic(fmt.Sprintf("kernel: %s outside continuation on %v", op, t))
	}
	if t.moved {
		panic(fmt.Sprintf("kernel: second transition (%s) in one continuation on %v", op, t))
	}
	t.moved = true
}

// Run continues executing on the current CPU for d of CPU time, then invokes
// then. d may be zero.
func (t *Thread) Run(d sim.Time, then func()) {
	t.transition("Run")
	if d < 0 {
		panic("kernel: Run with negative duration")
	}
	if then == nil {
		panic("kernel: Run with nil continuation")
	}
	t.cont = then
	t.beginBurst(d)
}

func (t *Thread) runContinuation() {
	t.inCont = true
	t.moved = false
	cont := t.cont
	t.cont = nil
	cont()
	t.inCont = false
	if !t.moved {
		panic("kernel: continuation of " + t.name + " ended without Run/Sleep/Block/Exit")
	}
}

// Sleep releases the CPU and wakes after at least d, rounded up to the
// owning CPU's next timer tick when the node quantizes timers (as kernel
// timer wheels do). then runs once the thread is dispatched again.
func (t *Thread) Sleep(d sim.Time, then func()) {
	t.SleepUntil(t.node.sched.Now()+d, then)
}

// SleepUntil is Sleep with an absolute deadline.
func (t *Thread) SleepUntil(when sim.Time, then func()) {
	t.transition("Sleep")
	if then == nil {
		panic("kernel: Sleep with nil continuation")
	}
	n := t.node
	if when < n.sched.Now() {
		when = n.sched.Now()
	}
	wake := n.timerFireTime(t, when)
	t.cont = then
	t.state = StateSleeping
	n.trace(EvSleep, t, int64(wake)) // trace before release so the CPU is known
	n.releaseCPU(t)
	t.wakeEv = n.sched.At(wake, t.wakeFn)
}

// Block releases the CPU until another component calls Wakeup. then runs
// once the thread is woken and dispatched again.
func (t *Thread) Block(then func()) {
	t.transition("Block")
	if then == nil {
		panic("kernel: Block with nil continuation")
	}
	t.cont = then
	t.state = StateBlocked
	t.node.trace(EvBlock, t, 0) // trace before release so the CPU is known
	t.node.releaseCPU(t)
}

// SpinWait busy-waits: the thread keeps consuming CPU (it remains
// dispatchable and preemptible like any running thread) until another
// component calls Signal, at which point then runs — immediately, if the
// thread holds a CPU at that instant. This models poll-mode MPI waits
// (IBM MPI's default), where a task in a collective burns its processor
// while waiting and picks the message up with zero wakeup latency.
func (t *Thread) SpinWait(then func()) {
	t.transition("SpinWait")
	if then == nil {
		panic("kernel: SpinWait with nil continuation")
	}
	t.cont = then
	t.spinning = true
	// A spinner needs no completion event: it burns CPU until Signal (or a
	// preemption) intervenes. Keeping spinners out of the event queue is a
	// large win — every receive wait would otherwise push and cancel a
	// far-future event. Segment bookkeeping continues from the burst that
	// just finished.
	n := t.node
	c := t.cpu
	c.busySince = n.sched.Now()
	c.stolenMark = c.stolen
}

// Spinning reports whether the thread is in a SpinWait.
func (t *Thread) Spinning() bool { return t.spinning }

// Signal ends a SpinWait. If the spinner currently holds a CPU its
// continuation runs immediately (polling picked up the event); if it was
// preempted off its CPU it continues as soon as it is dispatched again.
func (t *Thread) Signal() {
	if !t.spinning {
		panic("kernel: Signal on non-spinning " + t.String())
	}
	t.spinning = false
	n := t.node
	switch t.state {
	case StateRunning:
		n.closeSegment(t)
		t.runContinuation()
	case StateReady:
		// Preempted mid-spin: collapse the remaining spin burst so the
		// continuation runs at next dispatch.
		t.burstLeft = 0
	default:
		panic("kernel: spinning thread in state " + t.state.String())
	}
}

// Wakeup makes a Blocked thread runnable. Unlike Sleep expiry, wakeups are
// interrupt-driven (e.g. message arrival) and are never tick-quantized.
func (t *Thread) Wakeup() {
	if t.state != StateBlocked {
		panic("kernel: Wakeup on " + t.String())
	}
	t.burstLeft = 0
	t.node.makeReady(t)
}

// Exit terminates the thread.
func (t *Thread) Exit() {
	t.transition("Exit")
	t.state = StateExited
	t.exitedAt = t.node.sched.Now()
	t.node.trace(EvExit, t, 0) // trace before release so the CPU is known
	t.node.releaseCPU(t)
}

// SetPriority changes the thread's dispatch priority. As with AIX's
// setpri(), an explicitly set priority is fixed: the thread stops
// participating in usage decay. Depending on the node's options the change
// may trigger an immediate forced preemption (IPI), a reverse preemption,
// or nothing until the next natural notice point.
func (t *Thread) SetPriority(p Priority) {
	t.basePrio = p
	t.fixedPrio = true
	t.node.setPriority(t, p)
}

// Kill forcibly terminates the thread from any state (failure injection and
// job teardown). Pending timers and bursts are canceled; if the thread was
// running, its CPU dispatches the next candidate.
func (t *Thread) Kill() {
	n := t.node
	switch t.state {
	case StateExited:
		return
	case StateRunning:
		if t.burstEnd != nil {
			n.sched.Engine().Cancel(t.burstEnd)
			t.burstEnd = nil
		}
		t.state = StateExited
		n.trace(EvExit, t, 1)
		n.releaseCPU(t)
	case StateReady:
		t.queue.Remove(t)
		t.state = StateExited
	case StateSleeping:
		if t.wakeEv != nil {
			n.sched.Engine().Cancel(t.wakeEv)
			t.wakeEv = nil
		}
		t.state = StateExited
	default:
		t.state = StateExited
	}
	t.exitedAt = n.sched.Now()
	t.cont = nil
	if t.cpu == nil {
		n.trace(EvExit, t, 1)
	}
}
