package sim

import (
	"cmp"
	"fmt"
	"time"
)

// Event is a scheduled callback. Events are created through a Handle's At
// or After and may be canceled before they fire. Periodic work is a
// callback that schedules its next firing with At: Step recycles a fired
// record before it runs the callback, so the re-arm reuses the record and
// allocates nothing. The zero Event is not usable.
//
// Ownership discipline: the engine recycles Event records aggressively —
// a fired event's *Event may be reused by the next schedule, and Cancel
// returns the record to the pool immediately. Do not retain, re-read or
// re-Cancel an event pointer after its callback has run or after you
// canceled it. Canceling a pending event you scheduled is always safe.
type Event struct {
	fn func()

	// key is the key of the event's current queue entry. Every schedule
	// draws a key no other schedule on the engine draws (see Handle), so
	// cancellation and rescheduling are lazy (O(1)): they leave the old entry
	// in place, and an entry whose key is no longer its event's is dropped
	// when the queue reaches it.
	key      uint64
	pending  bool // scheduled and not yet fired or canceled
	canceled bool
	when     Time
}

// When reports the time the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// entry is one queue cell: comparisons touch only this contiguous struct,
// never the *Event, which keeps the hot ordering loops cache-friendly.
// Entries fire in order of (when, sched, key): the time due, the time
// scheduled, and the schedule's key, which names the scheduling node above
// that node's own order (see Handle). An entry is live while its key is its
// event's; canceled or rescheduled leases leave stale entries behind that
// are skipped when encountered.
type entry struct {
	when  Time
	sched Time
	key   uint64
	ev    *Event
}

func (a entry) before(b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	if a.sched != b.sched {
		return a.sched < b.sched
	}
	return a.key < b.key
}

// compare is before as a three-way comparison, for slices.SortFunc.
func (a entry) compare(b entry) int {
	if c := cmp.Compare(a.when, b.when); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sched, b.sched); c != 0 {
		return c
	}
	return cmp.Compare(a.key, b.key)
}

// live reports whether the entry still represents its event's current lease.
func (en entry) live() bool {
	return en.ev.pending && en.key == en.ev.key
}

// entryHeap is a 4-ary min-heap of entries in entry.before order. It does
// no position tracking: removal happens only at the top, and dead entries
// are filtered by the caller via entry.live.
type entryHeap []entry

func (h entryHeap) siftUp(i int) {
	item := h[i]
	for i > 0 {
		parent := (i - 1) >> 2
		if !item.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = item
}

func (h entryHeap) siftDown(i int) {
	n := len(h)
	item := h[i]
	for {
		first := i<<2 + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h[c].before(h[best]) {
				best = c
			}
		}
		if !h[best].before(item) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = item
}

func (h *entryHeap) push(en entry) {
	*h = append(*h, en)
	h.siftUp(len(*h) - 1)
}

func (h *entryHeap) pop() entry {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = entry{} // release the *Event reference
	*h = old[:n]
	if n > 0 {
		old[:n].siftDown(0)
	}
	return top
}

// Core selects the event-queue implementation backing an Engine.
type Core int

const (
	// CoreWheel is the hierarchical timer wheel (the default): O(1)
	// schedule, cancel and reschedule, with each near slot sorted once when
	// the clock reaches it, which preserves the exact entry.before order.
	CoreWheel Core = iota
	// CoreHeap is the single 4-ary heap the simulator originally shipped
	// with. It is kept as the reference implementation: differential tests
	// assert both cores fire identically, and benchmarks use it as the
	// baseline.
	CoreHeap
)

// DefaultCore is the queue implementation NewEngine uses. Tests and
// enginebench flip it to CoreHeap to run whole simulations against the
// reference queue; both cores produce bit-identical simulations. A
// ShardGroup's shards are always wheels.
var DefaultCore = CoreWheel

// A schedule's key packs the scheduling node's id above that node's own
// order, a count orderBits wide of the schedules it has made.
const orderBits = 44

// MaxNodes bounds the node ids a Handle takes: ids lie in [0, MaxNodes).
const MaxNodes = 1 << (64 - orderBits)

// eventPoolCap bounds the free list of recycled Event records. Beyond this
// the records are left to the garbage collector; the cap only exists to
// stop a burst of pending events from pinning memory forever.
const eventPoolCap = 4096

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use; the whole simulation is single-goroutine by design so that
// runs are deterministic.
//
// Every Core fires events in order of one key: (time due, time scheduled,
// scheduling node, that node's order). Every schedule goes through the
// Handle of the node it is made for, which numbers that node's schedules in
// the order it makes them. A serial engine and the shards of a ShardGroup
// compute every key from the same facts, and a cross-shard delivery carries
// its sender's key, so a sharded run fires each shard's events in the
// serial engine's order, ties included.
//
// A node numbers up to 2^44-1 schedules (see orderBits): at 10^8
// schedules a second, more than two days of one node's work. Past that its
// order would carry into the id.
type Engine struct {
	now       Time
	fired     uint64
	scheduled uint64
	live      int // pending events (excludes lazily-canceled entries)
	stopped   bool
	rng       *Source
	free      []*Event

	ids *[]uint64 // bit i is set once NewHandle issues node id i; shared by a ShardGroup's shards

	useHeap bool
	heap    entryHeap // CoreHeap's single queue

	wheel wheel // CoreWheel state

	// Shard-group state (nil/zero outside a ShardGroup). Only the shard's
	// owning worker goroutine touches the engine during a window; the
	// coordinator touches it only between windows, so none of these fields
	// need synchronization.
	group     *ShardGroup
	shard     int
	windowEnd Time           // exclusive bound of the window being executed; 0 when idle
	outbox    [][]crossEntry // staged cross-shard events, indexed by destination shard

	// Wall-clock deadline (0 = none): Run breaks out once real time passes
	// it, leaving the simulation mid-run with deadlineHit set. Checked every
	// 4096 events so the hot loop stays syscall-free.
	deadlineNs  int64
	deadlineHit bool
}

// NewEngine returns an engine at time zero whose random streams derive from
// seed. The same seed always yields the same simulation, under either Core.
func NewEngine(seed int64) *Engine { return NewEngineWithCore(seed, DefaultCore) }

// NewEngineWithCore is NewEngine with an explicit queue implementation.
func NewEngineWithCore(seed int64, core Core) *Engine {
	return &Engine{rng: NewSource(seed), useHeap: core == CoreHeap}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Pending reports the number of events waiting in the queue.
func (e *Engine) Pending() int { return e.live }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Scheduled reports how many events have ever been scheduled.
func (e *Engine) Scheduled() uint64 { return e.scheduled }

// CounterRand returns the counter-based random stream for (name, ids...)
// rooted at the engine seed, positioned at counter zero. Every shard of a
// ShardGroup carries the same seed, so the stream a given identity names is
// the same no matter which shard derives it — the foundation for sampling
// randomness under parallel execution without order dependence.
func (e *Engine) CounterRand(name string, ids ...uint64) CounterRand {
	return e.rng.CounterRand(name, ids...)
}

// Source returns the engine's stream factory (for components that derive
// many keyed streams and want to skip the engine indirection).
func (e *Engine) Source() *Source { return e.rng }

// lease takes an Event record from the pool (or allocates one) and starts a
// new lease on it under key.
func (e *Engine) lease(t Time, key uint64) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.key = key
	ev.pending = true
	ev.canceled = false
	ev.when = t
	return ev
}

// recycle returns a no-longer-pending Event record to the pool.
func (e *Engine) recycle(ev *Event) {
	ev.fn = nil
	if len(e.free) < eventPoolCap {
		e.free = append(e.free, ev)
	}
}

// who names the engine in a panic message: its shard, on a shard of a
// ShardGroup.
func (e *Engine) who() string {
	if e.group == nil {
		return "sim"
	}
	return fmt.Sprintf("sim: shard %d", e.shard)
}

// enqueue inserts en into the queue.
func (e *Engine) enqueue(en entry) {
	if e.useHeap {
		e.heap.push(en)
	} else {
		e.wheel.insert(en)
	}
}

// at schedules fn at time t as scheduled at sched under key. Handles
// schedule through it, and a ShardGroup merges cross-shard deliveries
// through it.
func (e *Engine) at(t, sched Time, key uint64, fn func()) *Event {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	if t < e.now {
		panic(fmt.Sprintf("%s: scheduling at %v before now %v", e.who(), t, e.now))
	}
	ev := e.lease(t, key)
	ev.fn = fn
	e.enqueue(entry{when: t, sched: sched, key: key, ev: ev})
	e.scheduled++
	e.live++
	return ev
}

// Cancel removes ev from the queue and recycles the record. Cancellation is
// lazy — O(1) — and the queue drops the dead entry when it reaches it.
// Canceling an already-fired or already-canceled event is a no-op, but do
// not retain pointers for that purpose: a canceled record may be reused by
// a later schedule.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || !ev.pending {
		return
	}
	ev.pending = false
	ev.canceled = true
	e.live--
	e.recycle(ev)
}

// popNext removes and returns the earliest live entry.
func (e *Engine) popNext() (entry, bool) {
	if e.useHeap {
		for len(e.heap) > 0 {
			if en := e.heap.pop(); en.live() {
				return en, true
			}
		}
		return entry{}, false
	}
	return e.wheel.popNext()
}

// peekNext reports the earliest live entry's time without firing it. The
// wheel drains no near slot that starts at or after limit to find it, and
// reports false when no live entry lies below limit (see wheel.advance).
func (e *Engine) peekNext(limit Time) (Time, bool) {
	if e.useHeap {
		for len(e.heap) > 0 {
			if e.heap[0].live() {
				return e.heap[0].when, true
			}
			e.heap.pop()
		}
		return 0, false
	}
	return e.wheel.peekNext(limit)
}

// Step fires the next pending event, advancing the clock to its time.
// It reports false if the queue is empty or the engine was stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	en, ok := e.popNext()
	if !ok {
		return false
	}
	if en.when < e.now {
		panic("sim: event queue time went backwards")
	}
	ev := en.ev
	e.now = en.when
	e.fired++
	e.live--
	ev.pending = false
	fn := ev.fn
	// Recycle before running fn: fn must not retain ev (documented), and
	// recycling first lets fn's own scheduling reuse the record.
	e.recycle(ev)
	fn()
	return true
}

// Run executes events until the queue is empty, the engine is stopped, or
// the next event lies strictly after until. The clock is left at the last
// fired event's time (it does not jump to until). It returns the number of
// events fired by this call.
func (e *Engine) Run(until Time) uint64 {
	if e.group != nil {
		panic("sim: Run on a shard of a ShardGroup; drive the group with ShardGroup.Run")
	}
	start := e.fired
	for !e.stopped {
		if e.deadlineNs != 0 && e.fired&4095 == 0 && time.Now().UnixNano() > e.deadlineNs {
			e.deadlineHit = true
			break
		}
		when, ok := e.peekNext(Forever)
		if !ok || when > until {
			break
		}
		e.Step()
	}
	return e.fired - start
}

// SetWallDeadline arms a real-time budget for Run: once the wall clock
// passes t, Run returns early and WallDeadlineHit reports true. The deadline
// does not affect simulated time or determinism of the events that did fire;
// it only bounds how long a run may hold the process. Zero time disarms it.
func (e *Engine) SetWallDeadline(t time.Time) {
	if t.IsZero() {
		e.deadlineNs = 0
		return
	}
	e.deadlineNs = t.UnixNano()
}

// WallDeadlineHit reports whether a Run was cut short by SetWallDeadline.
func (e *Engine) WallDeadlineHit() bool { return e.deadlineHit }

// RunUntilIdle executes events until none remain or the engine is stopped.
func (e *Engine) RunUntilIdle() uint64 { return e.Run(Forever) }

// Stop halts the run loop after the current event returns. Subsequent Step
// and Run calls do nothing until the engine is discarded; Stop is intended
// for terminating a run once the measured workload completes, without
// draining periodic daemon events that would otherwise run forever.
//
// On a shard of a ShardGroup, Stop stops the whole group: every shard
// still finishes the window in flight (so the stop point is independent of
// worker scheduling), and the group's run loop exits at the next barrier.
func (e *Engine) Stop() {
	if e.group != nil {
		e.group.Stop()
		return
	}
	e.stopped = true
}

// Stopped reports whether Stop was called.
func (e *Engine) Stopped() bool {
	if e.group != nil {
		return e.group.Stopped()
	}
	return e.stopped
}

// runWindow fires every pending event with when < end and reports how many
// fired. It is the per-shard body of one conservative time window; the
// ShardGroup guarantees no cross-shard event with when < end can still be
// in flight when it is called.
func (e *Engine) runWindow(end Time) int {
	e.windowEnd = end
	n := 0
	for !e.stopped {
		when, ok := e.peekNext(end)
		if !ok || when >= end {
			break
		}
		e.Step()
		n++
	}
	e.windowEnd = 0
	return n
}

// Handle schedules on an engine for one node. It keys each schedule with
// the node's id above the node's own order, so the events a node schedules
// at one instant for one instant fire in the order it scheduled them, and
// those of different nodes in order of node id. A serial engine and a shard
// draw the same keys, since a node's order counts only its own schedules.
// Each node has one handle per engine, made once by NewHandle, and the code
// that runs for the node schedules through it. A handle is used only by its
// engine's goroutine.
type Handle struct {
	eng *Engine
	key uint64 // the node id above the order of its last schedule
}

// NewHandle returns the scheduling handle on e for the node with the given
// id, which must lie in [0, MaxNodes). It panics on an id it has issued
// before on e or, for a shard, on any shard of its group: two handles for
// one node would draw equal keys, and a record re-leased under a stale
// entry's key would revive that entry. Make handles before the run starts.
func (e *Engine) NewHandle(node int) *Handle {
	if node < 0 || node >= MaxNodes {
		panic(fmt.Sprintf("sim: node id %d outside [0, %d)", node, MaxNodes))
	}
	if e.ids == nil {
		e.ids = new([]uint64)
	}
	ids, w, bit := e.ids, node>>6, uint64(1)<<(node&63)
	if w >= len(*ids) {
		*ids = append(*ids, make([]uint64, w+1-len(*ids))...)
	}
	if (*ids)[w]&bit != 0 {
		panic(fmt.Sprintf("%s: a second handle for node %d", e.who(), node))
	}
	(*ids)[w] |= bit
	return &Handle{eng: e, key: uint64(node) << orderBits}
}

// Engine returns the engine h schedules on.
func (h *Handle) Engine() *Engine { return h.eng }

// Node returns the id of the node h schedules for.
func (h *Handle) Node() int { return int(h.key >> orderBits) }

// Now reports the current simulated time of h's engine.
func (h *Handle) Now() Time { return h.eng.now }

// At schedules fn to run at time t. Scheduling in the past (t < Now)
// panics: it always indicates a model bug, and silently reordering time
// would destroy causality.
func (h *Handle) At(t Time, fn func()) *Event {
	h.key++
	return h.eng.at(t, h.eng.now, h.key, fn)
}

// After schedules fn to run d from now. Negative d panics.
func (h *Handle) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: After with negative duration %v", d))
	}
	return h.At(h.eng.now+d, fn)
}

// Reschedule moves a pending event on h's engine to a new time, preserving
// identity, keyed as a new schedule of h's node. It is equivalent to Cancel
// + At but cheaper and keeps the same *Event. Panics if the event already
// fired or was canceled, or if t is in the past.
func (h *Handle) Reschedule(ev *Event, t Time) {
	e := h.eng
	if ev == nil || !ev.pending {
		panic("sim: Reschedule of dead event")
	}
	if t < e.now {
		panic(fmt.Sprintf("%s: rescheduling an event due at %v to %v, before now %v", e.who(), ev.when, t, e.now))
	}
	h.key++
	ev.key = h.key // the old entry goes stale in place
	ev.when = t
	e.enqueue(entry{when: t, sched: e.now, key: h.key, ev: ev})
}

// ScheduleOn schedules fn at time t on dst, keyed as At keys it. Outside a
// window, or for dst on h's own engine, that is dst's queue at once. Inside
// a window, an event for another shard of the group is staged in this
// shard's outbox and merged into dst's queue at the window barrier with its
// send time and key; t must lie at or past the window's end (the
// conservative lookahead guarantee), which holds for anything scheduled at
// least the group lookahead in the future.
func (h *Handle) ScheduleOn(dst *Engine, t Time, fn func()) {
	e := h.eng
	if dst == e || e.windowEnd == 0 {
		h.key++
		dst.at(t, e.now, h.key, fn)
		return
	}
	if dst.group != e.group {
		panic("sim: ScheduleOn across different ShardGroups")
	}
	if t < e.windowEnd {
		panic(fmt.Sprintf("%s: event for shard %d at %v inside the current window (end %v): below the group lookahead",
			e.who(), dst.shard, t, e.windowEnd))
	}
	h.key++
	e.outbox[dst.shard] = append(e.outbox[dst.shard], crossEntry{when: t, sent: e.now, key: h.key, fn: fn})
}
