package sim

import (
	"fmt"
	"time"
)

// Event is a scheduled callback. Events are created through Engine.At or
// Engine.After and may be canceled before they fire. Periodic work is a
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

	// gen is the event's lease generation. Queue entries are stamped with
	// the generation current when they were inserted; cancellation and
	// rescheduling are lazy (O(1)) — they bump gen, and stale entries are
	// recognized and dropped when the queue reaches them.
	gen      uint64
	pending  bool // scheduled and not yet fired or canceled
	canceled bool
	when     Time
}

// When reports the time the event is scheduled to fire.
func (e *Event) When() Time { return e.when }

// Canceled reports whether Cancel was called on the event.
func (e *Event) Canceled() bool { return e.canceled }

// entry is one queue cell: comparisons touch only this contiguous struct,
// never the *Event, which keeps the hot ordering loops cache-friendly. An
// entry is live while its generation matches the event's current lease;
// canceled or rescheduled leases leave stale entries behind that are
// skipped when encountered. seq carries the time the entry was scheduled
// and its order among that instant's schedules (see seqShift), so the
// entry stays 32 bytes.
type entry struct {
	when Time
	seq  uint64
	ev   *Event
	gen  uint64
}

func (a entry) before(b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// compare is before as a three-way comparison, for slices.SortFunc.
func (a entry) compare(b entry) int {
	if a.before(b) {
		return -1
	}
	if b.before(a) {
		return 1
	}
	return 0
}

// live reports whether the entry still represents its event's current lease.
func (en entry) live() bool {
	return en.ev.pending && en.gen == en.ev.gen
}

// entryHeap is a 4-ary min-heap of entries ordered by (when, seq). It does
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
	// the clock reaches it, which preserves exact (when, seq) firing order.
	CoreWheel Core = iota
	// CoreHeap is the single 4-ary heap the simulator originally shipped
	// with. It is kept as the reference implementation: differential tests
	// assert both cores fire identically, and benchmarks use it as the
	// baseline.
	CoreHeap
	// CoreSharded requests the conservative time-window parallel core: one
	// wheel-backed shard per cluster node, coordinated by a ShardGroup (see
	// sharded.go). The selection is honored by cluster.Build, which knows
	// the shard topology; a bare NewEngine call cannot shard a single queue
	// and falls back to the timer wheel.
	CoreSharded
)

// DefaultCore is the queue implementation NewEngine uses. Tests flip it to
// CoreHeap to run whole simulations against the reference queue; both cores
// produce bit-identical simulations.
var DefaultCore = CoreWheel

// An entry's seq packs the time it was scheduled, in nanoseconds, above a
// seqShift-bit counter, so entries due at the same instant sort by (time
// scheduled, order scheduled). An engine numbers its own schedules of one
// instant from the counter's lower half; a ShardGroup numbers the
// cross-shard deliveries it merges from the upper half (mergedSeq).
const (
	seqShift  = 20
	mergedSeq = 1 << (seqShift - 1)
	// seqTimeLimit is the first time the packing cannot hold: 2^44 ns,
	// about 4.89 hours.
	seqTimeLimit = Time(1) << (64 - seqShift)
)

// eventPoolCap bounds the free list of recycled Event records. Beyond this
// the records are left to the garbage collector; the cap only exists to
// stop a burst of pending events from pinning memory forever.
const eventPoolCap = 4096

// Engine is the discrete-event simulation core. It is not safe for
// concurrent use; the whole simulation is single-goroutine by design so that
// runs are deterministic.
//
// The ordering contract is the same on every Core: events fire in order of
// (time due, time scheduled, order scheduled). On one engine the order
// scheduled is the order of the At, After and Reschedule calls. A
// ShardGroup keeps the contract across shards by ordering each cross-shard
// delivery as scheduled at its send time, so it fires among the
// destination's own events where a serial engine fires it. One
// tie stays open: events that two shards schedule at the same instant, due
// at the same instant. A serial engine orders them by global execution
// order, which a shard cannot see; a shard fires its own events first, then
// the deliveries in order of source shard and staging.
//
// The numbering has limits (see seqShift), and a ShardGroup panics past
// them: simulated time below 2^44 ns (about 4.89 hours), at most 2^19
// events scheduled at one instant on one shard, and at most 2^19
// deliveries merged into one shard at one barrier. A serial engine's order
// needs none of them, since its sequence number only grows; past 2^44 ns
// the number can wrap, at the earliest 2^20 schedules after one made at
// 2^44-1 ns.
type Engine struct {
	now       Time
	seq       uint64 // the last sequence number drawn (nextSeq)
	fired     uint64
	scheduled uint64
	live      int // pending events (excludes lazily-canceled entries)
	stopped   bool
	rng       *Source
	free      []*Event

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
// new generation for it.
func (e *Engine) lease(t Time) *Event {
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
	} else {
		ev = &Event{}
	}
	ev.gen++
	ev.pending = true
	ev.canceled = false
	ev.when = t
	return ev
}

// recycle returns a no-longer-pending Event record to the pool. Its gen is
// preserved so stale queue entries keep mismatching.
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

// nextSeq advances seq to the number of an entry scheduled now: one past
// the last, and at least now's packed time. On one engine it only grows.
// It leaves the number in e.seq rather than returning it, which keeps At
// within the inliner's budget.
func (e *Engine) nextSeq() {
	e.seq = max(e.seq+1, uint64(e.now)<<seqShift)
}

// enqueue inserts an entry for ev at time t with sequence number seq.
func (e *Engine) enqueue(ev *Event, t Time, seq uint64) {
	en := entry{when: t, seq: seq, ev: ev, gen: ev.gen}
	if e.useHeap {
		e.heap.push(en)
	} else {
		e.wheel.insert(en)
	}
}

// At schedules fn to run at time t. Scheduling in the past (t < Now) panics:
// it always indicates a model bug, and silently reordering time would
// destroy causality.
func (e *Engine) At(t Time, fn func()) *Event {
	e.nextSeq()
	return e.at(t, e.seq, fn)
}

// at is At with the entry's sequence number given. A ShardGroup merges
// cross-shard deliveries through it.
func (e *Engine) at(t Time, seq uint64, fn func()) *Event {
	if fn == nil {
		panic("sim: At with nil fn")
	}
	if t < e.now {
		panic(fmt.Sprintf("%s: scheduling at %v before now %v", e.who(), t, e.now))
	}
	ev := e.lease(t)
	ev.fn = fn
	e.enqueue(ev, t, seq)
	e.scheduled++
	e.live++
	return ev
}

// After schedules fn to run d from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: After with negative duration %v", d))
	}
	return e.At(e.now+d, fn)
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
	ev.gen++ // invalidate the queued entry
	e.live--
	e.recycle(ev)
}

// Reschedule moves a pending event to a new time, preserving identity. It
// is equivalent to Cancel + At but cheaper and keeps the same *Event.
// Panics if the event already fired or was canceled, or if t is in the
// past.
func (e *Engine) Reschedule(ev *Event, t Time) {
	if ev == nil || !ev.pending {
		panic("sim: Reschedule of dead event")
	}
	if t < e.now {
		panic(fmt.Sprintf("%s: rescheduling an event due at %v to %v, before now %v", e.who(), ev.when, t, e.now))
	}
	ev.gen++ // the old entry goes stale in place
	ev.when = t
	e.nextSeq()
	e.enqueue(ev, t, e.seq)
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
		// The shard's own schedules of an instant must number below the
		// deliveries sent at that instant. The clock moves only in Step, so
		// checking here covers every instant the shard schedules at.
		if e.seq >= uint64(e.now)<<seqShift|mergedSeq {
			panic(fmt.Sprintf("sim: shard %d scheduled more events at %v than the %d it can order at one instant",
				e.shard, e.now, mergedSeq))
		}
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

// ScheduleOn schedules fn at time t on dst, which may be a different shard
// of the same ShardGroup. For a standalone destination or dst == e it is
// exactly dst.At. Across shards the event is staged in this shard's outbox
// and merged into dst's queue at the window barrier, ordered as scheduled at
// its send time (see Engine); t must lie at or past
// the current window's end (the conservative lookahead guarantee), which
// holds for anything scheduled at least the group lookahead in the future.
func (e *Engine) ScheduleOn(dst *Engine, t Time, fn func()) {
	if dst == e || e.group == nil || dst.group == nil {
		dst.At(t, fn)
		return
	}
	if dst.group != e.group {
		panic("sim: ScheduleOn across different ShardGroups")
	}
	if e.windowEnd == 0 {
		// Between windows (setup, teardown, or the serial coordinator
		// phase): the destination queue is quiescent, schedule directly.
		dst.At(t, fn)
		return
	}
	if t < e.windowEnd {
		panic(fmt.Sprintf("%s: event for shard %d at %v inside the current window (end %v): below the group lookahead",
			e.who(), dst.shard, t, e.windowEnd))
	}
	e.outbox[dst.shard] = append(e.outbox[dst.shard], crossEntry{when: t, sent: e.now, fn: fn})
}
