package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// The timer wheel must be observationally identical to the reference 4-ary
// heap: same events, same fire times, same order — including the key
// tie-break among same-time events — under any interleaving of schedules,
// cancels and reschedules. These tests drive both cores with mirrored
// operation sequences and compare complete fire logs.

// firing records one observed event execution.
type firing struct {
	when  Time
	label string
}

// mirroredEngines runs the same randomized operation sequence against a
// wheel-core and a heap-core engine and returns both fire logs.
func mirroredEngines(t *testing.T, seed int64, ops, maxDelta int) (wheelLog, heapLog []firing) {
	t.Helper()
	run := func(core Core) []firing {
		var log []firing
		e := NewEngineWithCore(1, core)
		h := e.NewHandle(0)
		rng := rand.New(rand.NewSource(seed))
		var live []*Event
		record := func(label string) func() {
			return func() { log = append(log, firing{e.Now(), label}) }
		}
		for i := 0; i < ops; i++ {
			switch op := rng.Intn(10); {
			case op < 5: // schedule
				d := Time(rng.Intn(maxDelta)) + 1
				label := string(rune('a' + i%26))
				live = append(live, h.After(d, record(label)))
			case op < 7 && len(live) > 0: // cancel
				idx := rng.Intn(len(live))
				e.Cancel(live[idx])
				live = append(live[:idx], live[idx+1:]...)
			case op < 9 && len(live) > 0: // reschedule
				idx := rng.Intn(len(live))
				h.Reschedule(live[idx], e.Now()+Time(rng.Intn(maxDelta))+1)
			default: // step, retiring fired events from the live set
				if e.Pending() > 0 {
					e.Step()
					n := 0
					for _, ev := range live {
						if ev.When() > e.Now() || ev.Canceled() {
							live[n] = ev
							n++
						}
					}
					// Events that fired were recycled; drop anything whose
					// record we can no longer trust by rebuilding from scratch
					// is not possible, so filter conservatively via Pending
					// bookkeeping below.
					live = live[:n]
				}
			}
		}
		e.RunUntilIdle()
		return log
	}
	return run(CoreWheel), run(CoreHeap)
}

// TestWheelMatchesHeapRandomized is the differential property test: 50
// random operation mixes, fire logs must match event for event.
func TestWheelMatchesHeapRandomized(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		for _, maxDelta := range []int{50, 5000, 20_000_000} {
			wheelLog, heapLog := mirroredEngines(t, seed, 400, maxDelta)
			sameFirings(t, fmt.Sprintf("seed %d delta %d", seed, maxDelta), wheelLog, heapLog)
		}
	}
}

// queueDriver schedules numbered events on one engine, records the order
// they fire in, and lets a test cancel or reschedule a pending one. Run on a
// wheel-core and a heap-core engine with the same inputs, two drivers must
// produce the same log.
type queueDriver struct {
	e       *Engine
	nodes   []*Handle // by node id, made on first use
	log     []firing
	bounds  []bound  // what each probe saw of the earliest live time
	evs     []*Event // by id; nil once fired or canceled
	pending []int    // ids that may still be pending
	onFire  func()   // runs after each firing is logged, if set
}

// bound is one probe of the earliest live time: a lower bound on the wheel,
// the exact time on the heap. exact marks a wheel probe that must be exact.
type bound struct {
	at    Time
	exact bool
}

// probeEarliest records wheel.earliest, which must move no frontier and is
// exact whenever a live entry lies below the frontier or both wheels are
// empty. The heap core records its earliest live time.
func (d *queueDriver) probeEarliest(t *testing.T) {
	t.Helper()
	if d.e.useHeap {
		at, ok := d.e.peekNext(Forever)
		if !ok {
			at = Forever
		}
		d.bounds = append(d.bounds, bound{at, true})
		return
	}
	w := &d.e.wheel
	frontier := w.frontier
	exact := w.nearCount == 0 && w.farCount == 0 ||
		slices.ContainsFunc(w.run[w.next:], entry.live) || slices.ContainsFunc(w.late, entry.live)
	d.bounds = append(d.bounds, bound{w.earliest(), exact})
	if w.frontier != frontier {
		t.Fatalf("earliest moved the frontier from %v to %v", frontier, w.frontier)
	}
}

// probePeek peeks with a limit. The wheel must drain no near slot starting at
// or after limit, so its frontier either stays or ends less than a slot past
// limit. A live entry the peek finds is the exact earliest; finding none
// bounds the earliest from below by limit. The heap core records its
// earliest live time.
func (d *queueDriver) probePeek(t *testing.T, limit Time) {
	t.Helper()
	w := &d.e.wheel
	frontier := w.frontier
	at, ok := d.e.peekNext(limit)
	switch {
	case d.e.useHeap && !ok:
		d.bounds = append(d.bounds, bound{Forever, true})
	case d.e.useHeap || ok:
		d.bounds = append(d.bounds, bound{at, true})
	default:
		d.bounds = append(d.bounds, bound{limit, false})
	}
	if w.frontier != frontier && w.frontier-nearSlotWidth >= limit {
		t.Fatalf("peek below %v moved the frontier from %v to %v, more than a slot past it", limit, frontier, w.frontier)
	}
}

// node returns the handle of node id, making it on first use.
func (d *queueDriver) node(id int) *Handle {
	for len(d.nodes) <= id {
		d.nodes = append(d.nodes, d.e.NewHandle(len(d.nodes)))
	}
	return d.nodes[id]
}

// schedule schedules an event at t through the given node's handle.
func (d *queueDriver) schedule(node int, t Time) {
	id := len(d.evs)
	label := strconv.Itoa(id)
	d.evs = append(d.evs, d.node(node).At(t, func() {
		d.log = append(d.log, firing{d.e.Now(), label})
		d.evs[id] = nil
		if d.onFire != nil {
			d.onFire()
		}
	}))
	d.pending = append(d.pending, id)
}

// pick returns the id of a pending event chosen by r, or -1 if none is.
func (d *queueDriver) pick(r int) int {
	for n := len(d.pending); n > 0; n = len(d.pending) {
		j := r % n
		if id := d.pending[j]; d.evs[id] != nil {
			return id
		}
		d.pending[j] = d.pending[n-1]
		d.pending = d.pending[:n-1]
	}
	return -1
}

func (d *queueDriver) cancel(r int) {
	if id := d.pick(r); id >= 0 {
		d.e.Cancel(d.evs[id])
		d.evs[id] = nil
	}
}

func (d *queueDriver) reschedule(node, r int, t Time) {
	if id := d.pick(r); id >= 0 {
		d.node(node).Reschedule(d.evs[id], t)
	}
}

// sameFirings fails t at the first firing where the wheel's log departs
// from the heap's.
func sameFirings(t *testing.T, what string, wheelLog, heapLog []firing) {
	t.Helper()
	for i := range wheelLog {
		if i >= len(heapLog) || wheelLog[i] != heapLog[i] {
			var h firing
			if i < len(heapLog) {
				h = heapLog[i]
			}
			t.Fatalf("%s: firing %d differs: wheel %+v heap %+v", what, i, wheelLog[i], h)
		}
	}
	if len(wheelLog) != len(heapLog) {
		t.Fatalf("%s: wheel fired %d events, heap fired %d", what, len(wheelLog), len(heapLog))
	}
}

// sameBounds fails t at the first probe where the wheel's bound lies after
// the heap's earliest live time, or differs from it where it must be exact.
func sameBounds(t *testing.T, what string, wheel, heap []bound) {
	t.Helper()
	if len(wheel) != len(heap) {
		t.Fatalf("%s: wheel took %d probes, heap %d", what, len(wheel), len(heap))
	}
	for i, b := range wheel {
		if b.at > heap[i].at || b.exact && b.at != heap[i].at {
			t.Fatalf("%s: probe %d: wheel %+v, heap's earliest live time %v", what, i, b, heap[i].at)
		}
	}
}

// burstLog drives one engine through the traffic an Allreduce round gives
// the queue and returns the driver, with its fire log and probes. Four
// instants of one near slot each get a 256-event burst: half scheduled at
// time zero into the far wheel, half scheduled later by a spacer directly
// into the near wheel, so the older far entries cascade into the slot behind
// newer ones for the same instant. Two of the instants share a 64ns
// sub-slot, and three nodes take turns scheduling each burst, so its
// entries tie on (due, scheduled) across nodes. Each firing may schedule at,
// between and past those instants
// (below the frontier: before, at and after the sorted run's last entry),
// cancel or reschedule a pending event, peek, or probe the earliest live time
// with wheel.earliest or with a peek below a limit. Then the engine idles, a
// peek moves its frontier 5ms ahead of its clock, and a second round of
// bursts is scheduled beneath it.
func burstLog(t *testing.T, core Core, seed int64) *queueDriver {
	const burst = 256
	slot := Time(3*wheelSlots+5) * nearSlotWidth // in the fourth near window
	instants := []Time{slot + 8, slot + 40, slot + 72, slot + 3000}
	deltas := []Time{0, 1, 32, 64, 2992, 3500, 5000, 40_000}

	rng := rand.New(rand.NewSource(seed))
	d := &queueDriver{e: NewEngineWithCore(1, core)}
	e := d.e
	limit := 6000
	d.onFire = func() {
		if len(d.evs) >= limit {
			return
		}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			d.schedule(len(d.evs)%3, e.Now()+deltas[rng.Intn(len(deltas))])
		case 4:
			d.cancel(rng.Int())
		case 5:
			d.reschedule(len(d.evs)%3, rng.Int(), e.Now()+deltas[rng.Intn(len(deltas))])
		case 6:
			e.peekNext(Forever)
		case 7:
			d.probeEarliest(t)
		case 8:
			d.probePeek(t, e.Now()+deltas[rng.Intn(len(deltas))])
		}
	}
	for _, at := range instants {
		for i := 0; i < burst/2; i++ {
			d.schedule(i%3, at)
		}
	}
	d.node(0).At(slot-200*nearSlotWidth, func() {
		for _, at := range instants {
			for i := 0; i < burst/2; i++ {
				d.schedule(i%3, at)
			}
		}
	})
	e.RunUntilIdle()

	now := e.Now()
	lone := now + 5*Millisecond
	d.schedule(0, lone)
	e.Run(now) // fires nothing; the peek drains lone's slot
	limit = len(d.evs) + 6000
	for _, at := range []Time{now + 10, now + 3000, lone, lone + 100} {
		for i := 0; i < burst; i++ {
			d.schedule(i%3, at)
		}
	}
	e.RunUntilIdle()
	return d
}

// TestWheelMatchesHeapBursts is the differential test for dense slots:
// same-instant bursts, far-wheel cascades behind newer inserts, entries
// scheduled below the frontier, and a frontier far ahead of the clock.
func TestWheelMatchesHeapBursts(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		what := fmt.Sprintf("seed %d", seed)
		wheel, heap := burstLog(t, CoreWheel, seed), burstLog(t, CoreHeap, seed)
		sameFirings(t, what, wheel.log, heap.log)
		sameBounds(t, what, wheel.bounds, heap.bounds)
	}
}

// fuzzDelta maps an operation's class bits and argument to a delay: the
// same instant, within a 64ns sub-slot, within a near slot, the near wheel,
// the far wheel, or the overflow heap.
func fuzzDelta(class, arg byte) Time {
	v := Time(arg)
	switch class % 6 {
	case 0:
		return 0
	case 1:
		return v % 64
	case 2:
		return v * 16
	case 3:
		return v*nearSlotWidth + v
	case 4:
		return v<<farShift + 7*v
	default:
		return wheelSlots<<farShift + v<<24
	}
}

// fuzzLog decodes ops, two bytes per operation, and applies them to one
// engine: schedule one event, probe wheel.earliest, schedule a same-instant
// burst, cancel, reschedule, peek (without a limit for class 0, else below
// now plus the delay), step, or run up to a time. The class bits above the
// delay's name the node a schedule, burst or reschedule goes through: node
// 0 for classes 0-5, up to node 5 for classes 30-31, so that schedules of
// one instant by different nodes tie on (due, scheduled). It returns the
// driver, with the fire log, after draining the engine.
func fuzzLog(t *testing.T, core Core, ops []byte) *queueDriver {
	d := &queueDriver{e: NewEngineWithCore(1, core)}
	e := d.e
	for i := 0; i+1 < len(ops); i += 2 {
		op, arg := ops[i], ops[i+1]
		delta := fuzzDelta(op>>3, arg)
		node := int(op>>3) / 6
		switch op & 7 {
		case 0:
			d.schedule(node, e.Now()+delta)
		case 1:
			d.probeEarliest(t)
		case 2:
			for k := 0; k < int(arg%32)+2; k++ {
				d.schedule(node, e.Now()+fuzzDelta(op>>3, arg/32))
			}
		case 3:
			d.cancel(int(arg))
		case 4:
			d.reschedule(node, int(arg), e.Now()+delta)
		case 5:
			if op>>3 == 0 {
				e.peekNext(Forever)
			} else {
				d.probePeek(t, e.Now()+delta)
			}
		case 6:
			e.Step()
		case 7:
			e.Run(e.Now() + delta)
		}
	}
	e.RunUntilIdle()
	return d
}

// FuzzWheelMatchesHeap: any operation sequence fires identically on the
// wheel and on the reference heap.
func FuzzWheelMatchesHeap(f *testing.F) {
	// Bursts of 32 at 48ns and 112ns; after one step, schedules before, at
	// and after the run's last entry, a cancel and a reschedule.
	f.Add([]byte{0x12, 0x7e, 0x12, 0xfe, 0x06, 0, 0x08, 10, 0x00, 0, 0x10, 4,
		0x10, 7, 0x03, 5, 0x0c, 9, 0x06, 0, 0x06, 0})
	// Five events at 2,097,166ns go to the far wheel; steps to 1,052,431ns
	// put one newer event for the same instant directly into the near
	// wheel, ahead of the far burst's cascade.
	f.Add([]byte{0x22, 67, 0x20, 1, 0x06, 0, 0x10, 240, 0x06, 0, 0x08, 8,
		0x06, 0, 0x18, 255})
	// A peek moves the frontier ~800us ahead of the clock; bursts and a
	// reschedule land beneath it, then overflow and a bounded run.
	f.Add([]byte{0x18, 200, 0x05, 0, 0x0a, 0x7f, 0x12, 0xff, 0x04, 3,
		0x28, 9, 0x06, 0, 0x17, 100})
	// An event in the last near slot of the first window and one just past
	// the window, in the far wheel. The step leaves the frontier on the
	// window boundary with the far slot not yet cascaded: earliest must
	// cascade it, or its bound is the next boundary, past the event. Then a
	// peek below a limit inside the slot, and one past the event.
	f.Add([]byte{0x18, 255, 0x20, 1, 0x06, 0, 0x01, 0, 0x0d, 3, 0x01, 0,
		0x25, 1, 0x01, 0})
	// A canceled near entry (a bound that is not exact), a far entry and an
	// overflow entry. A peek below 500us drains the stale slot and must stop
	// short of the window boundary. After a step fires the far entry, a peek
	// below a limit short of the overflow entry must not jump to it, one
	// past it does, and a burst lands beneath the frontier it left.
	f.Add([]byte{0x18, 10, 0x03, 0, 0x20, 2, 0x28, 1, 0x01, 0, 0x0d, 9,
		0x1d, 122, 0x01, 0, 0x06, 0, 0x01, 0, 0x25, 3, 0x01, 0, 0x2d, 2,
		0x01, 0, 0x1a, 0x41, 0x01, 0, 0x06, 0})
	// Nodes 3, 1 and 2 schedule at 0 for 5ns, and node 4 a burst of three
	// for 5ns; after a step, node 2 reschedules one for 5ns at 5ns, and
	// nodes 5 and 1 schedule one each for 5ns.
	f.Add([]byte{0x98, 5, 0x38, 5, 0x68, 5, 0xca, 0xa1, 0x06, 0,
		0x6c, 0, 0xf8, 0, 0x30, 0, 0x06, 0})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		wheel, heap := fuzzLog(t, CoreWheel, ops), fuzzLog(t, CoreHeap, ops)
		sameFirings(t, "ops", wheel.log, heap.log)
		sameBounds(t, "ops", wheel.bounds, heap.bounds)
	})
}

// TestWheelSameTimeFIFO: same-time events fire in schedule order across all
// wheel levels (entries reach the sorted run via different paths — direct
// insert, near drain, far cascade — and must still sort by key).
func TestWheelSameTimeFIFO(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	h := e.NewHandle(0)
	const at = Time(3 * Millisecond)
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		h.At(at, func() { got = append(got, i) })
	}
	// Same time, scheduled later, after the frontier context changed.
	h.After(Microsecond, func() {
		for i := 100; i < 120; i++ {
			i := i
			h.At(at, func() { got = append(got, i) })
		}
	})
	e.RunUntilIdle()
	if len(got) != 120 {
		t.Fatalf("fired %d of 120", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("position %d fired event %d (same-time FIFO violated)", i, v)
		}
	}
}

// TestWheelLevelPlacement exercises each queue level explicitly: below the
// frontier, near slot, far slot, overflow, and the near-Forever horizon math
// that must not overflow int64.
func TestWheelLevelPlacement(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	h := e.NewHandle(0)
	var order []string
	add := func(d Time, label string) {
		h.After(d, func() { order = append(order, label) })
	}
	add(100, "sub-slot")                                   // sub-slot
	add(20*nearSlotWidth, "near")                          // inside the near window
	add(wheelSlots*nearSlotWidth*3, "far")                 // beyond near, inside far
	add(wheelSlots*wheelSlots*nearSlotWidth*2, "overflow") // beyond far
	add(Forever-1, "edge")                                 // horizon arithmetic stress
	e.RunUntilIdle()
	want := []string{"sub-slot", "near", "far", "overflow", "edge"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

// TestWheelTeleport: when both wheels empty out, the frontier must jump
// straight to the overflow heap's earliest entry instead of walking windows.
func TestWheelTeleport(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	h := e.NewHandle(0)
	fired := false
	h.At(Time(10*Minute), func() { fired = true })
	e.RunUntilIdle()
	if !fired || e.Now() != Time(10*Minute) {
		t.Fatalf("teleport fire: fired=%v now=%v", fired, e.Now())
	}
	// RunUntilIdle fires everything due at or before Forever, so the
	// teleport reaches an entry due at Forever itself.
	h.At(Forever, func() { fired = false })
	e.RunUntilIdle()
	if fired || e.Now() != Forever {
		t.Fatalf("teleport to Forever: fired=%v now=%v", !fired, e.Now())
	}
}

// TestWheelCancelEverywhere cancels entries sitting at every level and
// verifies none fire and Pending drops to zero.
func TestWheelCancelEverywhere(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	h := e.NewHandle(0)
	var evs []*Event
	for _, d := range []Time{50, 30 * nearSlotWidth, wheelSlots * nearSlotWidth * 5, Hour} {
		evs = append(evs, h.After(d, func() { t.Fatal("canceled event fired") }))
	}
	for _, ev := range evs {
		e.Cancel(ev)
	}
	e.RunUntilIdle()
	if e.Pending() != 0 {
		t.Fatalf("Pending = %d after canceling everything", e.Pending())
	}
}

// TestWheelRescheduleAcrossLevels moves one event between levels repeatedly
// and checks it fires exactly once at its final time.
func TestWheelRescheduleAcrossLevels(t *testing.T) {
	e := NewEngineWithCore(1, CoreWheel)
	h := e.NewHandle(0)
	count := 0
	ev := h.After(Hour, func() { count++ })
	h.Reschedule(ev, Time(40))                         // below the frontier
	h.Reschedule(ev, Time(100*nearSlotWidth))          // near
	h.Reschedule(ev, Time(wheelSlots*nearSlotWidth*7)) // far
	final := Time(2 * Millisecond)
	h.Reschedule(ev, final)
	e.RunUntilIdle()
	if count != 1 || e.Now() != final {
		t.Fatalf("count=%d now=%v, want 1 fire at %v", count, e.Now(), final)
	}
}

// TestNextBit covers the bitmap scanner's edges.
func TestNextBit(t *testing.T) {
	var bm [wheelSlots / 64]uint64
	if got := nextBit(&bm, 0); got != wheelSlots {
		t.Fatalf("empty bitmap: got %d", got)
	}
	bm[0] = 1
	if got := nextBit(&bm, 0); got != 0 {
		t.Fatalf("bit 0: got %d", got)
	}
	if got := nextBit(&bm, 1); got != wheelSlots {
		t.Fatalf("past bit 0: got %d", got)
	}
	bm[0] = 0
	bm[3] = 1 << 63 // slot 255
	for _, from := range []int{0, 64, 192, 255} {
		if got := nextBit(&bm, from); got != 255 {
			t.Fatalf("slot 255 from %d: got %d", from, got)
		}
	}
	bm[1] = 1 << 5 // slot 69
	if got := nextBit(&bm, 69); got != 69 {
		t.Fatalf("exact hit: got %d", got)
	}
	if got := nextBit(&bm, 70); got != 255 {
		t.Fatalf("after slot 69: got %d", got)
	}
}
