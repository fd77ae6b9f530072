package sim

import (
	"slices"
	"sort"
	"sync"
	"testing"
)

// The differential harness drives an identical randomized workload — local
// schedules, cross-shard sends, cancels, reschedules, self-rearming ticks —
// through the reference serial cores and through ShardGroups at several
// worker counts, and asserts identical fire logs.
//
// Every decision derives from a hash of the event's identity, never from
// execution order, and every scheduled time is globally unique by
// construction: times are coarse*diffU + (shard*diffM + n) where n is a
// per-shard counter, so the low digits are a globally unique slot. Unique
// times make the fire order a total order on `when` alone, so a log that
// shards append to concurrently sorts into one order. They also leave
// same-time ties untested here: TestShardedTies and
// TestShardedDeliveryOrdersBySendTime cover them.
const (
	diffShards = 5
	diffM      = 1 << 16
	diffU      = Time(diffShards * diffM)
	diffCap    = 1200 // per-shard scheduling budget
)

func mix(vs ...uint64) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	for _, v := range vs {
		h ^= v
		h *= 0x100000001b3
		h ^= h >> 33
	}
	return h
}

type fireRec struct {
	when  Time
	shard int
	id    int
}

// diffBook is one logical shard's bookkeeping. It is only ever
// touched from that shard's events, so its evolution is identical whether
// the shards share one engine or run on a group.
type diffBook struct {
	n       int // per-shard slot/id counter
	ids     []int
	pending map[int]*Event
}

type diffHarness struct {
	seed  uint64
	nodes []*Handle // each logical shard's handle, on one engine or on its shard
	state [diffShards]*diffBook

	mu  sync.Mutex
	log []fireRec

	stopAtID int // fire Stop when this event id fires (-1 = never)
}

func newDiffHarness(seed uint64, nodes []*Handle, stopAtID int) *diffHarness {
	d := &diffHarness{seed: seed, nodes: nodes, stopAtID: stopAtID}
	for s := range d.state {
		d.state[s] = &diffBook{pending: map[int]*Event{}}
	}
	return d
}

// alloc reserves shard's next unique slot and returns (id, slot offset).
func (d *diffHarness) alloc(shard int) (int, Time) {
	st := d.state[shard]
	if st.n >= diffM {
		panic("diff harness exceeded slot budget")
	}
	n := st.n
	st.n++
	return shard*diffM + n, Time(shard*diffM + n)
}

// coarse returns the coarse step strictly containing t.
func coarse(t Time) Time { return t / diffU }

// scheduleLocal arms a tracked event on shard at a unique future time.
func (d *diffHarness) scheduleLocal(shard int, q Time, h uint64) {
	if d.state[shard].n >= diffCap {
		return
	}
	id, slot := d.alloc(shard)
	when := (q+1+Time(h%4))*diffU + slot
	ev := d.nodes[shard].At(when, func() { d.fired(shard, id) })
	st := d.state[shard]
	st.pending[id] = ev
	st.ids = append(st.ids, id)
}

// scheduleCross stages an event onto dst from src; the time is at least one
// full coarse step (= the group lookahead) past src's now, and is allocated
// from src's slot counter so identity stays deterministic. Cross events are
// untracked — only the owning shard may cancel or reschedule, and the
// destination never learns of the event until it fires.
func (d *diffHarness) scheduleCross(src, dst int, q Time, h uint64) {
	if d.state[src].n >= diffCap {
		return
	}
	id, slot := d.alloc(src)
	when := (q+2+Time(h%4))*diffU + slot
	d.nodes[src].ScheduleOn(d.nodes[dst].Engine(), when, func() { d.fired(dst, id) })
}

func (d *diffHarness) fired(shard, id int) {
	n := d.nodes[shard]
	e := n.Engine()
	now := e.Now()
	d.mu.Lock()
	d.log = append(d.log, fireRec{now, shard, id})
	d.mu.Unlock()
	if id == d.stopAtID {
		e.Stop()
	}
	st := d.state[shard]
	if _, ok := st.pending[id]; ok {
		delete(st.pending, id)
		for i, v := range st.ids {
			if v == id {
				st.ids = append(st.ids[:i], st.ids[i+1:]...)
				break
			}
		}
	}
	h := mix(d.seed, uint64(id))
	q := coarse(now)
	for k := uint64(0); k < h%3; k++ {
		d.scheduleLocal(shard, q, h>>(8+4*k))
	}
	if (h>>16)%4 == 0 {
		dst := (shard + 1 + int(h>>20)%(diffShards-1)) % diffShards
		d.scheduleCross(shard, dst, q, h>>24)
	}
	if (h>>32)%5 == 0 && len(st.ids) > 0 {
		victim := st.ids[int(h>>36)%len(st.ids)]
		e.Cancel(st.pending[victim])
		delete(st.pending, victim)
		for i, v := range st.ids {
			if v == victim {
				st.ids = append(st.ids[:i], st.ids[i+1:]...)
				break
			}
		}
	} else if (h>>40)%5 == 0 && len(st.ids) > 0 && st.n < diffCap {
		victim := st.ids[int(h>>44)%len(st.ids)]
		_, slot := d.alloc(shard)
		n.Reschedule(st.pending[victim], (q+1+Time(h>>48)%4)*diffU+slot)
	}
}

// seedWork arms the initial events: three tracked locals plus one tick per
// shard. The tick re-arms itself with a trailing At at unique times until
// its budget runs out, so records fired and re-leased inside windows are
// exercised.
func (d *diffHarness) seedWork() {
	for s := 0; s < diffShards; s++ {
		s := s
		for i := 0; i < 3; i++ {
			d.scheduleLocal(s, 0, mix(d.seed, uint64(1000+s*10+i)))
		}
		id, slot := d.alloc(s)
		ticks := 0
		n := d.nodes[s]
		var tick func()
		tick = func() {
			d.mu.Lock()
			d.log = append(d.log, fireRec{n.Now(), s, id})
			d.mu.Unlock()
			ticks++
			if ticks >= 40 || d.state[s].n >= diffCap {
				return
			}
			_, slot := d.alloc(s)
			n.At((coarse(n.Now())+1)*diffU+slot, tick)
		}
		n.At(diffU+slot, tick)
	}
}

// sortedLog returns the fire log ordered by when (globally unique).
func (d *diffHarness) sortedLog() []fireRec {
	sort.Slice(d.log, func(i, j int) bool { return d.log[i].when < d.log[j].when })
	return d.log
}

// runSerial drives the workload on one engine of the given core, with all
// logical shards sharing it.
func runSerial(seed uint64, core Core, stopAtID int) []fireRec {
	e := NewEngineWithCore(0, core)
	nodes := make([]*Handle, diffShards)
	for i := range nodes {
		nodes[i] = e.NewHandle(i)
	}
	d := newDiffHarness(seed, nodes, stopAtID)
	d.seedWork()
	e.RunUntilIdle()
	return d.sortedLog()
}

// runSharded drives the workload on a ShardGroup with the given workers.
// The lookahead is one coarse step, matching scheduleCross's guarantee.
func runSharded(seed uint64, workers, stopAtID int) []fireRec {
	g := NewShardGroup(0, diffShards, workers, diffU)
	nodes := make([]*Handle, diffShards)
	for i := range nodes {
		nodes[i] = g.Shard(i).NewHandle(i)
	}
	d := newDiffHarness(seed, nodes, stopAtID)
	d.seedWork()
	g.RunUntilIdle()
	return d.sortedLog()
}

func logsEqual(t *testing.T, tag string, want, got []fireRec) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: fired %d events, want %d", tag, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: fire %d = %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}

// TestShardedDifferential drives identical randomized schedule / cancel /
// reschedule / cross-shard-send sequences through the heap core, the wheel
// core, and ShardGroups at 1, 2 and 4 workers, asserting identical fire
// logs for every seed.
func TestShardedDifferential(t *testing.T) {
	seeds := []uint64{1, 7, 42, 1234}
	if testing.Short() {
		seeds = seeds[:2]
	}
	for _, seed := range seeds {
		ref := runSerial(seed, CoreHeap, -1)
		if len(ref) < 100 {
			t.Fatalf("seed %d: degenerate workload, only %d fires", seed, len(ref))
		}
		logsEqual(t, "wheel", ref, runSerial(seed, CoreWheel, -1))
		logsEqual(t, "sharded/1", ref, runSharded(seed, 1, -1))
		logsEqual(t, "sharded/2", ref, runSharded(seed, 2, -1))
		logsEqual(t, "sharded/4", ref, runSharded(seed, 4, -1))
	}
}

// The tie workload: tieShards shards of tiePerShard nodes, each node
// scheduling through its own handle, with every event due on a grid of
// tieStep. Every event fires at a grid instant, so the nodes of a shard
// schedule at one instant for one instant, and deliveries from other shards
// tie with their local events on (due, scheduled).
const (
	tieShards   = 3
	tiePerShard = 3
	tieNodes    = tieShards * tiePerShard
	tieStep     = Time(100) // also the group lookahead
	tieBudget   = 200       // schedules per node
)

// runTies drives the tie workload with node i on engines[i/tiePerShard]
// and returns, for each node, the ids of the events fired for it in the
// order they fired. An id names the scheduling node and its schedule count.
func runTies(seed uint64, engines []*Engine, run func() uint64) [tieNodes][]int {
	type tieNode struct {
		h       *Handle
		made    int
		pending []int          // ids of its pending local events
		evs     map[int]*Event // by id, while pending
		fired   []int
	}
	var nodes [tieNodes]*tieNode
	for i := range nodes {
		nodes[i] = &tieNode{h: engines[i/tiePerShard].NewHandle(i), evs: map[int]*Event{}}
	}
	var fire func(node, id int) func()
	// next draws node's next schedule id, or -1 once its budget is spent.
	next := func(node int) int {
		n := nodes[node]
		if n.made == tieBudget {
			return -1
		}
		n.made++
		return node*tieBudget + n.made
	}
	fire = func(node, id int) func() {
		return func() {
			n := nodes[node]
			n.fired = append(n.fired, id)
			if _, ok := n.evs[id]; ok {
				delete(n.evs, id)
				n.pending = slices.DeleteFunc(n.pending, func(p int) bool { return p == id })
			}
			h := mix(seed, uint64(id))
			step := n.h.Now() / tieStep
			for k := range h % 3 {
				if id := next(node); id >= 0 {
					n.evs[id] = n.h.At((step+1+Time(h>>(8+k)&1))*tieStep, fire(node, id))
					n.pending = append(n.pending, id)
				}
			}
			if to := int(h>>16) % tieNodes; h>>24&1 == 0 {
				if id := next(node); id >= 0 {
					n.h.ScheduleOn(nodes[to].h.Engine(), (step+1+Time(h>>25&1))*tieStep, fire(to, id))
				}
			}
			// Reschedule a pending local event to the next step, which
			// gives it a new key.
			if k := int(h>>32) % 4; k < len(n.pending) {
				n.h.Reschedule(n.evs[n.pending[k]], (step+1)*tieStep)
			}
		}
	}
	for i := range nodes {
		for range 2 {
			nodes[i].h.At(tieStep, fire(i, next(i)))
		}
	}
	run()
	var fired [tieNodes][]int
	for i, n := range nodes {
		fired[i] = n.fired
	}
	return fired
}

// TestShardedTies runs the tie workload on the heap and wheel cores and on
// ShardGroups at 1, 2 and 4 workers: each node's events fire in one order
// on every core.
func TestShardedTies(t *testing.T) {
	serial := func(core Core) [tieNodes][]int {
		e := NewEngineWithCore(0, core)
		engines := make([]*Engine, tieShards)
		for i := range engines {
			engines[i] = e
		}
		return runTies(7, engines, e.RunUntilIdle)
	}
	sharded := func(workers int) [tieNodes][]int {
		g := NewShardGroup(0, tieShards, workers, tieStep)
		return runTies(7, g.shards, g.RunUntilIdle)
	}
	want := serial(CoreHeap)
	total := 0
	for _, f := range want {
		total += len(f)
	}
	if total < 500 {
		t.Fatalf("degenerate workload: %d fires", total)
	}
	for name, got := range map[string][tieNodes][]int{
		"wheel": serial(CoreWheel), "sharded/1": sharded(1), "sharded/2": sharded(2), "sharded/4": sharded(4),
	} {
		for i := range want {
			if !slices.Equal(got[i], want[i]) {
				t.Errorf("%s: node %d fired %v, heap fired %v", name, i, got[i], want[i])
			}
		}
	}
}

// TestShardedDeliveryOrdersBySendTime runs one script serially and on a
// 3-shard group with a 10ns lookahead. Node 2, alone on shard 0, schedules
// an event due at 20 at t=3, one at t=5 and one at t=7; at t=5 node 0 on
// shard 1 and node 1 on shard 2 each send it a delivery due at 20. Events
// due at one instant fire in the order they were scheduled, and those
// scheduled at one instant in order of scheduling node, whatever order the
// nodes ran in: the deliveries fire between the first two local events.
func TestShardedDeliveryOrdersBySendTime(t *testing.T) {
	script := func(shard [3]*Engine, run func() uint64) []string {
		var got []string
		fire := func(name string) func() { return func() { got = append(got, name) } }
		var h [3]*Handle
		for i, e := range shard {
			h[i] = e.NewHandle(i)
		}
		a := h[2].Engine()
		h[2].At(3, func() { h[2].At(20, fire("before")) })
		h[1].At(5, func() { h[1].ScheduleOn(a, 20, fire("from node 1")) })
		h[2].At(5, func() { h[2].At(20, fire("local")) })
		h[0].At(5, func() { h[0].ScheduleOn(a, 20, fire("from node 0")) })
		h[2].At(7, func() { h[2].At(20, fire("after")) })
		run()
		return got
	}
	want := []string{"before", "from node 0", "from node 1", "local", "after"}
	e := NewEngine(0)
	g := NewShardGroup(0, 3, 2, 10)
	for name, got := range map[string][]string{
		"serial":  script([3]*Engine{e, e, e}, e.RunUntilIdle),
		"sharded": script([3]*Engine{g.Shard(1), g.Shard(2), g.Shard(0)}, g.RunUntilIdle),
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s fired %v, want %v", name, got, want)
		}
	}
}

// liveEntries returns every live entry in e's queue.
func liveEntries(e *Engine) []entry {
	var all []entry
	if e.useHeap {
		all = e.heap
	} else {
		w := &e.wheel
		all = append(append(all, w.run[w.next:]...), w.late...)
		for _, sl := range append(w.near[:], w.far[:]...) {
			for c := sl.head; c != nil; c = c.next {
				all = append(all, c.ents[:c.n]...)
			}
		}
		all = append(all, w.overflow...)
	}
	return slices.DeleteFunc(slices.Clone(all), func(en entry) bool { return !en.live() })
}

// TestShardKeysUnique schedules through two node handles on each shard,
// with reschedules and a delivery between the shards, and requires each
// live entry of the group to carry a key of its own.
func TestShardKeysUnique(t *testing.T) {
	g := NewShardGroup(0, 2, 1, 10)
	a, b := g.Shard(0), g.Shard(1)
	n0, n1, n2, n3 := a.NewHandle(0), a.NewHandle(1), b.NewHandle(2), b.NewHandle(3)
	for _, h := range []*Handle{n0, n1, n2, n3} {
		for k := range Time(3) {
			if ev := h.At(5+k, func() {}); k == 0 {
				h.Reschedule(ev, 30)
			}
		}
	}
	n0.At(1, func() { n0.ScheduleOn(b, 25, func() {}) })
	g.Run(2)
	seen := map[uint64]bool{}
	n := 0
	for _, e := range g.shards {
		for _, en := range liveEntries(e) {
			if seen[en.key] {
				t.Errorf("two live entries carry key %#x", en.key)
			}
			seen[en.key] = true
			n++
		}
	}
	if n != g.Pending() || n != 13 {
		t.Errorf("found %d live entries, the group holds %d pending, want 13", n, g.Pending())
	}
}

// TestShardedIdleShardKeepsSortedRun runs two shards with a 24us lookahead.
// Shard 1's only own event is at 2ms, and shard 0 sends it a delivery one
// lookahead ahead in every window, for 40 windows. A window that drained
// shard 1's next slot to find its next event would move its frontier to 2ms,
// and every delivery would then land below the frontier, before the sorted
// run's last entry, in the late heap. After each barrier shard 1's late heap
// must be empty and its frontier at most a lookahead and a slot past the
// window end.
func TestShardedIdleShardKeepsSortedRun(t *testing.T) {
	const lookahead, windows = 24 * Microsecond, 40
	g := NewShardGroup(0, 2, 2, lookahead)
	src, dst := g.Shard(0).NewHandle(0), g.Shard(1).NewHandle(1)
	dst.At(2*Millisecond, func() {})
	sent := 0
	var send func()
	send = func() {
		src.ScheduleOn(dst.Engine(), src.Now()+lookahead, func() {})
		if sent++; sent < windows {
			src.At(src.Now()+lookahead, send)
		}
	}
	src.At(0, send)
	maxLate, maxAhead := 0, Time(0)
	for k := Time(0); k < windows; k++ {
		end := k*lookahead + 1 // Run(until) ends its last window at until+1
		g.Run(end - 1)
		w := &dst.Engine().wheel
		maxLate = max(maxLate, len(w.late))
		maxAhead = max(maxAhead, w.frontier-end)
	}
	if maxLate > 0 || maxAhead > lookahead+nearSlotWidth {
		t.Errorf("late heap reached %d entries, frontier ran %v past the window end", maxLate, maxAhead)
	}
	g.RunUntilIdle()
	if got := dst.Engine().Fired(); got != windows+1 {
		t.Errorf("shard 1 fired %d events, want %d", got, windows+1)
	}
}

// TestShardedStopDeterministic verifies that Stop called from an event
// callback ends every worker-count variant at the same point: the window
// in flight completes, so the surviving fire log is identical at 1, 2 and
// 4 workers (it may legitimately differ from a serial engine, which stops
// immediately).
func TestShardedStopDeterministic(t *testing.T) {
	const seed = 42
	full := runSharded(seed, 1, -1)
	stopAt := full[len(full)/2].id
	ref := runSharded(seed, 1, stopAt)
	if len(ref) >= len(full) {
		t.Fatalf("stop did not shorten the run (%d vs %d fires)", len(ref), len(full))
	}
	logsEqual(t, "stop/2", ref, runSharded(seed, 2, stopAt))
	logsEqual(t, "stop/4", ref, runSharded(seed, 4, stopAt))
}

// TestShardedCrossBelowLookaheadPanics pins the conservative guarantee: a
// cross-shard event inside the current window is a model bug and must
// panic rather than corrupt causality.
func TestShardedCrossBelowLookaheadPanics(t *testing.T) {
	g := NewShardGroup(0, 2, 1, 1000)
	a := g.Shard(0).NewHandle(0)
	a.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("in-window cross-shard schedule below lookahead did not panic")
			}
			panic("unwind") // keep the engine from continuing after the failed schedule
		}()
		a.ScheduleOn(g.Shard(1), a.Now()+1, func() {})
	})
	func() {
		defer func() { recover() }()
		g.RunUntilIdle()
	}()
}

// TestShardedRunOnShardPanics pins the misuse guard: driving a grouped
// shard with Engine.Run would bypass the window protocol.
func TestShardedRunOnShardPanics(t *testing.T) {
	g := NewShardGroup(0, 2, 1, 1000)
	defer func() {
		if recover() == nil {
			t.Error("Engine.Run on a grouped shard did not panic")
		}
	}()
	g.Shard(0).Run(Forever)
}

// TestShardGroupStats sanity-checks the window counters on a workload with
// guaranteed cross-shard traffic.
func TestShardGroupStats(t *testing.T) {
	g := NewShardGroup(0, diffShards, 2, diffU)
	nodes := make([]*Handle, diffShards)
	for i := range nodes {
		nodes[i] = g.Shard(i).NewHandle(i)
	}
	d := newDiffHarness(7, nodes, -1)
	d.seedWork()
	g.RunUntilIdle()
	st := g.Stats()
	if st.Windows == 0 {
		t.Error("no windows recorded")
	}
	if st.CrossShardEvents == 0 {
		t.Error("no cross-shard events recorded despite cross sends in the workload")
	}
	if st.ActiveShardWindows < st.Windows {
		t.Errorf("active shard-windows %d < windows %d", st.ActiveShardWindows, st.Windows)
	}
	if g.Fired() != uint64(len(d.log)) {
		t.Errorf("group fired %d, log has %d", g.Fired(), len(d.log))
	}
}
