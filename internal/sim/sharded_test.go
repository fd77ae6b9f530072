package sim

import (
	"slices"
	"sort"
	"sync"
	"testing"
)

// The differential harness drives an identical randomized workload — local
// schedules, cross-shard sends, cancels, reschedules, recurring events —
// through the reference serial cores and through ShardGroups at several
// worker counts, and asserts identical fire logs.
//
// Every decision derives from a hash of the event's identity, never from
// execution order, and every scheduled time is globally unique by
// construction: times are coarse*diffU + (shard*diffM + n) where n is a
// per-shard counter, so the low digits are a globally unique slot. Unique
// times make the fire order a total order on `when` alone, so a log that
// shards append to concurrently sorts into one order. They also leave
// same-time ties untested here: TestShardedDeliveryOrdersBySendTime pins
// the tie rule.
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
	seed    uint64
	engines []*Engine // engine carrying each logical shard (may all be one)
	state   [diffShards]*diffBook

	mu  sync.Mutex
	log []fireRec

	stopAtID int // fire Stop when this event id fires (-1 = never)
}

func newDiffHarness(seed uint64, engines []*Engine, stopAtID int) *diffHarness {
	d := &diffHarness{seed: seed, engines: engines, stopAtID: stopAtID}
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
	e := d.engines[shard]
	ev := e.At(when, "local", func() { d.fired(shard, id) })
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
	d.engines[src].ScheduleOn(d.engines[dst], when, "cross", func() { d.fired(dst, id) })
}

func (d *diffHarness) fired(shard, id int) {
	e := d.engines[shard]
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
		e.Reschedule(st.pending[victim], (q+1+Time(h>>48)%4)*diffU+slot)
	}
}

// seedWork arms the initial events: three tracked locals plus one recurring
// tick per shard. The recurring callback re-arms at unique times until its
// budget runs out, exercising Recur's in-place re-arm inside windows.
func (d *diffHarness) seedWork() {
	for s := 0; s < diffShards; s++ {
		s := s
		for i := 0; i < 3; i++ {
			d.scheduleLocal(s, 0, mix(d.seed, uint64(1000+s*10+i)))
		}
		id, slot := d.alloc(s)
		ticks := 0
		d.engines[s].Recur(diffU+slot, "tick", func() Time {
			e := d.engines[s]
			d.mu.Lock()
			d.log = append(d.log, fireRec{e.Now(), s, id})
			d.mu.Unlock()
			ticks++
			if ticks >= 40 || d.state[s].n >= diffCap {
				return RecurStop
			}
			_, slot := d.alloc(s)
			return (coarse(e.Now())+1)*diffU + slot
		})
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
	engines := make([]*Engine, diffShards)
	for i := range engines {
		engines[i] = e
	}
	d := newDiffHarness(seed, engines, stopAtID)
	d.seedWork()
	e.RunUntilIdle()
	return d.sortedLog()
}

// runSharded drives the workload on a ShardGroup with the given workers.
// The lookahead is one coarse step, matching scheduleCross's guarantee.
func runSharded(seed uint64, workers, stopAtID int) []fireRec {
	g := NewShardGroup(0, diffShards, workers, diffU)
	engines := make([]*Engine, diffShards)
	for i := range engines {
		engines[i] = g.Shard(i)
	}
	d := newDiffHarness(seed, engines, stopAtID)
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

// TestShardedDeliveryOrdersBySendTime runs one script serially and on a
// 2-shard group with a 10ns lookahead: shard A schedules a local event due
// at 20 at t=3, B sends A a delivery due at 20 at t=5, and A schedules
// another local event due at 20 at t=7. Events due at one instant fire in
// the order they were scheduled, so the delivery fires between the two.
func TestShardedDeliveryOrdersBySendTime(t *testing.T) {
	script := func(a, b *Engine, run func() uint64) []string {
		var got []string
		fire := func(name string) func() { return func() { got = append(got, name) } }
		a.At(3, "", func() { a.At(20, "before", fire("before")) })
		b.At(5, "", func() { b.ScheduleOn(a, 20, "delivery", fire("delivery")) })
		a.At(7, "", func() { a.At(20, "after", fire("after")) })
		run()
		return got
	}
	want := []string{"before", "delivery", "after"}
	e := NewEngine(0)
	g := NewShardGroup(0, 2, 2, 10)
	for name, got := range map[string][]string{
		"serial":  script(e, e, e.RunUntilIdle),
		"sharded": script(g.Shard(0), g.Shard(1), g.RunUntilIdle),
	} {
		if !slices.Equal(got, want) {
			t.Errorf("%s fired %v, want %v", name, got, want)
		}
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
	a, b := g.Shard(0), g.Shard(1)
	a.At(10, "trigger", func() {
		defer func() {
			if recover() == nil {
				t.Error("in-window cross-shard schedule below lookahead did not panic")
			}
			panic("unwind") // keep the engine from continuing after the failed schedule
		}()
		a.ScheduleOn(b, a.Now()+1, "bad", func() {})
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
	engines := make([]*Engine, diffShards)
	for i := range engines {
		engines[i] = g.Shard(i)
	}
	d := newDiffHarness(7, engines, -1)
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
