package sim

import (
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	var got []Time
	for _, d := range []Time{30, 10, 20, 5, 25} {
		d := d
		h.At(d, func() { got = append(got, e.Now()) })
	}
	e.RunUntilIdle()
	want := []Time{5, 10, 20, 25, 30}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

// TestEntryIs32Bytes pins the sizes of the records every event passes
// through: the queue entry, the Event and the staged cross-shard entry, and
// the entry's four fields. The compiler keeps a struct of at most four
// fields in registers (cmd/compile's MaxStruct); past that every entry copy
// in the heap and the run goes through memory. A fifth field at the same 32
// bytes, the key split into two uint32 halves, ran serial `parsim run fig3
// -nodes 8 -seeds 1` in 1.73-1.89 s instead of 0.98-1.11 s (three runs each,
// 2-vCPU Xeon).
func TestEntryIs32Bytes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"entry", unsafe.Sizeof(entry{}), 32},
		{"entry fields", uintptr(reflect.TypeOf(entry{}).NumField()), 4},
		{"Event", unsafe.Sizeof(Event{}), 32},
		{"crossEntry", unsafe.Sizeof(crossEntry{}), 32},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// TestShardFiresPast2To44ns runs events at and past 2^44 ns, about 4.89
// hours, on two shards, with a delivery between them: each fires at its
// time on the sharded core as on a serial engine.
func TestShardFiresPast2To44ns(t *testing.T) {
	const at = Time(1) << 44
	script := func(a, b *Handle, run func() uint64) [2][]Time {
		var got [2][]Time // fire times of a's and b's events
		log := func(i int, h *Handle) func() { return func() { got[i] = append(got[i], h.Now()) } }
		a.At(at, func() {
			log(0, a)()
			a.ScheduleOn(b.Engine(), at+Hour, log(1, b))
			a.At(at+1, log(0, a))
		})
		b.At(at-1, log(1, b))
		run()
		return got
	}
	want := [2][]Time{{at, at + 1}, {at - 1, at + Hour}}
	e := NewEngine(0)
	g := NewShardGroup(0, 2, 2, Microsecond)
	for name, got := range map[string][2][]Time{
		"serial":  script(e.NewHandle(0), e.NewHandle(1), e.RunUntilIdle),
		"sharded": script(g.Shard(0).NewHandle(0), g.Shard(1).NewHandle(1), g.RunUntilIdle),
	} {
		if !slices.Equal(got[0], want[0]) || !slices.Equal(got[1], want[1]) {
			t.Errorf("%s fired at %v, want %v", name, got, want)
		}
	}
}

// TestNewHandleRejectsSecondHandle: a second handle for one node id panics,
// on one engine and across the shards of a group, so no two handles draw
// equal keys; one id on two separate engines is fine.
func TestNewHandleRejectsSecondHandle(t *testing.T) {
	NewEngine(0).NewHandle(3)
	NewEngine(0).NewHandle(3)
	e := NewEngine(0)
	g := NewShardGroup(0, 2, 1, 10)
	e.NewHandle(3)
	g.Shard(0).NewHandle(3)
	for name, again := range map[string]func(){
		"engine":      func() { e.NewHandle(3) },
		"other shard": func() { g.Shard(1).NewHandle(3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("a second handle for node 3 on %s did not panic", name)
				}
			}()
			again()
		}()
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		h.At(100, func() { order = append(order, i) })
	}
	e.RunUntilIdle()
	for i, v := range order {
		if v != i {
			t.Fatalf("equal-time events fired out of schedule order: %v", order)
		}
	}
}

func TestEngineAfterAndNow(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	var at Time
	h.After(50, func() {
		h.After(25, func() { at = e.Now() })
	})
	e.RunUntilIdle()
	if at != 75 {
		t.Fatalf("nested After fired at %v, want 75", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	fired := false
	ev := h.At(10, func() { fired = true })
	e.Cancel(ev)
	e.Cancel(ev) // double-cancel is a no-op
	e.RunUntilIdle()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("Canceled() false after Cancel")
	}
}

func TestEngineCancelFromWithinEvent(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	fired := false
	var victim *Event
	h.At(5, func() { e.Cancel(victim) })
	victim = h.At(10, func() { fired = true })
	e.RunUntilIdle()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	var at Time
	ev := h.At(10, func() { at = e.Now() })
	h.Reschedule(ev, 40)
	h.At(20, func() {})
	e.RunUntilIdle()
	if at != 40 {
		t.Fatalf("rescheduled event fired at %v, want 40", at)
	}
}

func TestEngineRescheduleEarlier(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	var order []string
	ev := h.At(100, func() { order = append(order, "a") })
	h.At(50, func() { order = append(order, "b") })
	h.Reschedule(ev, 10)
	e.RunUntilIdle()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	count := 0
	for _, d := range []Time{10, 20, 30, 40} {
		h.At(d, func() { count++ })
	}
	n := e.Run(25)
	if n != 2 || count != 2 {
		t.Fatalf("Run(25) fired %d/%d, want 2", n, count)
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %v after Run(25), want 20", e.Now())
	}
	e.RunUntilIdle()
	if count != 4 {
		t.Fatalf("total fired %d, want 4", count)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	count := 0
	h.At(10, func() { count++; e.Stop() })
	h.At(20, func() { count++ })
	e.RunUntilIdle()
	if count != 1 {
		t.Fatalf("fired %d events after Stop, want 1", count)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() false")
	}
}

func TestEnginePastSchedulingPanics(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	h.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		h.At(50, func() {})
	})
	e.RunUntilIdle()
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	ev := h.At(1, func() {})
	h.At(2, func() {})
	e.Cancel(ev)
	e.RunUntilIdle()
	if e.Scheduled() != 2 {
		t.Errorf("Scheduled = %d, want 2", e.Scheduled())
	}
	if e.Fired() != 1 {
		t.Errorf("Fired = %d, want 1", e.Fired())
	}
}

// Property: for any multiset of delays, events fire in sorted order and the
// clock matches each delay exactly.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		e := NewEngine(7)
		h := e.NewHandle(0)
		delays := make([]Time, len(raw))
		var fired []Time
		for i, r := range raw {
			delays[i] = Time(r)
			h.At(Time(r), func() { fired = append(fired, e.Now()) })
		}
		e.RunUntilIdle()
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		if len(fired) != len(delays) {
			return false
		}
		for i := range delays {
			if fired[i] != delays[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: random interleaving of schedule/cancel still fires exactly the
// non-canceled events, in order.
func TestEngineCancelProperty(t *testing.T) {
	f := func(raw []uint16, cancelMask []bool) bool {
		e := NewEngine(3)
		h := e.NewHandle(0)
		var want int
		events := make([]*Event, len(raw))
		fired := 0
		for i, r := range raw {
			events[i] = h.At(Time(r), func() { fired++ })
		}
		for i := range events {
			if i < len(cancelMask) && cancelMask[i] {
				e.Cancel(events[i])
			} else {
				want++
			}
		}
		e.RunUntilIdle()
		return fired == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			h.After(10, next)
		}
	}
	b.ResetTimer()
	h.After(10, next)
	e.RunUntilIdle()
}

func BenchmarkEngineChurn1k(b *testing.B) {
	// 1k outstanding events, steady-state schedule/fire churn.
	e := NewEngine(1)
	h := e.NewHandle(0)
	var reschedule func()
	reschedule = func() { h.After(Time(1000+e.Fired()%97), reschedule) }
	for i := 0; i < 1000; i++ {
		h.After(Time(i), reschedule)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
