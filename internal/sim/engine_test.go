package sim

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineFiresInTimeOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, d := range []Time{30, 10, 20, 5, 25} {
		d := d
		e.At(d, func() { got = append(got, e.Now()) })
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
// through: the queue entry, the Event and the staged cross-shard entry. The
// time an entry was scheduled rides in seq because, as a field of its own,
// it cut the wheel's events/s on enginebench's node-tick-heavy scenario by a
// quarter.
func TestEntryIs32Bytes(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"entry", unsafe.Sizeof(entry{}), 32},
		{"Event", unsafe.Sizeof(Event{}), 32},
		{"crossEntry", unsafe.Sizeof(crossEntry{}), 24},
	} {
		if tc.got != tc.want {
			t.Errorf("%s is %d bytes, want %d", tc.name, tc.got, tc.want)
		}
	}
}

// panicMsg runs run and returns what it panicked with, "" if it did not.
func panicMsg(run func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	run()
	return ""
}

// panicsWith reports whether msg is a panic, naming want, exactly when want
// is non-empty.
func panicsWith(msg, want string) bool {
	return (want == "") == (msg == "") && strings.Contains(msg, want)
}

// TestSeqTimeLimit pins the time range of the packed sequence number:
// a sharded run fires an event just before seqTimeLimit and panics at it,
// while a serial engine keeps its order past it.
func TestSeqTimeLimit(t *testing.T) {
	for _, at := range []Time{seqTimeLimit - 1, seqTimeLimit} {
		g := NewShardGroup(0, 2, 1, 10)
		fired := false
		g.Shard(0).At(at, func() { fired = true })
		want := ""
		if at == seqTimeLimit {
			want = "sharded run reached"
		}
		if msg := panicMsg(func() { g.RunUntilIdle() }); !panicsWith(msg, want) || fired != (want == "") {
			t.Errorf("event at %v: panicked %q, fired %t", at, msg, fired)
		}
	}
	e := NewEngine(0)
	var got []int
	for i := range 3 {
		e.At(seqTimeLimit+Time(i), func() { e.At(seqTimeLimit+10, func() { got = append(got, i) }) })
	}
	e.RunUntilIdle()
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Errorf("serial engine past the limit fired %v, want [0 1 2]", got)
	}
}

// TestSeqInstantLimit pins the counter's lower half: a shard panics
// once it schedules more events at one instant than it can number below
// that instant's deliveries, and a serial engine has no such limit.
func TestSeqInstantLimit(t *testing.T) {
	for _, c := range []struct {
		sharded bool
		n       int // events scheduled at t=1: one At, then reschedules
	}{{false, mergedSeq + 1}, {true, mergedSeq}, {true, mergedSeq + 1}} {
		g := NewShardGroup(0, 2, 1, 10)
		e, run := g.Shard(0), g.RunUntilIdle
		if !c.sharded {
			e = NewEngine(0)
			run = e.RunUntilIdle
		}
		fired := false
		e.At(1, func() {
			ev := e.At(Microsecond, func() { fired = true })
			for range c.n - 1 {
				e.Reschedule(ev, Microsecond)
			}
		})
		want := ""
		if c.sharded && c.n > mergedSeq {
			want = "at one instant"
		}
		if msg := panicMsg(func() { run() }); !panicsWith(msg, want) || fired != (want == "") {
			t.Errorf("sharded %t, %d schedules at one instant: panicked %q, fired %t", c.sharded, c.n, msg, fired)
		}
	}
}

// TestSeqMergeLimit pins the counter's upper half: a barrier that would
// merge more deliveries into one shard than it can number panics before it
// merges any.
func TestSeqMergeLimit(t *testing.T) {
	g := NewShardGroup(0, 2, 1, 10)
	a, b := g.Shard(0), g.Shard(1)
	a.At(1, func() {
		for range mergedSeq + 1 {
			a.ScheduleOn(b, 20, func() {})
		}
	})
	if msg := panicMsg(func() { g.RunUntilIdle() }); !panicsWith(msg, "at one barrier") || b.Pending() != 0 {
		t.Errorf("merging %d deliveries panicked %q with %d merged", mergedSeq+1, msg, b.Pending())
	}
}

func TestEngineFIFOAmongEqualTimes(t *testing.T) {
	e := NewEngine(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(100, func() { order = append(order, i) })
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
	var at Time
	e.After(50, func() {
		e.After(25, func() { at = e.Now() })
	})
	e.RunUntilIdle()
	if at != 75 {
		t.Fatalf("nested After fired at %v, want 75", at)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.At(10, func() { fired = true })
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
	fired := false
	var victim *Event
	e.At(5, func() { e.Cancel(victim) })
	victim = e.At(10, func() { fired = true })
	e.RunUntilIdle()
	if fired {
		t.Fatal("event canceled mid-run still fired")
	}
}

func TestEngineReschedule(t *testing.T) {
	e := NewEngine(1)
	var at Time
	ev := e.At(10, func() { at = e.Now() })
	e.Reschedule(ev, 40)
	e.At(20, func() {})
	e.RunUntilIdle()
	if at != 40 {
		t.Fatalf("rescheduled event fired at %v, want 40", at)
	}
}

func TestEngineRescheduleEarlier(t *testing.T) {
	e := NewEngine(1)
	var order []string
	ev := e.At(100, func() { order = append(order, "a") })
	e.At(50, func() { order = append(order, "b") })
	e.Reschedule(ev, 10)
	e.RunUntilIdle()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v, want [a b]", order)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine(1)
	count := 0
	for _, d := range []Time{10, 20, 30, 40} {
		e.At(d, func() { count++ })
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
	count := 0
	e.At(10, func() { count++; e.Stop() })
	e.At(20, func() { count++ })
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
	e.At(100, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50, func() {})
	})
	e.RunUntilIdle()
}

func TestEngineCounters(t *testing.T) {
	e := NewEngine(1)
	ev := e.At(1, func() {})
	e.At(2, func() {})
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
		delays := make([]Time, len(raw))
		var fired []Time
		for i, r := range raw {
			delays[i] = Time(r)
			e.At(Time(r), func() { fired = append(fired, e.Now()) })
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
		var want int
		events := make([]*Event, len(raw))
		fired := 0
		for i, r := range raw {
			events[i] = e.At(Time(r), func() { fired++ })
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
	var next func()
	i := 0
	next = func() {
		i++
		if i < b.N {
			e.After(10, next)
		}
	}
	b.ResetTimer()
	e.After(10, next)
	e.RunUntilIdle()
}

func BenchmarkEngineChurn1k(b *testing.B) {
	// 1k outstanding events, steady-state schedule/fire churn.
	e := NewEngine(1)
	var reschedule func()
	reschedule = func() { e.After(Time(1000+e.Fired()%97), reschedule) }
	for i := 0; i < 1000; i++ {
		e.After(Time(i), reschedule)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
