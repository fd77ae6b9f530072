package sim

import (
	"testing"
	"testing/quick"
)

// TestEventPoolReuseCorrectness hammers the fire path so pooled Events are
// reused many times, checking that every callback fires exactly once and in
// order despite recycling.
func TestEventPoolReuseCorrectness(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	const n = 50000
	fired := make([]bool, n)
	var schedule func(i int)
	schedule = func(i int) {
		if i >= n {
			return
		}
		h.After(Time(1+i%7), func() {
			if fired[i] {
				t.Fatalf("event %d fired twice (pool corruption)", i)
			}
			fired[i] = true
			schedule(i + 1)
		})
	}
	schedule(0)
	e.RunUntilIdle()
	for i, f := range fired {
		if !f {
			t.Fatalf("event %d never fired", i)
		}
	}
}

// TestCanceledEventsAreRecycled: Cancel returns the record to the event
// pool immediately (cancel-heavy runs must not leak an allocation per
// canceled event), so a later schedule reuses the same *Event. The record
// keeps its canceled state until that reuse.
func TestCanceledEventsAreRecycled(t *testing.T) {
	e := NewEngine(1)
	h := e.NewHandle(0)
	recycled := make(map[*Event]bool)
	for i := 0; i < 100; i++ {
		ev := h.At(Time(1000+i), func() {})
		e.Cancel(ev)
		if !ev.Canceled() {
			t.Fatalf("event %d lost its canceled state right after Cancel", i)
		}
		recycled[ev] = true
	}
	// New schedules must draw from the pool of canceled records, and the
	// stale queue entries left by lazy cancellation must never fire them
	// under their old lease.
	reused, fired := 0, 0
	for i := 0; i < 100; i++ {
		ev := h.At(Time(1+i), func() { fired++ })
		if recycled[ev] {
			reused++
		}
	}
	e.RunUntilIdle()
	if reused == 0 {
		t.Fatal("no canceled event record was recycled")
	}
	if fired != 100 {
		t.Fatalf("fired %d of 100 reused-record events", fired)
	}
}

// TestRescheduleStormProperty mixes schedules, reschedules and cancels under
// random sequences; every surviving event fires exactly once at its final
// time.
func TestRescheduleStormProperty(t *testing.T) {
	f := func(ops []uint16) bool {
		e := NewEngine(3)
		h := e.NewHandle(0)
		type tracked struct {
			ev    *Event
			final Time
			dead  bool
		}
		var events []*tracked
		fires := map[int]int{}
		for i, op := range ops {
			switch op % 3 {
			case 0: // schedule
				i := i
				tr := &tracked{final: Time(op%997) + 1}
				tr.ev = h.At(tr.final, func() { fires[i]++ })
				events = append(events, tr)
			case 1: // reschedule a random live event
				if len(events) > 0 {
					tr := events[int(op)%len(events)]
					if !tr.dead && !tr.ev.Canceled() {
						tr.final = Time(op%1009) + 1
						h.Reschedule(tr.ev, tr.final)
					}
				}
			default: // cancel a random live event
				if len(events) > 0 {
					tr := events[int(op)%len(events)]
					if !tr.dead {
						e.Cancel(tr.ev)
						tr.dead = true
					}
				}
			}
		}
		e.RunUntilIdle()
		total := 0
		for _, count := range fires {
			if count != 1 {
				return false
			}
			total++
		}
		live := 0
		for _, tr := range events {
			if !tr.dead {
				live++
			}
		}
		return total == live
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestHeapOrderingUnderRandomChurn verifies the 4-ary heap keeps global
// time ordering with interleaved operations.
func TestHeapOrderingUnderRandomChurn(t *testing.T) {
	e := NewEngine(7)
	h := e.NewHandle(0)
	rng := e.CounterRand("churn")
	var lastFired Time
	ok := true
	for i := 0; i < 5000; i++ {
		d := rng.Duration(1000) + 1
		h.After(d, func() {
			if e.Now() < lastFired {
				ok = false
			}
			lastFired = e.Now()
		})
		if i%3 == 0 {
			e.Step()
		}
	}
	e.RunUntilIdle()
	if !ok {
		t.Fatal("events fired out of time order under churn")
	}
}
