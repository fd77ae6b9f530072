package cosched

import (
	"testing"

	"coschedsim/internal/kernel"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

// TestClockStepMidRun injects a clock step (failure injection: an operator
// or a broken NTP adjusting the node clock while the co-scheduler runs).
// The scheduler must keep cycling windows without stalling or panicking,
// re-aligned to the stepped clock.
func TestClockStepMidRun(t *testing.T) {
	eng := sim.NewEngine(1)
	n := kernel.MustNode(eng.NewHandle(0), kernel.PrototypeOptions(2))
	n.Start()
	clock := network.NewLocalClock(eng, 0)
	s := MustNew(DefaultParams())
	s.AddNode(n, clock)

	task := n.NewThread("rank0", kernel.PrioUserNormal, 0)
	task.Start(func() { task.Block(task.Exit) })
	eng.Run(sim.Millisecond)
	s.RegisterProcess(n, 1000, []*kernel.Thread{task})

	// Step the clock forward 2.7s at t=12s and backward 1.3s at t=30s.
	n.Sched().At(12*sim.Second, func() { clock.Step(2700 * sim.Millisecond) })
	n.Sched().At(30*sim.Second, func() { clock.Step(-1300 * sim.Millisecond) })
	eng.Run(60 * sim.Second)

	trans := s.Transitions()
	if len(trans) < 15 {
		t.Fatalf("only %d window transitions in 60s — the scheduler stalled after the clock step", len(trans))
	}
	// Windows must keep alternating favored/unfavored.
	for i := 1; i < len(trans); i++ {
		if trans[i].Favored == trans[i-1].Favored {
			t.Fatalf("transitions stopped alternating at %d: %+v", i, trans[i-1:i+1])
		}
	}
	// And the engine-time gap between consecutive same-direction edges must
	// remain bounded (no runaway sleeps).
	for i := 2; i < len(trans); i++ {
		if gap := trans[i].Time - trans[i-2].Time; gap > 9*sim.Second {
			t.Fatalf("window period ballooned to %v after clock step", gap)
		}
	}
}

// TestManyProcessChurn registers and unregisters processes continuously —
// the scheduler must track membership without leaking or misprioritizing.
func TestManyProcessChurn(t *testing.T) {
	eng := sim.NewEngine(2)
	n := kernel.MustNode(eng.NewHandle(0), kernel.PrototypeOptions(4))
	n.Start()
	s := MustNew(DefaultParams())
	s.AddNode(n, network.NewSwitchClock(eng))

	var threads []*kernel.Thread
	for i := 0; i < 12; i++ {
		th := n.NewThread("rank", kernel.PrioUserNormal, i%4)
		th.Start(func() { th.Block(th.Exit) })
		threads = append(threads, th)
	}
	eng.Run(sim.Millisecond)
	for i, th := range threads {
		s.RegisterProcess(n, 2000+i, []*kernel.Thread{th})
	}
	// Unregister half at 8s (mid favored window).
	n.Sched().At(8*sim.Second, func() {
		for i := 0; i < 6; i++ {
			s.UnregisterProcess(n, 2000+i)
			threads[i].Wakeup() // let them exit
		}
	})
	eng.Run(12 * sim.Second)
	// Remaining registered processes still follow the window.
	for i := 6; i < 12; i++ {
		if got := threads[i].Priority(); got != DefaultParams().Favored {
			t.Fatalf("surviving thread %d priority %v mid-window", i, got)
		}
	}
	// Unregistered threads are gone and untouched by later windows.
	eng.Run(16 * sim.Second)
	for i := 0; i < 6; i++ {
		if threads[i].State() != kernel.StateExited {
			t.Fatalf("unregistered thread %d still %v", i, threads[i].State())
		}
	}
}

// TestDetachOfUnknownProcessIsNoop exercises the registry's tolerance of
// stray control-pipe messages.
func TestDetachOfUnknownProcessIsNoop(t *testing.T) {
	eng := sim.NewEngine(3)
	n := kernel.MustNode(eng.NewHandle(0), kernel.PrototypeOptions(1))
	n.Start()
	s := MustNew(DefaultParams())
	s.AddNode(n, network.NewSwitchClock(eng))
	s.DetachProcess(n, 999)     // unknown proc
	s.AttachProcess(n, 999)     // unknown proc
	s.UnregisterProcess(n, 999) // unknown proc
	other := kernel.MustNode(eng.NewHandle(1), kernel.VanillaOptions(1))
	s.DetachProcess(other, 1)     // unmanaged node
	s.AttachProcess(other, 1)     // unmanaged node
	s.UnregisterProcess(other, 1) // unmanaged node
	eng.Run(6 * sim.Second)
	// Nothing to assert beyond "no panic, still cycling".
	if len(s.Transitions()) == 0 {
		t.Fatal("scheduler did not cycle")
	}
}
