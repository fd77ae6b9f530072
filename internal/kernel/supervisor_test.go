package kernel

import (
	"testing"

	"coschedsim/internal/sim"
)

// spinDaemon starts a daemon that sleeps forever in 10ms chunks, so it is
// alive until killed.
func spinDaemon(n *Node, name string) *Thread {
	th := n.NewDaemon(name, PrioSystemDaemon, 0)
	var loop func()
	loop = func() { th.Sleep(10*sim.Millisecond, loop) }
	th.Start(loop)
	return th
}

func TestSupervisorRestartsKilledDaemon(t *testing.T) {
	eng, n := newTestNode(t, exactOptions(1))
	sup := NewSupervisor(n, 2*sim.Millisecond, 5*sim.Millisecond)
	respawned := 0
	th := spinDaemon(n, "victim")
	sup.Watch(th, func() *Thread {
		respawned++
		return spinDaemon(n, "victim")
	})

	n.Sched().At(20*sim.Millisecond, func() { th.Kill() })
	eng.Run(100 * sim.Millisecond)
	sup.Stop()
	eng.Run(200 * sim.Millisecond)

	if respawned != 1 {
		t.Fatalf("respawn factory called %d times, want 1", respawned)
	}
	if sup.Restarts() != 1 {
		t.Fatalf("Restarts() = %d, want 1", sup.Restarts())
	}
	// Death at 20ms fires before that instant's scan (the kill event was
	// inserted earlier), so the 20ms scan already notices it and the respawn
	// lands at 25ms: recovery = 5ms.
	if got := sup.RecoveryTime(); got != 5*sim.Millisecond {
		t.Fatalf("RecoveryTime() = %v, want 5ms", got)
	}
}

func TestSupervisorDeclinedRespawnStaysDown(t *testing.T) {
	eng, n := newTestNode(t, exactOptions(1))
	sup := NewSupervisor(n, 2*sim.Millisecond, 5*sim.Millisecond)
	asked := 0
	th := spinDaemon(n, "victim")
	sup.Watch(th, func() *Thread {
		asked++
		return nil // decline: the owning subsystem has shut down
	})
	n.Sched().At(10*sim.Millisecond, func() { th.Kill() })
	eng.Run(100 * sim.Millisecond)
	if asked != 1 {
		t.Fatalf("declined watch re-asked %d times, want exactly 1", asked)
	}
	if sup.Restarts() != 0 {
		t.Fatalf("Restarts() = %d after declined respawn, want 0", sup.Restarts())
	}
}

func TestSupervisorStopHaltsScanning(t *testing.T) {
	eng, n := newTestNode(t, exactOptions(1))
	sup := NewSupervisor(n, 2*sim.Millisecond, 5*sim.Millisecond)
	th := spinDaemon(n, "victim")
	called := false
	sup.Watch(th, func() *Thread { called = true; return spinDaemon(n, "victim") })
	sup.Stop()
	n.Sched().At(10*sim.Millisecond, func() { th.Kill() })
	eng.Run(100 * sim.Millisecond)
	if called {
		t.Fatal("stopped supervisor still respawned a daemon")
	}
	if sup.Restarts() != 0 {
		t.Fatalf("Restarts() = %d after Stop, want 0", sup.Restarts())
	}
}
