package kernel

import (
	"testing"

	"coschedsim/internal/sim"
)

func TestSpinWaitSignalImmediate(t *testing.T) {
	eng, n := newTestNode(t, exactOptions(1))
	var resumed sim.Time
	th := n.NewThread("spinner", 100, 0)
	th.Start(func() {
		th.SpinWait(func() {
			resumed = eng.Now()
			th.Exit()
		})
	})
	n.Sched().At(3*sim.Millisecond, func() { th.Signal() })
	eng.Run(sim.Second)
	// A running spinner continues at the signal instant — zero latency.
	if resumed != 3*sim.Millisecond {
		t.Fatalf("spinner resumed at %v, want exactly 3ms", resumed)
	}
	// The spin burned 3ms of CPU.
	if got := th.Stats().CPUTime; got != 3*sim.Millisecond {
		t.Fatalf("spin cpuTime = %v, want 3ms", got)
	}
}

func TestSpinWaitConsumesCPUAndIsPreemptible(t *testing.T) {
	opts := exactOptions(1)
	opts.RealTimeIPI = true
	opts.IPILatency = 0
	eng, n := newTestNode(t, opts)

	spinner := n.NewThread("spinner", 100, 0)
	var resumed sim.Time
	spinner.Start(func() {
		spinner.SpinWait(func() { resumed = eng.Now(); spinner.Exit() })
	})

	// A better-priority daemon preempts the spinner from 2ms to 5ms.
	d := n.NewThread("daemon", 56, 0)
	n.Sched().At(2*sim.Millisecond, func() {
		d.Start(func() { d.Run(3*sim.Millisecond, d.Exit) })
	})
	// Signal arrives at 4ms, while the spinner is preempted.
	n.Sched().At(4*sim.Millisecond, func() { spinner.Signal() })
	eng.Run(sim.Second)

	// The spinner can only continue once the daemon exits at 5ms.
	if resumed != 5*sim.Millisecond {
		t.Fatalf("preempted spinner resumed at %v, want 5ms", resumed)
	}
	if spinner.Stats().Preemptions != 1 {
		t.Fatalf("spinner preemptions = %d, want 1", spinner.Stats().Preemptions)
	}
}

func TestSpinWaitQuantumReArms(t *testing.T) {
	eng, n := newTestNode(t, exactOptions(1))
	done := false
	th := n.NewThread("spinner", 100, 0)
	th.Start(func() {
		th.SpinWait(func() { done = true; th.Exit() })
	})
	// Signal after more than one spin quantum (1h).
	n.Sched().At(sim.Hour+30*sim.Minute, func() { th.Signal() })
	eng.Run(3 * sim.Hour)
	if !done {
		t.Fatal("spinner did not survive a quantum expiry")
	}
}

func TestSignalOnNonSpinnerPanics(t *testing.T) {
	_, n := newTestNode(t, exactOptions(1))
	th := n.NewThread("x", 100, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Signal on non-spinner did not panic")
		}
	}()
	th.Signal()
}

func TestKillSpinningThread(t *testing.T) {
	eng, n := newTestNode(t, exactOptions(1))
	th := n.NewThread("spinner", 100, 0)
	th.Start(func() { th.SpinWait(func() { th.Exit() }) })
	n.Sched().At(5*sim.Millisecond, func() { th.Kill() })
	eng.Run(sim.Second)
	if th.State() != StateExited {
		t.Fatalf("killed spinner state %v", th.State())
	}
	if n.RunnableCount() != 0 {
		t.Fatal("node not quiescent after killing spinner")
	}
}

func TestSpinnerSharesCPUViaTimeslice(t *testing.T) {
	// Two equal-priority threads, one spinning, one computing: the RR
	// timeslice must let the computer finish despite the spinner.
	opts := exactOptions(1)
	opts.Timeslice = true
	eng, n := newTestNode(t, opts)

	spinner := n.NewThread("spinner", 100, 0)
	spinner.Start(func() { spinner.SpinWait(func() { spinner.Exit() }) })

	var done sim.Time
	worker := n.NewThread("worker", 100, 0)
	worker.Start(func() {
		worker.Run(30*sim.Millisecond, func() { done = eng.Now(); worker.Exit() })
	})
	n.Sched().At(200*sim.Millisecond, func() {
		if spinner.Spinning() {
			spinner.Signal()
		}
	})
	eng.Run(sim.Second)
	// With 10ms RR quanta the 30ms of work finishes within ~70ms.
	if done == 0 || done > 100*sim.Millisecond {
		t.Fatalf("worker finished at %v despite timeslice, want < 100ms", done)
	}
}
