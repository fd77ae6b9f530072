package kernel

import (
	"testing"

	"coschedsim/internal/sim"
)

func TestUsageDecayDegradesHogs(t *testing.T) {
	opts := VanillaOptions(1)
	opts.UsageDecay = true
	eng := sim.NewEngine(1)
	n := MustNode(eng.NewHandle(0), opts)
	n.Start()

	hog := n.NewThread("hog", 60, 0)
	var spin func()
	spin = func() { hog.Run(100*sim.Millisecond, spin) }
	hog.Start(spin)

	eng.Run(3 * sim.Second)
	// After seconds of CPU-bound execution the hog's effective priority
	// must have degraded below its base.
	if hog.Priority() <= 60 {
		t.Fatalf("hog priority %v did not degrade from base 60", hog.Priority())
	}
	if hog.Priority() > 60+usagePenaltyMax {
		t.Fatalf("hog priority %v exceeded the penalty cap", hog.Priority())
	}
}

func TestUsageDecayPreventsStarvationWithoutTimeslice(t *testing.T) {
	// Two CPU-bound threads at the same base priority on one CPU, with the
	// round-robin quantum disabled: without decay the first-dispatched
	// thread runs forever (equal priority never preempts); with decay the
	// runner degrades below the waiter and the CPU alternates.
	run := func(decay bool) (a, b sim.Time) {
		opts := VanillaOptions(1)
		opts.Timeslice = false
		opts.UsageDecay = decay
		eng := sim.NewEngine(2)
		n := MustNode(eng.NewHandle(0), opts)
		n.Start()
		mk := func(name string) *Thread {
			th := n.NewThread(name, 60, 0)
			var spin func()
			spin = func() { th.Run(20*sim.Millisecond, spin) }
			th.Start(spin)
			return th
		}
		ta, tb := mk("a"), mk("b")
		eng.Run(5 * sim.Second)
		return ta.Stats().CPUTime, tb.Stats().CPUTime
	}
	a0, b0 := run(false)
	if a0 != 0 && b0 != 0 {
		t.Fatalf("without decay or timeslice, both hogs ran (%v/%v) — starvation expected", a0, b0)
	}
	a1, b1 := run(true)
	if a1 == 0 || b1 == 0 {
		t.Fatalf("with decay, a hog starved: %v vs %v", a1, b1)
	}
	ratio := float64(a1) / float64(b1)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("decay shares too skewed: %v vs %v", a1, b1)
	}
}

func TestSetPriorityFixesAgainstDecay(t *testing.T) {
	opts := VanillaOptions(1)
	opts.UsageDecay = true
	eng := sim.NewEngine(3)
	n := MustNode(eng.NewHandle(0), opts)
	n.Start()

	hog := n.NewThread("hog", 60, 0)
	var spin func()
	spin = func() { hog.Run(100*sim.Millisecond, spin) }
	hog.Start(spin)
	// setpri semantics: an explicit priority is fixed and never decays.
	hog.SetPriority(45)
	eng.Run(3 * sim.Second)
	if hog.Priority() != 45 {
		t.Fatalf("fixed-priority hog at %v after decay sweeps, want 45", hog.Priority())
	}
}

func TestDaemonsExemptFromDecay(t *testing.T) {
	opts := VanillaOptions(2)
	opts.UsageDecay = true
	eng := sim.NewEngine(4)
	n := MustNode(eng.NewHandle(0), opts)
	n.Start()
	d := n.NewDaemon("busyd", PrioSystemDaemon, 0)
	var spin func()
	spin = func() { d.Run(100*sim.Millisecond, spin) }
	d.Start(spin)
	eng.Run(3 * sim.Second)
	if d.Priority() != PrioSystemDaemon {
		t.Fatalf("daemon priority %v drifted under decay", d.Priority())
	}
}

func TestDecayOffByDefault(t *testing.T) {
	if VanillaOptions(4).UsageDecay || PrototypeOptions(4).UsageDecay {
		t.Fatal("usage decay must be opt-in")
	}
	eng := sim.NewEngine(5)
	n := MustNode(eng.NewHandle(0), VanillaOptions(1))
	n.Start()
	hog := n.NewThread("hog", 60, 0)
	var spin func()
	spin = func() { hog.Run(100*sim.Millisecond, spin) }
	hog.Start(spin)
	eng.Run(3 * sim.Second)
	if hog.Priority() != 60 {
		t.Fatalf("priority %v changed with decay off", hog.Priority())
	}
}
