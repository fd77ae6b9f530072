package cosched

import (
	"testing"

	"coschedsim/internal/kernel"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

func TestHintAwareParamsValid(t *testing.T) {
	p := HintAwareParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("hint-aware params invalid: %v", err)
	}
	if p.MaxFineGrainExtension <= 0 {
		t.Fatal("hint-aware params must enable an extension budget")
	}
	p.MaxFineGrainExtension = p.Period
	if err := p.Validate(); err == nil {
		t.Fatal("extension >= period accepted — that would starve daemons indefinitely")
	}
	p.MaxFineGrainExtension = -1
	if err := p.Validate(); err == nil {
		t.Fatal("negative extension accepted")
	}
}

// hintbed builds a single-node scheduler with one registered blocked task.
func hintbed(t *testing.T, params Params) (*sim.Engine, *kernel.Node, *Scheduler) {
	t.Helper()
	eng := sim.NewEngine(1)
	n := kernel.MustNode(eng.NewHandle(0), kernel.PrototypeOptions(2))
	n.Start()
	s := MustNew(params)
	s.AddNode(n, network.NewSwitchClock(eng))
	task := n.NewThread("rank0", kernel.PrioUserNormal, 0)
	task.Start(func() { task.Block(task.Exit) })
	eng.Run(sim.Millisecond)
	s.RegisterProcess(n, 1000, []*kernel.Thread{task})
	return eng, n, s
}

func TestFineGrainRegionExtendsFavoredWindow(t *testing.T) {
	params := HintAwareParams() // 5s period, 90% duty, 250ms budget
	eng, n, s := hintbed(t, params)

	// Enter a fine-grain region just before the favored window would end
	// (boundary 5s, favored end 9.5s), exit at 9.65s.
	n.Sched().At(9400*sim.Millisecond, func() { s.EnterFineGrain(n, 1000) })
	n.Sched().At(9650*sim.Millisecond, func() { s.ExitFineGrain(n, 1000) })

	var flipAt sim.Time
	n.Sched().At(9450*sim.Millisecond, func() {
		// Poll for the unfavored flip.
		var poll func()
		poll = func() {
			if !s.NodeFavored(n) && flipAt == 0 {
				flipAt = eng.Now()
				return
			}
			n.Sched().After(10*sim.Millisecond, poll)
		}
		poll()
	})
	eng.Run(11 * sim.Second)

	// Without hints the flip lands ~9.5s; with the region held until 9.65s
	// it must land in (9.6s, 9.8s] (quantum granularity 50ms).
	if flipAt <= 9600*sim.Millisecond || flipAt > 9800*sim.Millisecond {
		t.Fatalf("unfavored flip at %v, want deferred past the region exit (~9.65s)", flipAt)
	}
	if s.Extensions(n) == 0 {
		t.Fatal("no extension recorded")
	}
}

func TestFineGrainExtensionBudgetCaps(t *testing.T) {
	params := HintAwareParams()
	params.MaxFineGrainExtension = 100 * sim.Millisecond
	eng, n, s := hintbed(t, params)

	// Enter a region before the favored end and never exit.
	n.Sched().At(9400*sim.Millisecond, func() { s.EnterFineGrain(n, 1000) })
	eng.Run(11 * sim.Second)

	// The flip must still have happened within the budget (plus tick
	// quantization: extension sleeps land on the 250ms prototype grid).
	var flip sim.Time
	for _, tr := range s.Transitions() {
		if !tr.Favored && tr.Time > 9*sim.Second && flip == 0 {
			flip = tr.Time
		}
	}
	if flip == 0 {
		t.Fatal("favored window never ended despite budget cap")
	}
	if flip > 10100*sim.Millisecond {
		t.Fatalf("unfavored flip at %v — budget did not bound the extension", flip)
	}
	if got := s.Extensions(n); got > 100*sim.Millisecond {
		t.Fatalf("extension accounting %v exceeded the 100ms budget", got)
	}
}

func TestHintsDisabledByDefault(t *testing.T) {
	params := DefaultParams() // MaxFineGrainExtension = 0
	eng, n, s := hintbed(t, params)
	n.Sched().At(9400*sim.Millisecond, func() { s.EnterFineGrain(n, 1000) })
	eng.Run(9700 * sim.Millisecond)
	if s.NodeFavored(n) {
		t.Fatal("window extended with a zero budget")
	}
	if s.Extensions(n) != 0 {
		t.Fatal("extension recorded with hints disabled")
	}
}

func TestFineGrainDepthTracking(t *testing.T) {
	_, n, s := hintbed(t, HintAwareParams())
	s.EnterFineGrain(n, 1000)
	s.EnterFineGrain(n, 1001)
	if got := s.FineGrainDepth(n); got != 2 {
		t.Fatalf("depth = %d, want 2", got)
	}
	s.ExitFineGrain(n, 1000)
	s.ExitFineGrain(n, 1001)
	s.ExitFineGrain(n, 1001) // over-exit must clamp, not underflow
	if got := s.FineGrainDepth(n); got != 0 {
		t.Fatalf("depth = %d, want 0", got)
	}
}
