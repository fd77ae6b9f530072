package kernel

import (
	"testing"

	"coschedsim/internal/sim"
)

// TestRandomWorkloadInvariants drives a node with a random mix of threads
// (computing, sleeping, blocking, spinning, priority-changing) and checks
// global invariants at the end:
//
//   - conservation: total productive CPU time <= CPUs x elapsed
//   - all threads reach a consistent terminal or waiting state
//   - no thread is left Ready while an eligible CPU idles
func TestRandomWorkloadInvariants(t *testing.T) {
	for _, proto := range []bool{false, true} {
		for seed := int64(1); seed <= 5; seed++ {
			opts := VanillaOptions(4)
			if proto {
				opts = PrototypeOptions(4)
			}
			eng := sim.NewEngine(seed)
			n := MustNode(eng.NewHandle(0), opts)
			n.Start()
			rng := eng.CounterRand("stress")

			var threads []*Thread
			for i := 0; i < 24; i++ {
				prio := Priority(20 + rng.Intn(100))
				home := rng.Intn(5) - 1 // includes Unbound
				th := n.NewThread("w", prio, home)
				threads = append(threads, th)
				cycles := 10 + rng.Intn(30)
				var loop func()
				loop = func() {
					cycles--
					if cycles <= 0 {
						th.Exit()
						return
					}
					switch rng.Intn(4) {
					case 0:
						th.Run(rng.Duration(3*sim.Millisecond), loop)
					case 1:
						th.Run(rng.Duration(sim.Millisecond), func() {
							th.Sleep(rng.Duration(10*sim.Millisecond), loop)
						})
					case 2:
						th.Run(rng.Duration(sim.Millisecond), func() {
							th.Block(loop)
							// external wake after a random delay
							n.Sched().After(rng.Duration(5*sim.Millisecond)+1, func() {
								if th.State() == StateBlocked {
									th.Wakeup()
								}
							})
						})
					default:
						th.Run(rng.Duration(sim.Millisecond), func() {
							th.SpinWait(loop)
							n.Sched().After(rng.Duration(2*sim.Millisecond)+1, func() {
								if th.Spinning() {
									th.Signal()
								}
							})
						})
					}
				}
				th.Start(loop)
			}
			// Random external priority changes.
			for i := 0; i < 40; i++ {
				at := rng.Duration(200 * sim.Millisecond)
				victim := threads[rng.Intn(len(threads))]
				p := Priority(20 + rng.Intn(100))
				n.Sched().At(at, func() {
					if victim.State() != StateExited {
						victim.SetPriority(p)
					}
				})
			}
			// Run until every thread exits (ticks run forever, so chunk the
			// horizon) with a generous cap.
			allDone := func() bool {
				for _, th := range threads {
					if th.State() != StateExited {
						return false
					}
				}
				return true
			}
			for end := sim.Second; end <= 60*sim.Second && !allDone(); end += sim.Second {
				eng.Run(end)
			}

			elapsed := eng.Now()
			var total sim.Time
			for _, th := range threads {
				total += th.Stats().CPUTime
				if th.State() != StateExited {
					t.Fatalf("seed %d proto=%v: thread %v never finished", seed, proto, th)
				}
			}
			if total > 4*elapsed {
				t.Fatalf("seed %d: CPU conservation violated: %v productive > 4 x %v", seed, total, elapsed)
			}
			if n.RunnableCount() != 0 {
				t.Fatalf("seed %d: %d runnable threads left after all exited", seed, n.RunnableCount())
			}
		}
	}
}

// TestNoStarvationWithTimeslice checks that two CPU-bound equal-priority
// threads share one processor ~evenly under the RR quantum.
func TestNoStarvationWithTimeslice(t *testing.T) {
	opts := exactOptions(1)
	opts.Timeslice = true
	eng, n := newTestNode(t, opts)
	mk := func() *Thread {
		th := n.NewThread("w", 90, 0)
		var loop func()
		loop = func() { th.Run(3*sim.Millisecond, loop) }
		th.Start(loop)
		return th
	}
	a, b := mk(), mk()
	eng.Run(sim.Second)
	ca, cb := a.Stats().CPUTime, b.Stats().CPUTime
	if ca == 0 || cb == 0 {
		t.Fatalf("starvation: %v vs %v", ca, cb)
	}
	ratio := float64(ca) / float64(cb)
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair timeslicing: %v vs %v (ratio %.2f)", ca, cb, ratio)
	}
}
