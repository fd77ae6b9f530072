package kernel

import "coschedsim/internal/sim"

// Usage-decay ("fair share") scheduling, the paper's related-work category
// 3 flavor and real AIX's default behaviour for non-fixed priorities: a
// thread's effective priority worsens as it accumulates recent CPU time and
// recovers as it waits, optimizing machine-wide throughput rather than any
// one job's turnaround — precisely the objective the paper distinguishes
// itself from ("we are willing to have large inefficiencies in distributed
// daemons ... if the time-to-completion for the dedicated parallel
// application improves").
//
// The mechanism mirrors AIX: priority = base + penalty(recent CPU), with
// recent CPU halved by a once-per-second recalculation sweep (the swapper),
// and threads whose priority was set explicitly (setpri semantics — the
// co-scheduler's favored/unfavored values, daemon fixed priorities) exempt
// from decay.

// fairShareDefaults match AIX's PUSER scaling closely enough for the
// experiments: one penalty point per 10ms of recent CPU, capped.
const (
	usagePenaltyUnit = 10 * sim.Millisecond
	usagePenaltyMax  = 24
	usageSweepPeriod = sim.Second
)

// effectivePriority computes base + usage penalty for a decaying thread.
func (t *Thread) effectivePriority() Priority {
	if t.fixedPrio {
		return t.basePrio
	}
	penalty := Priority(t.recentCPU / usagePenaltyUnit)
	if penalty > usagePenaltyMax {
		penalty = usagePenaltyMax
	}
	return t.basePrio + penalty
}

// chargeUsage accrues recent CPU for the decay model (called from
// closeSegment when the option is on).
func (n *Node) chargeUsage(t *Thread, work sim.Time) {
	if !n.opts.UsageDecay || t.fixedPrio {
		return
	}
	t.recentCPU += work
	// The running thread's own priority degrades immediately; preemption
	// against it is noticed at the usual notice points.
	t.prio = t.effectivePriority()
}

// startUsageSweep arms the once-per-second recalculation (AIX's swapper):
// halve every thread's recent CPU, recompute effective priorities, and fix
// up queue positions. The sweep re-arms itself with After.
func (n *Node) startUsageSweep() {
	if !n.opts.UsageDecay {
		return
	}
	var sweep func()
	sweep = func() {
		for _, t := range n.threads {
			if t.fixedPrio || t.state == StateExited {
				continue
			}
			t.recentCPU /= 2
			eff := t.effectivePriority()
			if eff == t.prio {
				continue
			}
			switch t.state {
			case StateReady:
				t.prio = eff
				t.queue.Fix(t)
			default:
				t.prio = eff
			}
		}
		// Recovered priorities may now beat running threads.
		for _, c := range n.cpus {
			if c.current == nil {
				n.dispatchOn(c)
			}
		}
		n.reconcile()
		n.sched.After(usageSweepPeriod, sweep)
	}
	n.sched.After(usageSweepPeriod, sweep)
}
