package kernel

import "coschedsim/internal/sim"

// Supervisor models an init/srcmstr-style daemon respawner: it periodically
// scans a set of watched threads and restarts any that have exited (e.g.
// killed by injected stall faults) after a fixed restart delay. Restart
// latency is accounted so experiments can report recovery time.
type Supervisor struct {
	node         *Node
	restartDelay sim.Time
	watches      []*watch
	restarts     []restartRec
	stopped      bool
}

// restartRec is one completed respawn. Timestamps are kept so reports can
// count only restarts before a deterministic cutoff (the job's termination
// time): how many respawns fire *after* the workload ends depends on how the
// engine core drains its final window, and must not leak into cross-core
// byte-identical statistics.
type restartRec struct {
	at       sim.Time
	recovery sim.Time
}

type watch struct {
	th      *Thread
	respawn func() *Thread
	pending bool // a respawn is scheduled (or permanently declined)
}

// NewSupervisor starts a supervisor on n scanning every checkPeriod and
// respawning dead watched threads restartDelay after the scan that notices
// them. Stop only sets a flag; the scan retires itself at its next firing.
func NewSupervisor(n *Node, checkPeriod, restartDelay sim.Time) *Supervisor {
	if checkPeriod <= 0 || restartDelay <= 0 {
		panic("kernel: Supervisor needs positive checkPeriod and restartDelay")
	}
	s := &Supervisor{node: n, restartDelay: restartDelay}
	sched := n.sched
	var scan func()
	scan = func() {
		if s.stopped {
			return
		}
		s.scan()
		sched.After(checkPeriod, scan)
	}
	sched.After(checkPeriod, scan)
	return s
}

// Watch registers a thread and a factory that recreates it. respawn may
// return nil to decline (e.g. the noise set has been stopped); a declined
// watch is dropped permanently.
func (s *Supervisor) Watch(th *Thread, respawn func() *Thread) {
	if th == nil || respawn == nil {
		panic("kernel: Supervisor.Watch with nil thread or respawn")
	}
	s.watches = append(s.watches, &watch{th: th, respawn: respawn})
}

func (s *Supervisor) scan() {
	sched := s.node.sched
	for _, w := range s.watches {
		if w.pending || w.th.state != StateExited {
			continue
		}
		w.pending = true
		w := w
		died := w.th.exitedAt
		sched.After(s.restartDelay, func() {
			if s.stopped {
				return
			}
			nt := w.respawn()
			if nt == nil {
				return // declined; watch stays pending forever
			}
			s.restarts = append(s.restarts, restartRec{at: sched.Now(), recovery: sched.Now() - died})
			w.th = nt
			w.pending = false
		})
	}
}

// Stop disables the supervisor; the scan retires at its next firing.
func (s *Supervisor) Stop() { s.stopped = true }

// Restarts returns how many daemons were respawned.
func (s *Supervisor) Restarts() int { return len(s.restarts) }

// RecoveryTime returns the summed death-to-respawn latency.
func (s *Supervisor) RecoveryTime() sim.Time {
	var sum sim.Time
	for _, r := range s.restarts {
		sum += r.recovery
	}
	return sum
}

// RestartsBefore counts respawns that fired strictly before cutoff and sums
// their recovery latencies. Every engine core fires all events strictly
// before the job's termination time, so with that cutoff the counts are
// identical across cores and worker counts.
func (s *Supervisor) RestartsBefore(cutoff sim.Time) (int, sim.Time) {
	n, sum := 0, sim.Time(0)
	for _, r := range s.restarts {
		if r.at < cutoff {
			n++
			sum += r.recovery
		}
	}
	return n, sum
}
