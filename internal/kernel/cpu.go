package kernel

import "coschedsim/internal/sim"

// CPU is one processor of an SMP node.
type CPU struct {
	node *Node
	idx  int

	current    *Thread
	lastThread *Thread // for context-switch cost decisions
	localQ     runQueue

	pendingIPI bool

	// Accounting.
	busy       sim.Time // wall occupancy by threads (includes stolen time)
	stolen     sim.Time // interrupt/tick/ctx time charged here
	busySince  sim.Time // start of the current burst segment
	stolenMark sim.Time // c.stolen at segment start
	ticksTaken uint64
}

// Index returns the CPU's index within its node.
func (c *CPU) Index() int { return c.idx }

// Idle reports whether no thread is running here.
func (c *CPU) Idle() bool { return c.current == nil }

// CPUStats is a snapshot of one CPU's accounting.
type CPUStats struct {
	Busy   sim.Time // time threads held the CPU, the overhead stolen from them included
	Stolen sim.Time // tick/IPI/context-switch overhead charged here
	Ticks  uint64
}

// Stats returns the CPU's accounting counters.
func (c *CPU) Stats() CPUStats {
	return CPUStats{Busy: c.busy, Stolen: c.stolen, Ticks: c.ticksTaken}
}

// tickOffset is the phase of this CPU's tick grid within the node:
// zero when ticks are aligned, the AIX stagger otherwise.
func (c *CPU) tickOffset() sim.Time {
	if c.node.opts.AlignTicks {
		return 0
	}
	grid := c.node.opts.EffectiveTick()
	return grid * sim.Time(c.idx) / sim.Time(c.node.opts.NumCPUs)
}

// nextTickAtOrAfter returns the first point on this CPU's tick grid at or
// after w, honouring the node clock phase.
func (c *CPU) nextTickAtOrAfter(w sim.Time) sim.Time {
	grid := c.node.opts.EffectiveTick()
	off := c.node.phase + c.tickOffset()
	if w <= off {
		return off
	}
	return (w - off).AlignUp(grid) + off
}
