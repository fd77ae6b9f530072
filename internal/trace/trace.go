// Package trace is the simulator's analogue of the AIX trace facility the
// paper leaned on: it records scheduler events into a bounded buffer,
// supports application trace marks (the paper instruments every 64th
// MPI_Allreduce), and can attribute an interval of wall time to the daemons
// and interrupt activity that consumed it — the forensics behind Figure 4.
package trace

import (
	"fmt"
	"sort"
	"strings"

	"coschedsim/internal/kernel"
	"coschedsim/internal/sim"
)

// Record is one captured event.
type Record struct {
	Time   sim.Time
	Node   int
	CPU    int
	Kind   kernel.EventKind
	Thread string // thread name, "" for CPU-level events
	TID    int
	Prio   kernel.Priority
	Daemon bool
	Arg    int64
	Mark   string // set on application marks
}

// Buffer collects records into a fixed-capacity ring, like a circular
// kernel trace buffer: once full it overwrites the oldest record in place
// (counting overwrites as drops), so memory is bounded by the capacity and
// the steady-state capture path allocates nothing. Storage grows on demand
// up to the capacity rather than being preallocated — a buffer sized for
// millions of records that captures thousands costs only thousands. It
// implements kernel.EventSink.
type Buffer struct {
	capacity int
	recs     []Record // ring storage; oldest record at head once full
	head     int      // write position == oldest record when len == capacity
	dropped  uint64
	enabled  bool
	nodeOnly int // -1: all nodes
	skipTick bool
}

// NewBuffer creates a trace buffer holding up to capacity records.
func NewBuffer(capacity int) *Buffer {
	return &Buffer{capacity: capacity, enabled: true, nodeOnly: -1}
}

// SetEnabled turns capture on or off (the paper enables tracing only while
// the Allreduce loop is active, to bound volume).
func (b *Buffer) SetEnabled(on bool) { b.enabled = on }

// FilterNode restricts capture to a single node (-1 for all).
func (b *Buffer) FilterNode(node int) { b.nodeOnly = node }

// SkipTicks drops tick events, which dominate volume but are rarely the
// interesting signal.
func (b *Buffer) SkipTicks(skip bool) { b.skipTick = skip }

// Dropped reports how many records were overwritten after the ring filled.
func (b *Buffer) Dropped() uint64 { return b.dropped }

// Records returns the captured records in chronological order. When the
// ring has wrapped, the storage is rotated in place first (three-reversal
// rotation: O(n) time, zero allocation), so repeated calls are cheap.
func (b *Buffer) Records() []Record {
	if b.head != 0 {
		reverseRecords(b.recs[:b.head])
		reverseRecords(b.recs[b.head:])
		reverseRecords(b.recs)
		b.head = 0
	}
	return b.recs
}

func reverseRecords(rs []Record) {
	for i, j := 0, len(rs)-1; i < j; i, j = i+1, j-1 {
		rs[i], rs[j] = rs[j], rs[i]
	}
}

// Reset clears the buffer, keeping the ring storage for reuse.
func (b *Buffer) Reset() {
	clear(b.recs)
	b.recs = b.recs[:0]
	b.head = 0
	b.dropped = 0
}

func (b *Buffer) push(r Record) {
	if !b.enabled {
		return
	}
	if b.nodeOnly >= 0 && r.Node != b.nodeOnly && r.Mark == "" {
		return
	}
	if len(b.recs) < b.capacity {
		b.recs = append(b.recs, r)
		return
	}
	if len(b.recs) == 0 { // zero-capacity buffer
		b.dropped++
		return
	}
	// Ring is full: overwrite the oldest record in place.
	b.recs[b.head] = r
	b.head++
	if b.head == len(b.recs) {
		b.head = 0
	}
	b.dropped++
}

// KernelEvent implements kernel.EventSink.
func (b *Buffer) KernelEvent(now sim.Time, node int, cpu int, kind kernel.EventKind, th *kernel.Thread, arg int64) {
	if b.skipTick && kind == kernel.EvTick {
		return
	}
	r := Record{Time: now, Node: node, CPU: cpu, Kind: kind, Arg: arg, TID: -1}
	if th != nil {
		r.Thread = th.Name()
		r.TID = th.ID()
		r.Prio = th.Priority()
		r.Daemon = th.Daemon
	}
	b.push(r)
}

// Mark records an application-level trace hook, like the paper's trace
// calls before and after every 64th Allreduce.
func (b *Buffer) Mark(now sim.Time, node int, label string) {
	b.push(Record{Time: now, Node: node, CPU: -1, Kind: kernel.EvReady, TID: -1, Mark: label})
}

// Attribution summarizes who consumed CPU during an interval: occupancy per
// non-application thread, preemption and IPI counts. It answers the paper's
// question "what other processes are running while the program is delayed?".
type Attribution struct {
	From, To     sim.Time
	Node         int
	DaemonTime   map[string]sim.Time // occupancy of Daemon-flagged threads by name
	OtherTime    map[string]sim.Time // occupancy of other non-app threads (e.g. MPI timer threads)
	Preemptions  int
	IPIs         int
	Ticks        int
	TotalDaemon  sim.Time
	TotalOther   sim.Time
	LongestName  string
	LongestBurst sim.Time
}

// Attribute scans records of one node in [from, to] and accounts occupancy
// of every thread whose name does not have the given app prefix. Dispatch
// events open an occupancy segment on a CPU; preempt/block/sleep/exit close
// it. Segments still open at `to` are truncated there and closed in CPU
// order. Of equal bursts, the one closed first names LongestName.
func Attribute(recs []Record, node int, from, to sim.Time, appPrefix string) Attribution {
	a := Attribution{
		From: from, To: to, Node: node,
		DaemonTime: map[string]sim.Time{},
		OtherTime:  map[string]sim.Time{},
	}
	type open struct {
		name   string
		daemon bool
		since  sim.Time
	}
	running := map[int]*open{} // cpu -> open segment

	closeSeg := func(cpu int, at sim.Time) {
		seg := running[cpu]
		if seg == nil {
			return
		}
		delete(running, cpu)
		start := seg.since
		if start < from {
			start = from
		}
		end := at
		if end > to {
			end = to
		}
		if end <= start {
			return
		}
		d := end - start
		if seg.daemon {
			a.DaemonTime[seg.name] += d
			a.TotalDaemon += d
		} else {
			a.OtherTime[seg.name] += d
			a.TotalOther += d
		}
		if d > a.LongestBurst {
			a.LongestBurst = d
			a.LongestName = seg.name
		}
	}

	for _, r := range recs {
		if r.Node != node || r.Time > to {
			if r.Time > to {
				break
			}
			continue
		}
		switch r.Kind {
		case kernel.EvDispatch:
			cpu := int(r.Arg)
			closeSeg(cpu, r.Time)
			if !strings.HasPrefix(r.Thread, appPrefix) && r.Thread != "" {
				running[cpu] = &open{name: r.Thread, daemon: r.Daemon, since: r.Time}
			}
		case kernel.EvPreempt:
			closeSeg(int(r.Arg), r.Time)
			if r.Time >= from {
				a.Preemptions++
			}
		case kernel.EvBlock, kernel.EvSleep, kernel.EvExit:
			if r.CPU >= 0 {
				closeSeg(r.CPU, r.Time)
			}
		case kernel.EvIPI:
			if r.Time >= from {
				a.IPIs++
			}
		case kernel.EvTick:
			if r.Time >= from {
				a.Ticks++
			}
		}
	}
	cpus := make([]int, 0, len(running))
	for cpu := range running {
		cpus = append(cpus, cpu)
	}
	sort.Ints(cpus)
	for _, cpu := range cpus {
		closeSeg(cpu, to)
	}
	return a
}

// TopOffenders lists the attribution's threads by descending occupancy.
func (a Attribution) TopOffenders(n int) []string {
	type kv struct {
		name string
		d    sim.Time
	}
	var all []kv
	for k, v := range a.DaemonTime {
		all = append(all, kv{k, v})
	}
	for k, v := range a.OtherTime {
		all = append(all, kv{k, v})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].d != all[j].d {
			return all[i].d > all[j].d
		}
		return all[i].name < all[j].name
	})
	if n > len(all) {
		n = len(all)
	}
	out := make([]string, 0, n)
	for _, e := range all[:n] {
		out = append(out, fmt.Sprintf("%s=%v", e.name, e.d))
	}
	return out
}

// Timeline renders a Figure-1 style ASCII schedule of one node: one row per
// CPU, one column per bucket of width step, '#' where an application thread
// ran, 'd' where a daemon ran, 'o' for other system threads, '.' idle.
func Timeline(recs []Record, node int, from, to sim.Time, step sim.Time, appPrefix string) string {
	if step <= 0 || to <= from {
		return ""
	}
	ncols := int((to - from + step - 1) / step)
	rows := map[int][]byte{}
	ensure := func(cpu int) []byte {
		if r, ok := rows[cpu]; ok {
			return r
		}
		r := make([]byte, ncols)
		for i := range r {
			r[i] = '.'
		}
		rows[cpu] = r
		return r
	}
	mark := func(cpu int, a, b sim.Time, ch byte) {
		if b <= from || a >= to {
			return
		}
		if a < from {
			a = from
		}
		if b > to {
			b = to
		}
		row := ensure(cpu)
		for i := int((a - from) / step); i <= int((b-from-1)/step) && i < ncols; i++ {
			if i < 0 {
				continue
			}
			// Daemon marks win over app marks so interference is visible.
			if row[i] == '.' || ch != '#' {
				row[i] = ch
			}
		}
	}

	type open struct {
		ch    byte
		since sim.Time
	}
	running := map[int]*open{}
	closeSeg := func(cpu int, at sim.Time) {
		if seg := running[cpu]; seg != nil {
			mark(cpu, seg.since, at, seg.ch)
			delete(running, cpu)
		}
	}
	for _, r := range recs {
		if r.Node != node {
			continue
		}
		if r.Time > to {
			break
		}
		switch r.Kind {
		case kernel.EvDispatch:
			cpu := int(r.Arg)
			closeSeg(cpu, r.Time)
			ch := byte('o')
			if strings.HasPrefix(r.Thread, appPrefix) {
				ch = '#'
			} else if r.Daemon {
				ch = 'd'
			}
			running[cpu] = &open{ch: ch, since: r.Time}
		case kernel.EvPreempt:
			closeSeg(int(r.Arg), r.Time)
		case kernel.EvBlock, kernel.EvSleep, kernel.EvExit:
			if r.CPU >= 0 {
				closeSeg(r.CPU, r.Time)
			}
		}
	}
	for cpu := range running {
		closeSeg(cpu, to)
	}

	var cpus []int
	for cpu := range rows {
		cpus = append(cpus, cpu)
	}
	sort.Ints(cpus)
	var sb strings.Builder
	for _, cpu := range cpus {
		fmt.Fprintf(&sb, "cpu%02d |%s|\n", cpu, rows[cpu])
	}
	return sb.String()
}
