package trace

import (
	"strings"
	"testing"

	"coschedsim/internal/kernel"
	"coschedsim/internal/sim"
)

func TestBufferCapacityAndDrops(t *testing.T) {
	b := NewBuffer(2)
	for i := 0; i < 5; i++ {
		b.Mark(sim.Time(i), 0, "m")
	}
	recs := b.Records()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2", len(recs))
	}
	// Ring semantics: the oldest records are overwritten, the newest kept.
	if recs[0].Time != 3 || recs[1].Time != 4 {
		t.Fatalf("ring kept times %v and %v, want 3 and 4", recs[0].Time, recs[1].Time)
	}
	if b.Dropped() != 3 {
		t.Fatalf("dropped = %d, want 3", b.Dropped())
	}
	b.Reset()
	if len(b.Records()) != 0 || b.Dropped() != 0 {
		t.Fatal("Reset did not clear")
	}
}

// TestBufferWraparoundChronological pins that Records stays in time order
// across arbitrary wrap points, including pushes after a rotation.
func TestBufferWraparoundChronological(t *testing.T) {
	b := NewBuffer(4)
	for i := 0; i < 10; i++ {
		b.Mark(sim.Time(i), 0, "m")
	}
	check := func(wantFirst sim.Time) {
		t.Helper()
		recs := b.Records()
		if len(recs) != 4 {
			t.Fatalf("records = %d, want 4", len(recs))
		}
		for i, r := range recs {
			if want := wantFirst + sim.Time(i); r.Time != want {
				t.Fatalf("records[%d].Time = %v, want %v (full: %v)", i, r.Time, want, recs)
			}
		}
	}
	check(6)
	// Records rotated the ring in place; continue pushing and re-check.
	for i := 10; i < 13; i++ {
		b.Mark(sim.Time(i), 0, "m")
	}
	check(9)
	if b.Dropped() != 9 {
		t.Fatalf("dropped = %d, want 9", b.Dropped())
	}
}

// TestBufferGrowOnDemand pins that a large-capacity buffer does not
// preallocate: the figure harness sizes buffers for millions of records but
// most runs capture far fewer.
func TestBufferGrowOnDemand(t *testing.T) {
	b := NewBuffer(4 << 20)
	for i := 0; i < 10; i++ {
		b.Mark(sim.Time(i), 0, "m")
	}
	if c := cap(b.recs); c > 1024 {
		t.Fatalf("capacity-%d buffer allocated %d record slots for 10 records", 4<<20, c)
	}
}

// TestBufferRingRecordReuse pins the steady-state allocation contract: once
// the ring has filled, pushing overwrites records in place and allocates
// nothing.
func TestBufferRingRecordReuse(t *testing.T) {
	b := NewBuffer(256)
	for i := 0; i < 512; i++ { // fill and wrap to warm the ring
		b.KernelEvent(sim.Time(i), 0, 0, kernel.EvIPI, nil, 0)
	}
	allocs := testing.AllocsPerRun(50, func() {
		for i := 0; i < 64; i++ {
			b.KernelEvent(sim.Time(i), 0, 0, kernel.EvIPI, nil, 0)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm ring allocated %.1f times per 64 pushes, want 0", allocs)
	}
}

func TestBufferEnableDisable(t *testing.T) {
	b := NewBuffer(10)
	b.SetEnabled(false)
	b.Mark(1, 0, "off")
	b.SetEnabled(true)
	b.Mark(2, 0, "on")
	recs := b.Records()
	if len(recs) != 1 || recs[0].Mark != "on" {
		t.Fatalf("records = %+v", recs)
	}
}

func TestBufferNodeFilter(t *testing.T) {
	b := NewBuffer(10)
	b.FilterNode(3)
	b.KernelEvent(1, 2, 0, kernel.EvDispatch, nil, 0)
	b.KernelEvent(2, 3, 0, kernel.EvDispatch, nil, 0)
	if len(b.Records()) != 1 || b.Records()[0].Node != 3 {
		t.Fatalf("filter kept %+v", b.Records())
	}
}

func TestBufferSkipTicks(t *testing.T) {
	b := NewBuffer(10)
	b.SkipTicks(true)
	b.KernelEvent(1, 0, 0, kernel.EvTick, nil, 0)
	b.KernelEvent(2, 0, 0, kernel.EvIPI, nil, 0)
	if len(b.Records()) != 1 || b.Records()[0].Kind != kernel.EvIPI {
		t.Fatalf("records = %+v", b.Records())
	}
}

// buildRecords produces a synthetic schedule on node 0:
//
//	cpu0: rank0 runs [0,100us), cron [100us,700us), rank0 [700us,1000us)
//	cpu1: mpitimer runs [200us,500us)
func buildRecords() []Record {
	us := sim.Microsecond
	return []Record{
		{Time: 0, Node: 0, CPU: 0, Kind: kernel.EvDispatch, Thread: "rank0", Arg: 0},
		{Time: 100 * us, Node: 0, CPU: 0, Kind: kernel.EvPreempt, Thread: "rank0", Arg: 0},
		{Time: 100 * us, Node: 0, CPU: 0, Kind: kernel.EvDispatch, Thread: "cron", Daemon: true, Arg: 0},
		{Time: 200 * us, Node: 0, CPU: 1, Kind: kernel.EvDispatch, Thread: "mpitimer0", Arg: 1},
		{Time: 500 * us, Node: 0, CPU: 1, Kind: kernel.EvSleep, Thread: "mpitimer0"},
		{Time: 700 * us, Node: 0, CPU: 0, Kind: kernel.EvExit, Thread: "cron"},
		{Time: 700 * us, Node: 0, CPU: 0, Kind: kernel.EvDispatch, Thread: "rank0", Arg: 0},
		{Time: 1000 * us, Node: 0, CPU: 0, Kind: kernel.EvBlock, Thread: "rank0"},
	}
}

func fixCPURecords(recs []Record) []Record {
	// Sleep/Block/Exit events carry the CPU in the CPU field.
	for i := range recs {
		if recs[i].Kind != kernel.EvDispatch && recs[i].CPU < 0 {
			recs[i].CPU = 0
		}
	}
	return recs
}

func TestAttributeFindsDaemonOccupancy(t *testing.T) {
	us := sim.Microsecond
	a := Attribute(fixCPURecords(buildRecords()), 0, 0, 1000*us, "rank")
	if got := a.DaemonTime["cron"]; got != 600*us {
		t.Fatalf("cron time = %v, want 600us", got)
	}
	if got := a.OtherTime["mpitimer0"]; got != 300*us {
		t.Fatalf("mpitimer time = %v, want 300us", got)
	}
	if a.TotalDaemon != 600*us || a.TotalOther != 300*us {
		t.Fatalf("totals = %v/%v", a.TotalDaemon, a.TotalOther)
	}
	if a.LongestName != "cron" || a.LongestBurst != 600*us {
		t.Fatalf("longest = %s/%v", a.LongestName, a.LongestBurst)
	}
	if a.Preemptions != 1 {
		t.Fatalf("preemptions = %d, want 1", a.Preemptions)
	}
}

func TestAttributeWindowTruncation(t *testing.T) {
	us := sim.Microsecond
	// Window [300us, 600us] sees cron for 300us and mpitimer for 200us.
	a := Attribute(fixCPURecords(buildRecords()), 0, 300*us, 600*us, "rank")
	if got := a.DaemonTime["cron"]; got != 300*us {
		t.Fatalf("cron in window = %v, want 300us", got)
	}
	if got := a.OtherTime["mpitimer0"]; got != 200*us {
		t.Fatalf("mpitimer in window = %v, want 200us", got)
	}
}

func TestAttributeIgnoresOtherNodes(t *testing.T) {
	us := sim.Microsecond
	recs := fixCPURecords(buildRecords())
	a := Attribute(recs, 7, 0, 1000*us, "rank")
	if a.TotalDaemon != 0 || a.TotalOther != 0 {
		t.Fatalf("wrong-node attribution = %+v", a)
	}
}

// TestAttributeLongestTieByCPU puts two daemons on CPUs 0 and 1 at time 0,
// both still running at the window's end, so their bursts tie. The one on
// the lower CPU must name the longest burst on every call, whatever the
// order of the map of open segments.
func TestAttributeLongestTieByCPU(t *testing.T) {
	us := sim.Microsecond
	recs := []Record{
		{Time: 0, Node: 0, CPU: 1, Kind: kernel.EvDispatch, Thread: "hatsd", Daemon: true, Arg: 1},
		{Time: 0, Node: 0, CPU: 0, Kind: kernel.EvDispatch, Thread: "syncd", Daemon: true, Arg: 0},
	}
	for i := 0; i < 200; i++ {
		a := Attribute(recs, 0, 10*us, 50*us, "rank")
		if a.LongestName != "syncd" || a.LongestBurst != 40*us {
			t.Fatalf("call %d: longest = %s/%v, want syncd/40us", i, a.LongestName, a.LongestBurst)
		}
	}
}

func TestTopOffenders(t *testing.T) {
	us := sim.Microsecond
	a := Attribute(fixCPURecords(buildRecords()), 0, 0, 1000*us, "rank")
	top := a.TopOffenders(5)
	if len(top) != 2 || !strings.HasPrefix(top[0], "cron=") {
		t.Fatalf("top offenders = %v", top)
	}
	if one := a.TopOffenders(1); len(one) != 1 {
		t.Fatalf("TopOffenders(1) = %v", one)
	}
}

func TestTimelineRendering(t *testing.T) {
	us := sim.Microsecond
	tl := Timeline(fixCPURecords(buildRecords()), 0, 0, 1000*us, 100*us, "rank")
	lines := strings.Split(strings.TrimSpace(tl), "\n")
	if len(lines) != 2 {
		t.Fatalf("timeline rows = %d, want 2:\n%s", len(lines), tl)
	}
	// cpu0: app 1 bucket, daemon 6 buckets, app 3 buckets.
	if want := "cpu00 |#dddddd###|"; lines[0] != want {
		t.Fatalf("row0 = %q, want %q", lines[0], want)
	}
	// cpu1: idle 2, other 3, idle 5.
	if want := "cpu01 |..ooo.....|"; lines[1] != want {
		t.Fatalf("row1 = %q, want %q", lines[1], want)
	}
}

func TestTimelineEmptyOnBadArgs(t *testing.T) {
	if Timeline(nil, 0, 10, 5, 1, "x") != "" {
		t.Fatal("inverted window must render empty")
	}
	if Timeline(nil, 0, 0, 10, 0, "x") != "" {
		t.Fatal("zero step must render empty")
	}
}

// End-to-end: attach a Buffer to a live node and check we capture a
// dispatch of a daemon thread.
func TestBufferWithLiveNode(t *testing.T) {
	eng := sim.NewEngine(1)
	opts := kernel.VanillaOptions(2)
	n := kernel.MustNode(eng, 0, opts)
	b := NewBuffer(10000)
	n.SetSink(b)
	n.Start()

	d := n.NewDaemon("syncd", kernel.PrioSystemDaemon, 0)
	d.Start(func() { d.Run(sim.Millisecond, d.Exit) })
	eng.Run(100 * sim.Millisecond)

	var sawDispatch bool
	for _, r := range b.Records() {
		if r.Kind == kernel.EvDispatch && r.Thread == "syncd" && r.Daemon {
			sawDispatch = true
		}
	}
	if !sawDispatch {
		t.Fatal("live node produced no syncd dispatch record")
	}
	// Attribution is wall occupancy: 1ms of work plus the tick and context
	// switch overhead stolen while syncd held the CPU.
	a := Attribute(b.Records(), 0, 0, eng.Now(), "rank")
	if got := a.DaemonTime["syncd"]; got < sim.Millisecond || got > sim.Millisecond+100*sim.Microsecond {
		t.Fatalf("live attribution syncd = %v, want 1ms..1.1ms", got)
	}
}
