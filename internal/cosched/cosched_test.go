package cosched

import (
	"math"
	"strings"
	"testing"

	"coschedsim/internal/kernel"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if err := IOAwareParams().Validate(); err != nil {
		t.Fatalf("io-aware params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.Class = "" },
		func(p *Params) { p.Period = 0 },
		func(p *Params) { p.Duty = 0 },
		func(p *Params) { p.Duty = 1.0 }, // starvation refused
		func(p *Params) { p.Duty = math.NaN() },
		func(p *Params) { p.Favored = p.Unfavored },
		func(p *Params) { p.SelfPriority = p.Favored },
		func(p *Params) { p.AdjustCost = -1 },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, p)
		}
	}
}

func TestParseAdminFile(t *testing.T) {
	text := `
# /etc/poe.priority
benchmark:-1:30:100:5:90
production:501:41:100:10:95   # tuned for GPFS
`
	recs, err := ParseAdminFile(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records, want 2", len(recs))
	}
	b := recs[0]
	if b.Class != "benchmark" || b.UserID != -1 || b.Favored != 30 || b.Unfavored != 100 ||
		b.Period != 5*sim.Second || b.Duty != 0.90 {
		t.Fatalf("benchmark record = %+v", b)
	}
	p := recs[1]
	if p.Class != "production" || p.UserID != 501 || p.Favored != 41 || p.Period != 10*sim.Second || p.Duty != 0.95 {
		t.Fatalf("production record = %+v", p)
	}
}

func TestParseAdminFileErrors(t *testing.T) {
	cases := []string{
		"too:few:fields",
		"bad:-1:xx:100:5:90",
		"starver:-1:30:100:5:100", // 100% duty refused by Validate
		"inverted:-1:100:30:5:90",
		"batch:-1:30:100:5:NaN",    // NaN duty slipped past Validate
		"batch:NaN:30:100:5:90",    // NaN uid became math.MinInt64
		"batch:-1:30.9:100:5:90",   // fractional priority was truncated
		"batch:-1:30:100:Inf:90",   // infinite period
		"batch:-1:30:100:1e300:90", // period overflows simulated time
		"batch:-1:30:100:5:90\n#" + strings.Repeat("x", 64<<10) + "\nproduction:501:41:100:10:95",
	}
	for _, text := range cases {
		if recs, err := ParseAdminFile(text); err == nil {
			t.Errorf("accepted %.60q as %d record(s)", text, len(recs))
		}
	}
}

// FuzzParseAdminFile checks the parser's contract on arbitrary input: it
// either returns an error or records that all pass Validate.
func FuzzParseAdminFile(f *testing.F) {
	for _, seed := range []string{
		"# /etc/poe.priority\nbenchmark:-1:30:100:5:90\nproduction:501:41:100:10:95   # tuned for GPFS\n",
		"batch:-1:30:100:5:NaN",
		"batch:NaN:30:100:5:90",
		"batch:-1:30.9:100:5:90",
		"batch:-1:30:100:5:90\n#" + strings.Repeat("x", 64<<10) + "\nproduction:501:41:100:10:95",
		"too:few:fields",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		recs, err := ParseAdminFile(text)
		if err != nil {
			return
		}
		for _, p := range recs {
			if verr := p.Validate(); verr != nil {
				t.Fatalf("returned a record that fails Validate: %+v: %v", p, verr)
			}
		}
	})
}

func TestLookupClass(t *testing.T) {
	recs, err := ParseAdminFile("benchmark:-1:30:100:5:90\nproduction:501:41:100:10:95\n")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := LookupClass(recs, "benchmark", 1234); err != nil {
		t.Errorf("wildcard uid rejected: %v", err)
	}
	if _, err := LookupClass(recs, "production", 501); err != nil {
		t.Errorf("matching uid rejected: %v", err)
	}
	if _, err := LookupClass(recs, "production", 502); err == nil {
		t.Error("wrong uid accepted")
	}
	if _, err := LookupClass(recs, "nosuch", 501); err == nil {
		t.Error("unknown class accepted")
	} else if !strings.Contains(err.Error(), "without co-scheduling") {
		t.Errorf("error should mirror POE's attention message, got %v", err)
	}
}

// testbed builds one node with a scheduler and a fake registered process of
// two threads that do nothing but exist (blocked).
func testbed(t *testing.T, seed int64, params Params) (*sim.Engine, *kernel.Node, *Scheduler, []*kernel.Thread) {
	t.Helper()
	eng := sim.NewEngine(seed)
	n := kernel.MustNode(eng.NewHandle(0), kernel.PrototypeOptions(4))
	n.Start()
	s := MustNew(params)
	s.AddNode(n, network.NewSwitchClock(eng))
	task := n.NewThread("rank0", kernel.PrioUserNormal, 0)
	aux := n.NewThread("mpitimer0", kernel.PrioUserNormal, 0)
	task.Start(func() { task.Block(task.Exit) })
	aux.Start(func() { aux.Block(aux.Exit) })
	eng.Run(sim.Millisecond) // let them block
	ths := []*kernel.Thread{task, aux}
	s.RegisterProcess(n, 1000, ths)
	return eng, n, s, ths
}

func TestWindowCycling(t *testing.T) {
	params := DefaultParams() // 5s period, 90% duty
	eng, n, s, ths := testbed(t, 1, params)

	// Walk to the middle of the first favored window: boundary at 5s.
	eng.Run(7 * sim.Second)
	if !s.NodeFavored(n) {
		t.Fatal("node not favored mid-window")
	}
	for _, th := range ths {
		if th.Priority() != params.Favored {
			t.Fatalf("thread %s priority %v in favored window", th.Name(), th.Priority())
		}
	}
	// 5s + 4.5s = 9.5s: unfavored tail of the first period.
	eng.Run(9700 * sim.Millisecond)
	if s.NodeFavored(n) {
		t.Fatal("node still favored in the unfavored tail")
	}
	for _, th := range ths {
		if th.Priority() != params.Unfavored {
			t.Fatalf("thread %s priority %v in unfavored window", th.Name(), th.Priority())
		}
	}
	// Next period favored again.
	eng.Run(11 * sim.Second)
	if !s.NodeFavored(n) {
		t.Fatal("node not favored in second period")
	}
}

func TestWindowBoundariesAlignToPeriod(t *testing.T) {
	params := DefaultParams()
	eng, _, s, _ := testbed(t, 2, params)
	eng.Run(26 * sim.Second)
	trans := s.Transitions()
	if len(trans) < 8 {
		t.Fatalf("only %d transitions in 26s", len(trans))
	}
	for _, tr := range trans {
		var offset sim.Time
		if tr.Favored {
			offset = tr.Time % params.Period
		} else {
			offset = (tr.Time - sim.Time(float64(params.Period)*params.Duty)) % params.Period
		}
		// Boundaries land within one effective tick (250ms prototype grid)
		// plus the adjustment cost of the nominal edge.
		slack := 250*sim.Millisecond + 10*sim.Millisecond
		if offset > slack {
			t.Fatalf("transition %+v off-boundary by %v", tr, offset)
		}
	}
}

func TestDutyCycleFraction(t *testing.T) {
	params := DefaultParams()
	eng, _, s, _ := testbed(t, 3, params)
	eng.Run(65 * sim.Second)
	mean, joint := FavoredOverlap(s.Transitions(), 1, 5*sim.Second, 65*sim.Second)
	if mean < 0.85 || mean > 0.95 {
		t.Fatalf("favored fraction = %.3f, want ~0.90", mean)
	}
	if joint < 0.85 || joint > 0.95 {
		t.Fatalf("joint fraction (1 node) = %.3f, want ~mean", joint)
	}
}

func TestDetachAttach(t *testing.T) {
	params := DefaultParams()
	eng, n, s, ths := testbed(t, 4, params)
	eng.Run(7 * sim.Second) // inside favored window
	s.DetachProcess(n, 1000)
	for _, th := range ths {
		if th.Priority() != params.NormalPriority {
			t.Fatalf("detached thread %s priority %v, want normal", th.Name(), th.Priority())
		}
	}
	// Stays normal across a window edge.
	eng.Run(9700 * sim.Millisecond)
	for _, th := range ths {
		if th.Priority() != params.NormalPriority {
			t.Fatalf("detached thread %s re-prioritized to %v", th.Name(), th.Priority())
		}
	}
	s.AttachProcess(n, 1000)
	for _, th := range ths {
		if th.Priority() != params.Unfavored {
			t.Fatalf("re-attached thread %s priority %v, want unfavored", th.Name(), th.Priority())
		}
	}
}

func TestSchedulerExitsAfterJob(t *testing.T) {
	eng, n, s, _ := testbed(t, 5, DefaultParams())
	eng.Run(7 * sim.Second)
	s.UnregisterProcess(n, 1000)
	eng.Run(20 * sim.Second)
	for _, th := range n.Threads() {
		if strings.HasPrefix(th.Name(), "cosched") && th.State() != kernel.StateExited {
			t.Fatalf("co-scheduler daemon still %v after job ended", th.State())
		}
	}
}

func TestSyncedClocksOverlapUnsyncedDont(t *testing.T) {
	run := func(offsets []sim.Time) float64 {
		eng := sim.NewEngine(9)
		s := MustNew(DefaultParams())
		for i, off := range offsets {
			n := kernel.MustNode(eng.NewHandle(i), kernel.PrototypeOptions(2))
			n.Start()
			var clock network.Clock
			if off == 0 {
				clock = network.NewSwitchClock(eng)
			} else {
				clock = network.NewLocalClock(eng, off)
			}
			s.AddNode(n, clock)
			task := n.NewThread("rank", kernel.PrioUserNormal, 0)
			task.Start(func() { task.Block(task.Exit) })
			eng.Run(eng.Now() + sim.Millisecond)
			s.RegisterProcess(n, 1000, []*kernel.Thread{task})
		}
		eng.Run(66 * sim.Second)
		_, joint := FavoredOverlap(s.Transitions(), len(offsets), 6*sim.Second, 60*sim.Second)
		return joint
	}

	synced := run([]sim.Time{0, 0, 0, 0})
	unsynced := run([]sim.Time{0, 1200 * sim.Millisecond, 2400 * sim.Millisecond, 3600 * sim.Millisecond})
	if synced < 0.8 {
		t.Fatalf("synced joint overlap = %.3f, want ~0.9", synced)
	}
	if unsynced > synced-0.1 {
		t.Fatalf("unsynced joint overlap %.3f not clearly below synced %.3f", unsynced, synced)
	}
}

func TestDaemonDeniedDuringFavoredWindow(t *testing.T) {
	// A priority-56 daemon with pending work must pile up during the
	// favored window and run in the unfavored tail.
	params := DefaultParams()
	eng := sim.NewEngine(11)
	n := kernel.MustNode(eng.NewHandle(0), kernel.PrototypeOptions(1)) // single CPU: contention guaranteed
	n.Start()
	s := MustNew(params)
	s.AddNode(n, network.NewSwitchClock(eng))

	// The task spins forever.
	task := n.NewThread("rank0", kernel.PrioUserNormal, 0)
	var spin func()
	spin = func() { task.Run(sim.Second, spin) }
	task.Start(spin)
	eng.Run(sim.Millisecond)
	s.RegisterProcess(n, 1000, []*kernel.Thread{task})

	// Daemon wants 5ms every 100ms.
	d := n.NewDaemon("hatsd", kernel.PrioSystemDaemon, 0)
	var cycle func()
	cycle = func() { d.Run(5*sim.Millisecond, func() { d.Sleep(100*sim.Millisecond, cycle) }) }
	d.Start(cycle)

	// Run through two full periods starting at the first boundary (5s).
	eng.Run(15 * sim.Second)
	st := d.Stats()
	// In 10s of co-scheduled time the daemon wants ~100 runs x 5ms = 500ms
	// but only the two 500ms unfavored windows are available; it must have
	// been starved well below its demand, yet not to zero.
	if st.CPUTime == 0 {
		t.Fatal("daemon completely starved — unfavored window never ran it")
	}
	if st.CPUTime > 1200*sim.Millisecond {
		t.Fatalf("daemon got %v, favored window is not denying it", st.CPUTime)
	}
	if st.WaitTime < 2*sim.Second {
		t.Fatalf("daemon wait time %v too small — work is not piling up", st.WaitTime)
	}
}

func TestFavoredOverlapEdgeCases(t *testing.T) {
	if m, j := FavoredOverlap(nil, 0, 0, sim.Second); m != 0 || j != 0 {
		t.Fatal("zero nodes must yield zero overlap")
	}
	if m, j := FavoredOverlap(nil, 2, sim.Second, sim.Second); m != 0 || j != 0 {
		t.Fatal("empty window must yield zero overlap")
	}
	// One node favored the whole window (transition before `from`).
	trans := []Transition{{Time: 0, Node: 0, Favored: true}}
	m, j := FavoredOverlap(trans, 1, sim.Second, 2*sim.Second)
	if m != 1 || j != 1 {
		t.Fatalf("always-favored overlap = %v/%v, want 1/1", m, j)
	}
}

func TestRegisterOnUnmanagedNodePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	n := kernel.MustNode(eng.NewHandle(0), kernel.VanillaOptions(1))
	s := MustNew(DefaultParams())
	defer func() {
		if recover() == nil {
			t.Fatal("RegisterProcess on unmanaged node did not panic")
		}
	}()
	s.RegisterProcess(n, 1, nil)
}

func TestAddNodeTwicePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	n := kernel.MustNode(eng.NewHandle(0), kernel.VanillaOptions(1))
	n.Start()
	s := MustNew(DefaultParams())
	s.AddNode(n, network.NewSwitchClock(eng))
	defer func() {
		if recover() == nil {
			t.Fatal("AddNode twice did not panic")
		}
	}()
	s.AddNode(n, network.NewSwitchClock(eng))
}
