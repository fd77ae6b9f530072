package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"coschedsim/internal/kernel"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

// testCluster builds nNodes quiet nodes of ncpu CPUs and a job with one rank
// per CPU until size ranks are placed.
func testCluster(t testing.TB, seed int64, size, ncpu int, cfg Config) (*sim.Engine, *Job) {
	t.Helper()
	eng := sim.NewEngine(seed)
	nNodes := (size + ncpu - 1) / ncpu
	fabric := serialFabric(eng, nNodes, network.DefaultConfig())
	nodes := make([]*kernel.Node, nNodes)
	opts := kernel.VanillaOptions(ncpu)
	for i := range nodes {
		nodes[i] = kernel.MustNode(eng, i, opts)
		nodes[i].Start()
	}
	job := MustJob(eng, fabric, cfg, nil)
	for i := 0; i < size; i++ {
		job.AddRank(nodes[i/ncpu], i%ncpu)
	}
	return eng, job
}

// serialFabric builds a fabric that puts nodes 0..n-1 on eng.
func serialFabric(eng *sim.Engine, n int, cfg network.Config) *network.Fabric {
	engines := make([]*sim.Engine, n)
	for i := range engines {
		engines[i] = eng
	}
	return network.MustFabric(engines, cfg)
}

// runToCompletion drives the engine until the job finishes, then stops it so
// periodic ticks do not burn wall time.
func runToCompletion(t testing.TB, eng *sim.Engine, job *Job) {
	t.Helper()
	job.OnComplete(eng.Stop)
	eng.Run(sim.Hour)
	if !job.Completed() {
		t.Fatal("job did not complete within the simulated hour")
	}
}

func quietConfig() Config {
	cfg := DefaultConfig()
	cfg.ProgressEnabled = false
	return cfg
}

func runAllreduce(t testing.TB, size int, values []float64) []float64 {
	t.Helper()
	eng, job := testCluster(t, 1, size, 4, quietConfig())
	results := make([]float64, size)
	job.Launch(func(r *Rank) {
		r.Allreduce(values[r.ID()], func(sum float64) {
			results[r.ID()] = sum
			r.Done()
		})
	})
	runToCompletion(t, eng, job)
	return results
}

func TestAllreduceCorrectSumVariousSizes(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 31, 64, 100} {
		values := make([]float64, n)
		var want float64
		for i := range values {
			values[i] = float64(i + 1)
			want += values[i]
		}
		got := runAllreduce(t, n, values)
		for rank, sum := range got {
			if math.Abs(sum-want) > 1e-9 {
				t.Fatalf("n=%d rank %d sum = %v, want %v", n, rank, sum, want)
			}
		}
	}
}

func TestAllreduceRandomProperty(t *testing.T) {
	f := func(raw []float64, nRaw uint8) bool {
		n := int(nRaw%20) + 1
		values := make([]float64, n)
		var want float64
		for i := range values {
			v := 1.0
			if i < len(raw) && !math.IsNaN(raw[i]) && !math.IsInf(raw[i], 0) {
				v = math.Mod(raw[i], 1e6)
			}
			values[i] = v
			want += v
		}
		got := runAllreduce(t, n, values)
		for _, sum := range got {
			if math.Abs(sum-want) > 1e-6*math.Max(1, math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceMessageCount(t *testing.T) {
	// Power of two: each of N ranks sends log2(N) round messages.
	eng, job := testCluster(t, 1, 8, 4, quietConfig())
	job.Launch(func(r *Rank) {
		r.Allreduce(1, func(float64) { r.Done() })
	})
	runToCompletion(t, eng, job)
	if got := job.P2PSends(); got != 8*3 {
		t.Fatalf("p2p sends for N=8 allreduce = %d, want 24", got)
	}

	// Non power of two: adds 2 fold messages per folded pair.
	eng, job = testCluster(t, 1, 6, 3, quietConfig())
	job.Launch(func(r *Rank) {
		r.Allreduce(1, func(float64) { r.Done() })
	})
	runToCompletion(t, eng, job)
	// p2=4, rem=2: fold 2 + rounds 4*2 + final 2 = 12.
	if got := job.P2PSends(); got != 12 {
		t.Fatalf("p2p sends for N=6 allreduce = %d, want 12", got)
	}
}

func TestAllreduceLatencyNearModel(t *testing.T) {
	// On a quiet dedicated system the Allreduce should complete within ~2x
	// of the flat model: rounds * (send + latency + recv + reduce).
	const n = 64
	eng, job := testCluster(t, 1, n, 16, quietConfig())
	var start, end sim.Time
	done := 0
	job.Launch(func(r *Rank) {
		if r.ID() == 0 {
			start = r.Now()
		}
		r.Allreduce(1, func(float64) {
			done++
			if done == n {
				end = r.Now()
			}
			r.Done()
		})
	})
	runToCompletion(t, eng, job)
	cfg := quietConfig()
	net := network.DefaultConfig()
	perRound := cfg.SendOverhead + net.Latency + cfg.RecvOverhead + cfg.ReduceCost
	model := 6 * perRound // log2(64) rounds
	if got := end - start; got < model/2 || got > 4*model {
		t.Fatalf("64-rank allreduce took %v, model %v — out of band", got, model)
	}
}

func TestBarrierSemantics(t *testing.T) {
	const n = 13
	eng, job := testCluster(t, 3, n, 4, quietConfig())
	enters := make([]sim.Time, n)
	exits := make([]sim.Time, n)
	job.Launch(func(r *Rank) {
		// Stagger entry so the barrier actually has to wait.
		r.Compute(sim.Time(r.ID())*sim.Millisecond, func() {
			enters[r.ID()] = r.Now()
			r.Barrier(func() {
				exits[r.ID()] = r.Now()
				r.Done()
			})
		})
	})
	runToCompletion(t, eng, job)
	var maxEnter, minExit sim.Time = 0, sim.Forever
	for i := 0; i < n; i++ {
		if enters[i] > maxEnter {
			maxEnter = enters[i]
		}
		if exits[i] < minExit {
			minExit = exits[i]
		}
	}
	if minExit < maxEnter {
		t.Fatalf("a rank left the barrier at %v before the last entered at %v", minExit, maxEnter)
	}
}

func TestRingExchangeCorrectness(t *testing.T) {
	const n = 7
	eng, job := testCluster(t, 7, n, 4, quietConfig())
	type lr struct{ left, right float64 }
	results := make([]lr, n)
	job.Launch(func(r *Rank) {
		r.RingExchange(float64(r.ID()), 8, func(l, rv float64) {
			results[r.ID()] = lr{l, rv}
			r.Done()
		})
	})
	runToCompletion(t, eng, job)
	for i := 0; i < n; i++ {
		wantLeft := float64((i - 1 + n) % n)
		wantRight := float64((i + 1) % n)
		if results[i].left != wantLeft || results[i].right != wantRight {
			t.Fatalf("rank %d got (%v,%v), want (%v,%v)", i,
				results[i].left, results[i].right, wantLeft, wantRight)
		}
	}
}

func TestProgressThreadConsumesCPU(t *testing.T) {
	cfg := DefaultConfig() // 400ms interval, 350us burst
	eng, job := testCluster(t, 9, 4, 4, cfg)
	job.Launch(func(r *Rank) {
		var loop func(i int)
		loop = func(i int) {
			if i == 0 {
				r.Done()
				return
			}
			r.Compute(10*sim.Millisecond, func() { loop(i - 1) })
		}
		loop(300) // 3s of work
	})
	runToCompletion(t, eng, job)
	var progressTime sim.Time
	for _, r := range job.Ranks() {
		if r.ProgressThread() == nil {
			t.Fatal("progress thread missing")
		}
		progressTime += r.ProgressThread().Stats().CPUTime
	}
	// ~7 activations x 350us x 4 ranks ~ 9.8ms; accept a broad band.
	if progressTime < 2*sim.Millisecond {
		t.Fatalf("progress threads consumed %v, want >= 2ms", progressTime)
	}
}

func TestLargePollingIntervalSilencesProgressThreads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProgressInterval = 400 * sim.Second // the paper's workaround
	eng, job := testCluster(t, 9, 4, 4, cfg)
	job.Launch(func(r *Rank) {
		r.Compute(3*sim.Second, r.Done)
	})
	runToCompletion(t, eng, job)
	for _, r := range job.Ranks() {
		if got := r.ProgressThread().Stats().CPUTime; got != 0 {
			t.Fatalf("progress thread ran %v despite 400s interval", got)
		}
	}
}

type fakeRegistry struct {
	registered   int
	unregistered int
	detached     int
	attached     int
	threads      int
}

func (f *fakeRegistry) RegisterProcess(_ *kernel.Node, _ int, ths []*kernel.Thread) {
	f.registered++
	f.threads += len(ths)
}
func (f *fakeRegistry) UnregisterProcess(_ *kernel.Node, _ int) { f.unregistered++ }
func (f *fakeRegistry) DetachProcess(_ *kernel.Node, _ int)     { f.detached++ }
func (f *fakeRegistry) AttachProcess(_ *kernel.Node, _ int)     { f.attached++ }

func TestRegistryProtocol(t *testing.T) {
	eng := sim.NewEngine(1)
	fabric := serialFabric(eng, 1, network.DefaultConfig())
	node := kernel.MustNode(eng, 0, kernel.VanillaOptions(4))
	node.Start()
	reg := &fakeRegistry{}
	job := MustJob(eng, fabric, DefaultConfig(), reg)
	for i := 0; i < 4; i++ {
		job.AddRank(node, i)
	}
	job.Launch(func(r *Rank) {
		r.Detach(func() {
			r.Compute(sim.Millisecond, func() {
				r.Attach(r.Done)
			})
		})
	})
	runToCompletion(t, eng, job)
	if reg.registered != 4 || reg.unregistered != 4 {
		t.Fatalf("register/unregister = %d/%d, want 4/4", reg.registered, reg.unregistered)
	}
	if reg.detached != 4 || reg.attached != 4 {
		t.Fatalf("detach/attach = %d/%d, want 4/4", reg.detached, reg.attached)
	}
	// Each registration reports the task thread + its progress thread.
	if reg.threads != 8 {
		t.Fatalf("registered threads = %d, want 8", reg.threads)
	}
}

func TestJobLifecyclePanics(t *testing.T) {
	eng := sim.NewEngine(1)
	fabric := serialFabric(eng, 1, network.DefaultConfig())
	node := kernel.MustNode(eng, 0, kernel.VanillaOptions(2))
	node.Start()
	job := MustJob(eng, fabric, quietConfig(), nil)
	job.AddRank(node, 0)
	job.Launch(func(r *Rank) { r.Done() })
	func() {
		defer func() {
			if recover() == nil {
				t.Error("AddRank after Launch did not panic")
			}
		}()
		job.AddRank(node, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Launch did not panic")
			}
		}()
		job.Launch(func(r *Rank) { r.Done() })
	}()
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SendOverhead: -1},
		{ElemBytes: -1},
		{ProgressEnabled: true},
		{ProgressEnabled: true, ProgressInterval: sim.Second, ProgressBurst: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestDeterministicJob(t *testing.T) {
	run := func() sim.Time {
		eng, job := testCluster(t, 42, 12, 4, DefaultConfig())
		var finished sim.Time
		job.OnComplete(func() { finished = eng.Now() })
		job.Launch(func(r *Rank) {
			var loop func(i int)
			loop = func(i int) {
				if i == 0 {
					r.Done()
					return
				}
				r.Compute(200*sim.Microsecond, func() {
					r.Allreduce(1, func(float64) { loop(i - 1) })
				})
			}
			loop(50)
		})
		runToCompletion(t, eng, job)
		return finished
	}
	if a, b := run(), run(); a != b || a == 0 {
		t.Fatalf("job not deterministic: %v vs %v", a, b)
	}
}

func TestEarlyMessageQueuing(t *testing.T) {
	// Rank 1 sends immediately; rank 0 receives late. The message must be
	// queued and matched without loss.
	eng, job := testCluster(t, 1, 2, 2, quietConfig())
	var got float64
	job.Launch(func(r *Rank) {
		if r.ID() == 1 {
			r.Send(0, 7, 42.5, 8, r.Done)
			return
		}
		r.Compute(50*sim.Millisecond, func() {
			r.Recv(1, 7, func(v float64) {
				got = v
				r.Done()
			})
		})
	})
	runToCompletion(t, eng, job)
	if got != 42.5 {
		t.Fatalf("late recv got %v, want 42.5", got)
	}
}

func TestSendToInvalidRankPanics(t *testing.T) {
	eng, job := testCluster(t, 1, 1, 1, quietConfig())
	job.Launch(func(r *Rank) {
		defer func() {
			if recover() == nil {
				t.Error("Send to invalid rank did not panic")
			}
			r.Done()
		}()
		r.Send(5, 0, 1, 8, func() {})
	})
	runToCompletion(t, eng, job)
}
