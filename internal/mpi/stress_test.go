package mpi

import (
	"math"
	"testing"

	"coschedsim/internal/kernel"
	"coschedsim/internal/network"
	"coschedsim/internal/sim"
)

// jitterCluster builds a cluster whose fabric reorders messages (jitter
// larger than latency), to stress tag matching and the collectives'
// tolerance of out-of-order delivery.
func jitterCluster(t *testing.T, seed int64, size, ncpu int, cfg Config) (*sim.Engine, *Job) {
	t.Helper()
	eng := sim.NewEngine(seed)
	net := network.Config{
		Latency:        5 * sim.Microsecond,
		LocalLatency:   sim.Microsecond,
		BytesPerSecond: 1e8,
		Jitter:         50 * sim.Microsecond, // 10x the base latency
	}
	nNodes := (size + ncpu - 1) / ncpu
	fabric := serialFabric(eng, nNodes, net)
	opts := kernel.VanillaOptions(ncpu)
	nodes := make([]*kernel.Node, nNodes)
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

// TestAllreduceCorrectUnderReordering runs chained collectives over a
// heavily jittered fabric; sums must stay exact for every call.
func TestAllreduceCorrectUnderReordering(t *testing.T) {
	for _, n := range []int{3, 8, 13, 24} {
		const iters = 20
		eng, job := jitterCluster(t, int64(n), n, 4, quietConfig())
		bad := false
		job.Launch(func(r *Rank) {
			var loop func(i int)
			loop = func(i int) {
				if i == iters {
					r.Done()
					return
				}
				want := float64(n) * float64(i)
				r.Allreduce(float64(i), func(sum float64) {
					if math.Abs(sum-want) > 1e-9 {
						bad = true
					}
					loop(i + 1)
				})
			}
			loop(0)
		})
		runToCompletion(t, eng, job)
		if bad {
			t.Fatalf("n=%d: wrong sum under message reordering", n)
		}
	}
}

// TestMixedCollectivesPipeline chains different collective types
// back-to-back — tag-space separation must keep them from cross-matching.
func TestMixedCollectivesPipeline(t *testing.T) {
	const n = 9
	eng, job := jitterCluster(t, 5, n, 3, quietConfig())
	ok := true
	job.Launch(func(r *Rank) {
		r.Allreduce(1, func(s float64) {
			if s != n {
				ok = false
			}
			r.Barrier(func() {
				r.RingExchange(float64(r.ID()), 8, func(l, rt float64) {
					if l != float64((r.ID()+n-1)%n) || rt != float64((r.ID()+1)%n) {
						ok = false
					}
					r.Allreduce(2, func(s2 float64) {
						if s2 != 2*n {
							ok = false
						}
						r.Done()
					})
				})
			})
		})
	})
	runToCompletion(t, eng, job)
	if !ok {
		t.Fatal("mixed collective pipeline produced wrong values")
	}
}

// TestPollModeHoldsCPUWhileWaiting pins the defining behaviour of IBM MPI's
// poll mode: a rank waiting for a late partner burns its CPU the whole time.
func TestPollModeHoldsCPUWhileWaiting(t *testing.T) {
	eng, job := testCluster(t, 3, 2, 2, quietConfig())
	job.Launch(func(r *Rank) {
		if r.ID() == 1 {
			// Late partner: compute 50ms before participating.
			r.Compute(50*sim.Millisecond, func() {
				r.Allreduce(1, func(float64) { r.Done() })
			})
			return
		}
		r.Allreduce(1, func(float64) { r.Done() })
	})
	runToCompletion(t, eng, job)
	if cpu := job.Ranks()[0].Thread().Stats().CPUTime; cpu < 45*sim.Millisecond {
		t.Fatalf("poll-mode rank burned only %v while waiting, want ~50ms", cpu)
	}
}

// TestManyOutstandingSmallJobs runs several independent jobs on one fabric
// concurrently (separate rank spaces must not interfere).
func TestManyOutstandingSmallJobs(t *testing.T) {
	eng := sim.NewEngine(8)
	fabric := serialFabric(eng, 1, network.DefaultConfig())
	node := kernel.MustNode(eng, 0, kernel.VanillaOptions(16))
	node.Start()
	done := 0
	for j := 0; j < 4; j++ {
		job := MustJob(eng, fabric, quietConfig(), nil)
		for i := 0; i < 4; i++ {
			job.AddRank(node, j*4+i)
		}
		job.OnComplete(func() { done++ })
		want := float64(4 * (j + 1))
		job.Launch(func(r *Rank) {
			r.Allreduce(float64(j+1), func(s float64) {
				if s != want {
					t.Errorf("job %d sum %v, want %v", j, s, want)
				}
				r.Done()
			})
		})
	}
	eng.Run(sim.Minute)
	if done != 4 {
		t.Fatalf("only %d/4 jobs completed", done)
	}
}
