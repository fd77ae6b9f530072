package mpi

import (
	"math"
	"testing"

	"coschedsim/internal/sim"
)

func hwConfig() Config {
	cfg := quietConfig()
	cfg.HardwareCollectives = true
	cfg.HWCollectiveLatency = 25 * sim.Microsecond
	return cfg
}

func TestHWAllreduceCorrectness(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 33} {
		values := make([]float64, n)
		var want float64
		for i := range values {
			values[i] = float64(i * i)
			want += values[i]
		}
		eng, job := testCluster(t, 1, n, 8, hwConfig())
		results := make([]float64, n)
		job.Launch(func(r *Rank) {
			r.Allreduce(values[r.ID()], func(sum float64) {
				results[r.ID()] = sum
				r.Done()
			})
		})
		runToCompletion(t, eng, job)
		for rank, sum := range results {
			if math.Abs(sum-want) > 1e-9 {
				t.Fatalf("n=%d rank %d sum %v, want %v", n, rank, sum, want)
			}
		}
	}
}

func TestHWAllreduceChained(t *testing.T) {
	const n, iters = 12, 30
	eng, job := testCluster(t, 2, n, 4, hwConfig())
	ok := true
	job.Launch(func(r *Rank) {
		var loop func(i int)
		loop = func(i int) {
			if i == iters {
				r.Done()
				return
			}
			r.Allreduce(float64(i), func(sum float64) {
				if sum != float64(i*n) {
					ok = false
				}
				loop(i + 1)
			})
		}
		loop(0)
	})
	runToCompletion(t, eng, job)
	if !ok {
		t.Fatal("chained hardware allreduce produced wrong sums")
	}
}

// TestHWAllreduceUsesNoP2PMessages verifies the offload path bypasses the
// software tree entirely.
func TestHWAllreduceUsesNoP2PMessages(t *testing.T) {
	eng, job := testCluster(t, 3, 16, 8, hwConfig())
	job.Launch(func(r *Rank) {
		r.Allreduce(1, func(float64) { r.Done() })
	})
	runToCompletion(t, eng, job)
	if got := job.P2PSends(); got != 0 {
		t.Fatalf("hardware allreduce sent %d p2p messages, want 0", got)
	}
}

// TestHWAllreduceConstantDepth: latency must barely grow with rank count
// (no tree rounds), unlike the software path.
func TestHWAllreduceConstantDepth(t *testing.T) {
	measure := func(cfg Config, n int) sim.Time {
		eng, job := testCluster(t, 4, n, 16, cfg)
		var worst sim.Time
		job.Launch(func(r *Rank) {
			start := r.Now()
			r.Allreduce(1, func(float64) {
				if d := r.Now() - start; d > worst {
					worst = d
				}
				r.Done()
			})
		})
		runToCompletion(t, eng, job)
		return worst
	}
	hw16 := measure(hwConfig(), 16)
	hw256 := measure(hwConfig(), 256)
	sw256 := measure(quietConfig(), 256)
	if hw256 > 3*hw16 {
		t.Fatalf("hardware allreduce not ~constant: %v at 16 vs %v at 256", hw16, hw256)
	}
	if hw256 >= sw256 {
		t.Fatalf("hardware allreduce (%v) not faster than software tree (%v) at 256 ranks", hw256, sw256)
	}
}

func TestHWConfigValidation(t *testing.T) {
	cfg := quietConfig()
	cfg.HardwareCollectives = true // no latency set
	if err := cfg.Validate(); err == nil {
		t.Fatal("hardware collectives without latency accepted")
	}
	if err := hwConfig().Validate(); err != nil {
		t.Fatalf("valid hw config rejected: %v", err)
	}
}

// TestHWAllreduceMixesWithSoftwareCollectives: Barrier and RingExchange
// still use the software paths alongside offloaded Allreduces.
func TestHWAllreduceMixesWithSoftwareCollectives(t *testing.T) {
	const n = 9
	eng, job := testCluster(t, 5, n, 3, hwConfig())
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
					r.Done()
				})
			})
		})
	})
	runToCompletion(t, eng, job)
	if !ok {
		t.Fatal("mixed hw/sw collectives produced wrong values")
	}
}
