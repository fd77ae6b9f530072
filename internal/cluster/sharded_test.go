package cluster

import (
	"testing"

	"coschedsim/internal/mpi"
	"coschedsim/internal/sim"
)

// allreduceLoop returns a program in which every rank runs calls
// Allreduce calls back to back; rank 0 appends each call's duration to
// *times.
func allreduceLoop(calls int, times *[]sim.Time) func(*mpi.Rank) {
	var t0 sim.Time
	return func(r *mpi.Rank) {
		var loop func(i int)
		loop = func(i int) {
			if i == calls {
				r.Done()
				return
			}
			if r.ID() == 0 {
				t0 = r.Now()
			}
			r.Allreduce(float64(r.ID()), func(float64) {
				if r.ID() == 0 {
					*times = append(*times, r.Now()-t0)
				}
				loop(i + 1)
			})
		}
		loop(0)
	}
}

// TestShardedGating verifies configurations that cannot shard safely fall
// back to the serial engine instead of diverging or crashing — and that
// jitter, which used to gate sharding off, no longer does.
func TestShardedGating(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		sharded bool
	}{
		// Jitter is counter-keyed per message since re-baseline №1 and is
		// fully shard-safe.
		{"jitter", func(c *Config) { c.Network.Jitter = sim.Microsecond }, true},
		{"hardware-collectives", func(c *Config) {
			c.MPI.HardwareCollectives = true
			c.MPI.HWCollectiveLatency = 20 * sim.Microsecond
		}, false},
		{"one-node", func(c *Config) { c.Nodes = 1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Vanilla(4, 16, 7)
			cfg.IntraRunWorkers = 2
			tc.mutate(&cfg)
			c := MustBuild(cfg)
			if got := c.Group != nil; got != tc.sharded {
				t.Fatalf("sharded=%v, want %v", got, tc.sharded)
			}
			done, ok := c.Launch(func(r *mpi.Rank) {
				r.Allreduce(1, func(float64) { r.Done() })
			}, sim.Minute)
			if !ok || done <= 0 {
				t.Fatalf("run failed: done=%v ok=%v", done, ok)
			}
		})
	}
}
