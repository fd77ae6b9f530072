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

// TestShardedGating pins the rule that one worker count decides sharding:
// IntraRunWorkers 0 runs serial, n >= 1 runs sharded on n workers, and a
// negative count is rejected. Configurations that cannot shard safely fall
// back to the serial engine instead of diverging or crashing, and jitter,
// which used to gate sharding off, no longer does.
func TestShardedGating(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Config)
		workers int // 0: the run stays serial
	}{
		{"serial", func(c *Config) { c.IntraRunWorkers = 0 }, 0},
		{"one-worker", func(c *Config) { c.IntraRunWorkers = 1 }, 1},
		// Jitter is counter-keyed per message since re-baseline №1 and is
		// fully shard-safe.
		{"jitter", func(c *Config) { c.Network.Jitter = sim.Microsecond }, 2},
		{"hardware-collectives", func(c *Config) {
			c.MPI.HardwareCollectives = true
			c.MPI.HWCollectiveLatency = 20 * sim.Microsecond
		}, 0},
		{"one-node", func(c *Config) { c.Nodes = 1 }, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Vanilla(4, 16, 7)
			cfg.IntraRunWorkers = 2
			tc.mutate(&cfg)
			c := MustBuild(cfg)
			switch {
			case tc.workers == 0 && c.Group != nil:
				t.Fatalf("sharded on %d workers, want serial", c.Group.Workers())
			case tc.workers > 0 && (c.Group == nil || c.Group.Workers() != tc.workers):
				t.Fatalf("group %v, want sharded on %d workers", c.Group, tc.workers)
			}
			for i, n := range c.Nodes {
				want := c.Eng
				if c.Group != nil {
					want = c.Group.Shard(i / autoShardGroup(cfg.Nodes, cfg.IntraRunWorkers))
				}
				if n.Engine() != want {
					t.Fatalf("node %d is not on its engine", i)
				}
			}
			done, ok := c.Launch(func(r *mpi.Rank) {
				r.Allreduce(1, func(float64) { r.Done() })
			}, sim.Minute)
			if !ok || done <= 0 {
				t.Fatalf("run failed: done=%v ok=%v", done, ok)
			}
		})
	}
	cfg := Vanilla(4, 16, 7)
	cfg.IntraRunWorkers = -1
	if err := cfg.Validate(); err == nil {
		t.Error("Validate accepted IntraRunWorkers -1")
	}
}
