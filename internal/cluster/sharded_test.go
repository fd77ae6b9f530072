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

// allreduceTrace runs a fixed Allreduce loop on cfg and returns rank 0's
// per-call times, the completion time, and the job's total point-to-point
// send count — a fingerprint sensitive to any ordering or RNG divergence.
func allreduceTrace(t *testing.T, cfg Config, calls int) ([]sim.Time, sim.Time, uint64, *Cluster) {
	t.Helper()
	c := MustBuild(cfg)
	var times []sim.Time
	done, ok := c.Launch(allreduceLoop(calls, &times), 10*sim.Minute)
	if !ok {
		t.Fatal("allreduce loop did not complete")
	}
	return times, done, c.Job.P2PSends(), c
}

// TestShardedClusterBitIdentical is the cluster-level determinism pin: the
// same configuration run serially and on the sharded engine at several
// worker counts must produce identical per-call times, completion time,
// and send counts.
func TestShardedClusterBitIdentical(t *testing.T) {
	const calls = 60
	for _, preset := range []struct {
		name string
		cfg  func(int64) Config
	}{
		{"vanilla", func(s int64) Config { return Vanilla(4, 16, s) }},
		{"prototype", func(s int64) Config { return Prototype(4, 16, s) }},
		// Jitter was unshardable before counter-based per-message draws;
		// this preset pins that jittered runs now match the serial engine.
		{"jitter", func(s int64) Config {
			cfg := Vanilla(4, 16, s)
			cfg.Network.Jitter = 3 * sim.Microsecond
			return cfg
		}},
	} {
		t.Run(preset.name, func(t *testing.T) {
			refTimes, refDone, refSends, refC := allreduceTrace(t, preset.cfg(7), calls)
			if refC.Group != nil {
				t.Fatal("serial build unexpectedly sharded")
			}
			for _, workers := range []int{1, 2, 3} {
				cfg := preset.cfg(7)
				cfg.IntraRunWorkers = workers
				times, done, sends, c := allreduceTrace(t, cfg, calls)
				if workers > 1 && c.Group == nil {
					t.Fatalf("workers=%d: sharded build has no group", workers)
				}
				if done != refDone || sends != refSends {
					t.Fatalf("workers=%d: done=%v sends=%d, want %v/%d", workers, done, sends, refDone, refSends)
				}
				if len(times) != len(refTimes) {
					t.Fatalf("workers=%d: %d calls recorded, want %d", workers, len(times), len(refTimes))
				}
				for i := range times {
					if times[i] != refTimes[i] {
						t.Fatalf("workers=%d: call %d took %v, want %v", workers, i, times[i], refTimes[i])
					}
				}
				if workers > 1 {
					if c.Fabric.Stats().CrossShardSends == 0 {
						t.Errorf("workers=%d: no cross-shard sends counted", workers)
					}
					if c.Group.Stats().Windows == 0 {
						t.Errorf("workers=%d: no windows recorded", workers)
					}
				}
			}
		})
	}
}

// TestShardedWorkerCountIndependent pins what the sharded core guarantees on
// a configuration where it does not match the serial engine: with jitter on
// and the fabric latency cut to 12us, seed 3's per-call times differ from
// the serial engine's, but 1, 2 and 4 workers must still agree exactly.
func TestShardedWorkerCountIndependent(t *testing.T) {
	const calls = 128
	prev := sim.DefaultCore
	sim.DefaultCore = sim.CoreSharded
	defer func() { sim.DefaultCore = prev }()
	var refTimes []sim.Time
	var refDone sim.Time
	var refSends uint64
	for _, workers := range []int{1, 2, 4} {
		cfg := Vanilla(8, 16, 3)
		cfg.Network.Jitter = 2 * sim.Microsecond
		cfg.Network.Latency = 12 * sim.Microsecond
		cfg.IntraRunWorkers = workers
		times, done, sends, c := allreduceTrace(t, cfg, calls)
		if c.Group == nil {
			t.Fatalf("workers=%d: build not sharded", workers)
		}
		if workers == 1 {
			refTimes, refDone, refSends = times, done, sends
			continue
		}
		if done != refDone || sends != refSends {
			t.Fatalf("workers=%d: done=%v sends=%d, want %v/%d", workers, done, sends, refDone, refSends)
		}
		if len(times) != len(refTimes) {
			t.Fatalf("workers=%d: %d calls recorded, want %d", workers, len(times), len(refTimes))
		}
		for i := range times {
			if times[i] != refTimes[i] {
				t.Fatalf("workers=%d: call %d took %v, want %v", workers, i, times[i], refTimes[i])
			}
		}
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

// TestShardNodeGroupBitIdentical pins node-group shards (several nodes per
// engine shard): on a 16-node cluster, 1, 2 and 4 workers give group sizes
// 4, 2 and 1, and each must reproduce the serial fingerprint exactly.
func TestShardNodeGroupBitIdentical(t *testing.T) {
	const calls = 40
	base := func(s int64) Config {
		cfg := Vanilla(16, 8, s)
		cfg.CPUsPerNode = 8
		cfg.Kernel.NumCPUs = 8
		cfg.TasksPerNode = 8
		cfg.Network.Jitter = 2 * sim.Microsecond // exercise jitter under grouping too
		return cfg
	}
	refTimes, refDone, refSends, refC := allreduceTrace(t, base(11), calls)
	if refC.Group != nil {
		t.Fatal("serial build unexpectedly sharded")
	}
	prev := sim.DefaultCore
	sim.DefaultCore = sim.CoreSharded
	defer func() { sim.DefaultCore = prev }()
	for _, tc := range []struct{ workers, group int }{{1, 4}, {2, 2}, {4, 1}} {
		cfg := base(11)
		cfg.IntraRunWorkers = tc.workers
		times, done, sends, c := allreduceTrace(t, cfg, calls)
		if c.Group == nil {
			t.Fatalf("workers=%d: build not sharded", tc.workers)
		}
		if want := 16 / tc.group; c.Group.Shards() != want {
			t.Fatalf("workers=%d: %d shards, want %d", tc.workers, c.Group.Shards(), want)
		}
		if c.ShardOf(15) != 15/tc.group {
			t.Fatalf("workers=%d: node 15 on shard %d, want %d", tc.workers, c.ShardOf(15), 15/tc.group)
		}
		if done != refDone || sends != refSends {
			t.Fatalf("workers=%d: done=%v sends=%d, want %v/%d", tc.workers, done, sends, refDone, refSends)
		}
		for i := range times {
			if times[i] != refTimes[i] {
				t.Fatalf("workers=%d: call %d took %v, want %v", tc.workers, i, times[i], refTimes[i])
			}
		}
	}
}
