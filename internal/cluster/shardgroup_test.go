package cluster

import (
	"testing"

	"coschedsim/internal/sim"
)

// TestAutoShardGroupHighNodeCounts validates the shard group-size
// heuristic (nodes/(4*workers)) at the huge tier's node counts: the shard
// count it induces must give the worker pool real slack (at least two
// shards per worker, so window-level load imbalance can be absorbed by the
// claiming cursor) without exploding into per-node shards whose dispatch
// overhead dominates (at most eight shards per worker).
func TestAutoShardGroupHighNodeCounts(t *testing.T) {
	for _, nodes := range []int{256, 512, 1024} {
		for _, workers := range []int{2, 4, 8, 16} {
			g := autoShardGroup(nodes, workers)
			if g < 1 {
				t.Fatalf("autoShardGroup(%d, %d) = %d, want >= 1", nodes, workers, g)
			}
			shards := (nodes + g - 1) / g
			if shards < 2*workers {
				t.Errorf("autoShardGroup(%d, %d) = %d -> %d shards, under 2x the %d workers",
					nodes, workers, g, shards, workers)
			}
			if shards > 8*workers {
				t.Errorf("autoShardGroup(%d, %d) = %d -> %d shards, over 8x the %d workers",
					nodes, workers, g, shards, workers)
			}
		}
	}
}

// TestAutoShardGroupWindowStats drives a real sharded run at the auto group
// size and checks the heuristic's premise against measured window
// statistics: the run must retain enough concurrently-active shards per
// window to occupy the worker pool (mean active shards >= workers), or the
// grouping has merged away the parallelism it was supposed to preserve.
func TestAutoShardGroupWindowStats(t *testing.T) {
	const nodes, workers = 64, 2
	cfg := Vanilla(nodes, 16, 7)
	cfg.IntraRunWorkers = workers
	c := MustBuild(cfg)
	var times []sim.Time
	if _, ok := c.Launch(allreduceLoop(12, &times), 10*sim.Minute); !ok {
		t.Fatal("allreduce loop did not complete")
	}
	if c.Group == nil {
		t.Fatal("expected the sharded core for a 64-node run with IntraRunWorkers=2")
	}
	wantShards := (nodes + autoShardGroup(nodes, workers) - 1) / autoShardGroup(nodes, workers)
	if got := c.Group.Shards(); got != wantShards {
		t.Fatalf("built %d shards, heuristic says %d", got, wantShards)
	}
	gs := c.Group.Stats()
	if gs.Windows == 0 {
		t.Fatal("run executed no windows")
	}
	meanActive := float64(gs.ActiveShardWindows) / float64(gs.Windows)
	if meanActive < float64(workers) {
		t.Errorf("mean active shards per window %.2f < %d workers: auto group size %d starves the pool",
			meanActive, workers, autoShardGroup(nodes, workers))
	}
}
