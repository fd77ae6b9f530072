package experiment

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"coschedsim/internal/cluster"
	"coschedsim/internal/fault"
	"coschedsim/internal/sim"
	"coschedsim/internal/workload"
)

// The differential gate. Each row is one configuration, each column one
// engine core and shard-worker count, and a cell is the row's output
// rendered on the column. Every cell of a row must hold the same bytes.
// This table is the one place that says which configurations the cores
// must agree on; TestShardedDifferential in internal/sim checks the
// engines themselves on synthetic schedules.

// diffCol is a column: one engine configuration. core is the queue of the
// serial columns, and workers the shard-worker count, 0 on the serial
// cores. Every sharded column shards through its worker count alone, so
// sweeps also check the plumbing of Options.ShardWorkers.
type diffCol struct {
	name    string
	core    sim.Core
	workers int
}

var (
	heapCol  = diffCol{"heap", sim.CoreHeap, 0}
	wheelCol = diffCol{"wheel", sim.CoreWheel, 0} // the reference
	sharded1 = diffCol{"sharded/1", sim.CoreWheel, 1}
	sharded2 = diffCol{"sharded/2", sim.CoreWheel, 2}
	sharded4 = diffCol{"sharded/4", sim.CoreWheel, 4}
	others   = []diffCol{heapCol, sharded1, sharded2, sharded4} // compared with the wheel
)

// shape checks that c was built on the column's engine: serial columns
// never shard, and sharded/w shards every multi-node run on w workers.
func (col diffCol) shape(c *cluster.Cluster) error {
	if col.workers == 0 || c.Config.Nodes == 1 {
		if c.Group != nil {
			return fmt.Errorf("%d-node run sharded", c.Config.Nodes)
		}
		return nil
	}
	if c.Group == nil || c.Group.Workers() != col.workers {
		return fmt.Errorf("%d-node run not sharded on %d workers", c.Config.Nodes, col.workers)
	}
	return nil
}

// windowed checks a sharded run's engine counters: it ran windows and
// sent across shards.
func windowed(windows, crossSends uint64) error {
	if windows == 0 || crossSends == 0 {
		return fmt.Errorf("sharded run counted %d windows and %d cross-shard sends", windows, crossSends)
	}
	return nil
}

// diffRow is a row: one configuration, either an experiment sweep at
// detOptions scale or one cluster run whose result run returns.
type diffRow struct {
	name  string
	sweep string // experiment name; empty for a cluster run
	cfg   func() cluster.Config
	run   func(c *cluster.Cluster) (any, error)
	// check adds assertions on a cluster run's cluster and result, after
	// the column's own checks passed.
	check func(c *cluster.Cluster, res any, col diffCol) error
	short bool // in the -short subset
}

// allreduce returns a run of back-to-back Allreduce calls; a fault-free
// run must complete.
func allreduce(calls int) func(*cluster.Cluster) (any, error) {
	return func(c *cluster.Cluster) (any, error) {
		res, err := workload.RunAggregate(c, workload.AggregateSpec{Loops: 1, CallsPerLoop: calls}, 10*sim.Minute)
		if err == nil && !res.Completed && c.Config.Faults == nil {
			err = errors.New("run did not complete")
		}
		return res, err
	}
}

func jittered(cfg cluster.Config, jitter sim.Time) cluster.Config {
	cfg.Network.Jitter = jitter
	return cfg
}

var rows = []diffRow{
	{name: "fig3", sweep: "fig3", short: true},
	{name: "fig5", sweep: "fig5"},
	{name: "abl-ipi", sweep: "abl-ipi"},
	{name: "t3", sweep: "t3"},
	{name: "t5", sweep: "t5"},
	{name: "abl-jitter", sweep: "abl-jitter"},
	{name: "abl-fault", sweep: "abl-fault", short: true},
	{name: "fig4", sweep: "fig4", short: true},
	{name: "abl-hints", sweep: "abl-hints", short: true},
	{name: "t2", sweep: "t2"},
	{name: "vanilla-4x16", short: true, run: allreduce(60),
		cfg: func() cluster.Config { return cluster.Vanilla(4, 16, 7) }},
	{name: "prototype-4x16", short: true, run: allreduce(60),
		cfg: func() cluster.Config { return cluster.Prototype(4, 16, 7) }},
	{name: "jitter-4x16", short: true, run: allreduce(60),
		cfg: func() cluster.Config { return jittered(cluster.Vanilla(4, 16, 7), 3*sim.Microsecond) }},
	{name: "nodegroup-16x8", short: true, run: allreduce(40),
		cfg: func() cluster.Config {
			cfg := jittered(cluster.Vanilla(16, 8, 11), 2*sim.Microsecond)
			cfg.CPUsPerNode, cfg.Kernel.NumCPUs = 8, 8
			return cfg
		},
		// 1, 2 and 4 workers put 4, 2 and 1 nodes on each shard.
		check: func(c *cluster.Cluster, _ any, col diffCol) error {
			if col.workers == 0 {
				return nil
			}
			group := 4 / col.workers
			if c.Group.Shards() != 16/group || c.Nodes[15].Engine() != c.Group.Shard(15/group) {
				return fmt.Errorf("%d shards, want %d with node 15 on shard %d",
					c.Group.Shards(), 16/group, 15/group)
			}
			return nil
		}},
	// Drops and retries, a partial crash with re-planning, daemon stalls
	// and a partition in one run, which the crashes end partway through.
	{name: "faulty-4x8", short: true, run: allreduce(400),
		cfg: func() cluster.Config {
			cfg := cluster.Prototype(4, 8, 11)
			cfg.Faults = &fault.Config{
				Policy: fault.PolicyReplan, DetectLatency: 50 * sim.Microsecond,
				CrashProb: 0.4, CrashWindow: 40 * sim.Millisecond, ReplanDrain: 500 * sim.Microsecond,
				DropRate:       0.01,
				PartitionStart: 200 * sim.Microsecond, PartitionDuration: 100 * sim.Microsecond,
				PartitionFrac: 0.5,
				StallProb:     0.5, StallWindow: sim.Millisecond,
				RestartDelay: 100 * sim.Microsecond, CheckPeriod: 50 * sim.Microsecond,
			}
			cfg.MPI.SendTimeout = 100 * sim.Microsecond
			cfg.MPI.SendRetries = 8
			return cfg
		},
		check: func(c *cluster.Cluster, res any, _ diffCol) error {
			calls := len(res.(workload.AggregateResult).TimesUS)
			if rep := c.FaultReport(); rep.Dropped == 0 || rep.Stalls == 0 || calls < 50 || c.Job.TerminatedAt() == 0 {
				return fmt.Errorf("scenario too quiet to be a useful pin: %d calls, ended at %v, %+v",
					calls, c.Job.TerminatedAt(), rep)
			}
			return nil
		}},
	{name: "ale3d-4x8",
		cfg: func() cluster.Config { return cluster.ALE3DVanilla(4, 8, 7) },
		run: func(c *cluster.Cluster) (any, error) {
			spec := workload.DefaultALE3DSpec()
			spec.Timesteps, spec.CheckpointEvery, spec.ComputeMean = 12, 10, 20*sim.Millisecond
			spec.InitialReadBytes, spec.ChunkFormatCPU = 512<<10, 5*sim.Millisecond
			res, err := workload.RunALE3D(c, spec, 10*sim.Minute)
			if err == nil && !res.Completed {
				err = errors.New("run did not complete")
			}
			return res, err
		}},
	{name: "bsp-4x8",
		cfg: func() cluster.Config { return jittered(cluster.Vanilla(4, 8, 7), 2*sim.Microsecond) },
		run: func(c *cluster.Cluster) (any, error) {
			res, err := workload.RunBSP(c, workload.BSPSpec{Steps: 25, ComputeMean: 2 * sim.Millisecond,
				ComputeJitter: 500 * sim.Microsecond, AllreducesPerStep: 2}, 10*sim.Minute)
			if err == nil && !res.Completed {
				err = errors.New("run did not complete")
			}
			return res, err
		}},
	// Jittered runs whose per-call times depend on a cross-shard delivery
	// firing among local events due at the same instant in the order they
	// were scheduled.
	{name: "jitter12us-8x16", short: true, run: allreduce(128), cfg: jitter8x16(12*sim.Microsecond, 3)},
	{name: "jitter6us-8x16-s2", short: true, run: allreduce(128), cfg: jitter8x16(6*sim.Microsecond, 2)},
	{name: "jitter6us-8x16-s5", short: true, run: allreduce(128), cfg: jitter8x16(6*sim.Microsecond, 5)},
}

// jitter8x16 is Vanilla(8, 16, seed) with 2us fabric jitter at the given
// latency.
func jitter8x16(latency sim.Time, seed int64) func() cluster.Config {
	return func() cluster.Config {
		cfg := jittered(cluster.Vanilla(8, 16, seed), 2*sim.Microsecond)
		cfg.Network.Latency = latency
		return cfg
	}
}

// renderCell renders row r on column col: a sweep as its table's text plus
// CSV, a cluster run as its result, send count, fabric counters and fault
// report. It fails tb if any cluster the cell built did not run on col's
// engine.
func renderCell(tb testing.TB, r diffRow, col diffCol) []byte {
	tb.Helper()
	prevCore, prevBuild := sim.DefaultCore, buildCluster
	defer func() { sim.DefaultCore, buildCluster = prevCore, prevBuild }()
	sim.DefaultCore = col.core
	fail := func(err error) {
		if err != nil {
			tb.Errorf("%s on %s: %v", r.name, col.name, err)
		}
	}

	var out bytes.Buffer
	if r.sweep == "" {
		cfg := r.cfg()
		cfg.IntraRunWorkers = col.workers
		c, err := cluster.Build(cfg)
		if err != nil {
			tb.Fatalf("%s on %s: %v", r.name, col.name, err)
		}
		res, err := r.run(c)
		if err != nil {
			tb.Fatalf("%s on %s: %v", r.name, col.name, err)
		}
		// CrossShardSends is 0 on a serial run by design; the other fabric
		// counters must agree.
		fabric := c.Fabric.Stats()
		crossSends := fabric.CrossShardSends
		fabric.CrossShardSends = 0
		fmt.Fprintf(&out, "%#v\nsends=%d terminated=%d\n%#v\n%#v\n", res, c.Job.P2PSends(), c.Job.TerminatedAt(), fabric, c.FaultReport())
		err = col.shape(c)
		if err == nil && c.Group != nil {
			err = windowed(c.Group.Stats().Windows, crossSends)
		}
		if err == nil && r.check != nil {
			err = r.check(c, res, col)
		}
		fail(err)
		return out.Bytes()
	}

	// A sweep builds its clusters through the buildCluster hook, which
	// checks their shape, and reports the engine counters of each sharded
	// run on a Progress line, so no cluster outlives its run: holding a
	// sweep's clusters to its end made cells a fifth slower under -race.
	var mu sync.Mutex
	sharded, reported := 0, 0
	buildCluster = func(cfg cluster.Config) (*cluster.Cluster, error) {
		c, err := cluster.Build(cfg)
		if err == nil {
			fail(col.shape(c))
			if c.Group != nil {
				mu.Lock()
				sharded++
				mu.Unlock()
			}
		}
		return c, err
	}
	o := detOptions()
	o.Parallelism = 8
	if col == wheelCol {
		o.Parallelism = 1
	}
	o.ShardWorkers = col.workers
	o.Progress = func(line string) {
		if _, counters, ok := strings.Cut(line, " pdes "); ok {
			var windows, events, sends uint64
			fmt.Sscanf(counters, "windows=%d cross-events=%d cross-sends=%d", &windows, &events, &sends)
			fail(windowed(windows, sends))
			reported++
		}
	}
	exp, _ := Lookup(r.sweep)
	tab, err := exp.Run(o)
	if err != nil {
		tb.Fatalf("%s on %s: %v", r.name, col.name, err)
	}
	tab.Render(&out)
	tab.CSV(&out)
	if reported != sharded || col.workers > 0 && sharded == 0 {
		tb.Errorf("%s on %s: %d runs sharded, %d reported engine counters", r.name, col.name, sharded, reported)
	}
	return out.Bytes()
}

var rendered = map[string][]byte{}

// cell is renderCell, memoized for sweeps so that TestGoldenHashes reuses
// the renders TestDifferential made in the same process.
func cell(tb testing.TB, r diffRow, col diffCol) []byte {
	key := r.name + "@" + col.name
	if b, ok := rendered[key]; ok {
		return b
	}
	b := renderCell(tb, r, col)
	if r.sweep != "" {
		rendered[key] = b
	}
	return b
}

// requireAgree renders r on every column and fails tb where a cell differs
// from the wheel's.
func requireAgree(tb testing.TB, r diffRow) {
	tb.Helper()
	want := cell(tb, r, wheelCol)
	for _, col := range others {
		if got := cell(tb, r, col); !bytes.Equal(got, want) {
			tb.Errorf("%s: %s differs from wheel\n--- wheel ---\n%s--- %s ---\n%s", r.name, col.name, want, col.name, got)
		}
	}
}

// TestDifferential is the cross-core gate: every row renders the same
// bytes on the heap and wheel cores and on the sharded core at 1, 2 and 4
// workers.
func TestDifferential(t *testing.T) {
	for _, r := range rows {
		if testing.Short() && !r.short {
			continue
		}
		t.Run(r.name, func(t *testing.T) { requireAgree(t, r) })
	}
}

// requireRowsAgree runs requireAgree on the named rows of the gate.
func requireRowsAgree(t *testing.T, names ...string) {
	t.Helper()
	for _, name := range names {
		i := slices.IndexFunc(rows, func(r diffRow) bool { return r.name == name })
		if i < 0 {
			t.Fatalf("no differential row %s", name)
		}
		requireAgree(t, rows[i])
	}
}

// TestEngineSwapBitIdentical requires the sweeps with the most different
// event mixes on the heap and wheel cores (plain, co-scheduled with IPIs,
// noise-heavy) to render the same bytes on every column. After
// TestDifferential in the same process it compares that test's renders.
func TestEngineSwapBitIdentical(t *testing.T) {
	if testing.Short() {
		requireRowsAgree(t, "fig3")
		return
	}
	requireRowsAgree(t, "fig3", "fig5", "abl-ipi")
}

// TestFig3ParallelBitIdentical requires fig3 at Parallelism 1 (the wheel
// column) and 8 (every other column) to render the same bytes.
func TestFig3ParallelBitIdentical(t *testing.T) {
	requireRowsAgree(t, "fig3")
}

// FuzzDifferential decodes its input into a small Allreduce cluster and
// requires every column to render the wheel's bytes.
func FuzzDifferential(f *testing.F) {
	f.Add(false, uint8(2), uint8(6), uint8(0), uint8(2), uint8(12), int64(1))
	f.Add(true, uint8(1), uint8(4), uint8(2), uint8(1), uint8(20), int64(13))
	f.Add(false, uint8(0), uint8(0), uint8(3), uint8(0), uint8(28), int64(3))
	f.Fuzz(func(t *testing.T, prototype bool, nodes, tasks, jitterUS, latency, calls uint8, seed int64) {
		preset := cluster.Vanilla
		if prototype {
			preset = cluster.Prototype
		}
		jitter := sim.Time(jitterUS%4) * sim.Microsecond
		requireAgree(t, diffRow{
			name: "fuzz",
			cfg: func() cluster.Config {
				cfg := jittered(preset(2+int(nodes%3), 2+int(tasks%7), seed), jitter)
				cfg.Network.Latency = []sim.Time{6, 12, 24}[latency%3] * sim.Microsecond
				return cfg
			},
			run: allreduce(4 + int(calls%29)),
		})
	})
}

// Golden hashes of rendered table + CSV output at detOptions scale,
// regenerated as part of re-baseline №1 (counter-based RNG streams changed
// every sampled sequence). Any engine, RNG, or ordering change shows up as
// a hash diff here regardless of worker count; update deliberately and
// record the move in EXPERIMENTS.md.
var goldenRendered = map[string]string{
	"t3":         "32281778bc49c6019ada9d242ce332ac017e4eba78c9aeddd03c5dfb0be9334d",
	"t5":         "8eabd6ef1a71430b45e884fb04f91708d7a057a685f277b83de720aa54dc95d4",
	"abl-jitter": "d7215f720f5059f3b357d40cdd568cedfcd1ac2649a6c7eeb41ab35ef0629f3b",
	"abl-fault":  "afb8f437b606b176779b3fe3611ff9eea82e27679e0595e21ca0886e9f9e1dbd",
}

// TestGoldenHashes pins the exact rendered bytes of four sweeps on the
// serial wheel and at 2 and 4 shard workers. Unlike the differential gate,
// an embedded hash also catches drift that affects every engine core
// equally.
func TestGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep runs")
	}
	for name, want := range goldenRendered {
		for _, col := range []diffCol{wheelCol, sharded2, sharded4} {
			got := fmt.Sprintf("%x", sha256.Sum256(cell(t, diffRow{name: name, sweep: name}, col)))
			if got != want {
				t.Errorf("%s on %s: rendered sha256 = %s, want %s", name, col.name, got, want)
			}
		}
	}
}
