package experiment

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"coschedsim/internal/cluster"
	"coschedsim/internal/sim"
)

// detOptions is a Quick-shaped config (multiple nodes, multiple seeds)
// small enough for unit tests: enough independent runs that parallel
// scheduling would scramble any order-dependent aggregation.
func detOptions() Options {
	return Options{MaxNodes: 4, Calls: 96, Seeds: 2,
		ComputeGrain: 200 * sim.Microsecond, BaseSeed: 1}
}

// TestMeasureScalingPropagatesError checks that a failing run surfaces its
// error through the pool instead of hanging or being swallowed.
func TestMeasureScalingPropagatesError(t *testing.T) {
	o := detOptions()
	o.Parallelism = 4
	_, err := measureScaling(o, "errtest", func(nodes int, seed int64) cluster.Config {
		cfg := cluster.Vanilla(nodes, 16, seed)
		if nodes > 1 {
			cfg.Nodes = -1 // rejected by Config.Validate inside the worker
		}
		return cfg
	})
	if err == nil {
		t.Fatal("invalid config did not propagate an error")
	}
}

// TestProgressSerializedUnderParallelism checks that concurrent workers
// never interleave Progress callbacks (the callback is mutex-serialized)
// and that the set of reported lines matches serial execution.
func TestProgressSerializedUnderParallelism(t *testing.T) {
	collect := func(parallelism int) []string {
		var mu sync.Mutex
		inCallback := false
		var lines []string
		o := detOptions()
		o.Parallelism = parallelism
		o.Progress = func(line string) {
			mu.Lock()
			if inCallback {
				mu.Unlock()
				t.Error("Progress invoked concurrently")
				return
			}
			inCallback = true
			mu.Unlock()
			lines = append(lines, line)
			mu.Lock()
			inCallback = false
			mu.Unlock()
		}
		if _, err := Fig3VanillaScaling(o); err != nil {
			t.Fatal(err)
		}
		return lines
	}
	serial := collect(1)
	par := collect(8)
	sort.Strings(serial)
	sort.Strings(par)
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("progress line sets differ:\nserial: %v\nparallel: %v", serial, par)
	}
}

// TestCoschedRunsDeterministic repeats a co-scheduled (prototype)
// experiment within one process and requires identical results. This
// regresses a bug where the co-scheduler applied window priorities in Go
// map-iteration order, leaking randomized ordering into dispatch decisions
// — which broke same-seed reproducibility even in serial runs.
func TestCoschedRunsDeterministic(t *testing.T) {
	run := func() []float64 {
		o := detOptions()
		o.Parallelism = 4
		tab, err := Fig5PrototypeScaling(o)
		if err != nil {
			t.Fatal(err)
		}
		return append(tab.Col("mean"), tab.Col("stddev")...)
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("co-scheduled experiment not reproducible: %v vs %v", a, b)
	}
}

func TestValidateRejectsNegativeParallelism(t *testing.T) {
	o := detOptions()
	o.Parallelism = -1
	if _, err := Fig3VanillaScaling(o); err == nil {
		t.Fatal("negative Parallelism accepted")
	}
}
