package experiment

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"sync"
	"testing"

	"coschedsim/internal/sim"
)

// renderedWithCore runs an experiment with the given engine core and returns
// its full rendered text plus CSV bytes.
func renderedWithCore(t *testing.T, name string, core sim.Core) []byte {
	t.Helper()
	prev := sim.DefaultCore
	sim.DefaultCore = core
	defer func() { sim.DefaultCore = prev }()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	o := detOptions()
	o.Parallelism = 2
	tab, err := r.Run(o)
	if err != nil {
		t.Fatalf("%s with core %v: %v", name, core, err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	tab.CSV(&buf)
	return buf.Bytes()
}

// TestEngineSwapBitIdentical is the engine-replacement determinism
// regression test: full experiment sweeps must produce byte-identical
// rendered tables and CSV under the timer-wheel core and the reference heap
// core. Any divergence in event ordering — including seq tie-breaks among
// same-time events — shows up here as a table diff.
func TestEngineSwapBitIdentical(t *testing.T) {
	names := []string{"fig3"}
	if !testing.Short() {
		// A co-scheduled sweep (window machinery, IPIs) and a noise-heavy
		// ablation give the engines very different event mixes.
		names = append(names, "fig5", "abl-ipi")
	}
	for _, name := range names {
		wheel := renderedWithCore(t, name, sim.CoreWheel)
		heap := renderedWithCore(t, name, sim.CoreHeap)
		if !bytes.Equal(wheel, heap) {
			t.Errorf("%s: output differs between engine cores\n--- wheel ---\n%s\n--- heap ---\n%s",
				name, wheel, heap)
		}
		sharded := renderedWithCore(t, name, sim.CoreSharded)
		if !bytes.Equal(wheel, sharded) {
			t.Errorf("%s: output differs between wheel and sharded cores\n--- wheel ---\n%s\n--- sharded ---\n%s",
				name, wheel, sharded)
		}
	}
}

// renderedWithShardWorkers runs an experiment with the given intra-run
// worker count (0 = serial) under the default core and returns rendered
// text plus CSV bytes.
func renderedWithShardWorkers(t *testing.T, name string, workers int) []byte {
	t.Helper()
	r, ok := Lookup(name)
	if !ok {
		t.Fatalf("unknown experiment %s", name)
	}
	o := detOptions()
	o.Parallelism = 3
	o.ShardWorkers = workers
	tab, err := r.Run(o)
	if err != nil {
		t.Fatalf("%s with %d shard workers: %v", name, workers, err)
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	tab.CSV(&buf)
	return buf.Bytes()
}

// TestShardWorkersBitIdentical pins the tentpole guarantee end to end:
// sweeps run with intra-run parallelism (the sharded conservative-window
// core, real worker goroutines) produce byte-identical tables to serial
// runs. Since re-baseline №1 the list includes t3 (ALE3D + GPFS), t5 (BSP)
// and abl-jitter (jittered fabric) — the three sweeps that refused to shard
// before counter-based streams. Under -race this also exercises the worker
// pool for data races.
func TestShardWorkersBitIdentical(t *testing.T) {
	names := []string{"fig3"}
	if !testing.Short() {
		names = append(names, "fig5", "t3", "t5", "abl-jitter")
	}
	for _, name := range names {
		serial := renderedWithShardWorkers(t, name, 0)
		for _, w := range []int{1, 2, 4} {
			got := renderedWithShardWorkers(t, name, w)
			if !bytes.Equal(serial, got) {
				t.Errorf("%s: output differs between serial and %d shard workers\n--- serial ---\n%s\n--- sharded ---\n%s",
					name, w, serial, got)
			}
		}
	}
}

// TestShardWorkersReachFig4AndHints checks that fig4 and abl-hints, the
// multi-node experiments that once built their clusters outside the pool,
// run on the sharded core under ShardWorkers 2 and 4 (their runs report
// engine window statistics) and render byte-identically to serial.
func TestShardWorkersReachFig4AndHints(t *testing.T) {
	for _, tc := range []struct {
		name string
		runs int
	}{{"fig4", 1}, {"abl-hints", 2}} {
		name := tc.name
		serial := renderedWithShardWorkers(t, name, 0)
		for _, w := range []int{2, 4} {
			r, _ := Lookup(name)
			o := detOptions()
			o.Parallelism = 4
			o.ShardWorkers = w
			var mu sync.Mutex
			windows := 0
			o.Progress = func(l string) {
				mu.Lock()
				defer mu.Unlock()
				if strings.Contains(l, "pdes windows=") {
					windows++
				}
			}
			tab, err := r.Run(o)
			if err != nil {
				t.Fatalf("%s with %d shard workers: %v", name, w, err)
			}
			var buf bytes.Buffer
			tab.Render(&buf)
			tab.CSV(&buf)
			if !bytes.Equal(serial, buf.Bytes()) {
				t.Errorf("%s: output differs between serial and %d shard workers\n--- serial ---\n%s\n--- sharded ---\n%s",
					name, w, serial, buf.Bytes())
			}
			if windows != tc.runs {
				t.Errorf("%s with %d shard workers: %d of %d runs reported sharded windows", name, w, windows, tc.runs)
			}
		}
	}
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

// TestGoldenHashes pins the exact rendered bytes of the three sweeps that
// the sharding gate used to exclude, at serial and sharded worker counts.
// Unlike the pairwise bit-identity tests above, an embedded hash also
// catches drift that affects *all* engine cores equally.
func TestGoldenHashes(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep runs")
	}
	for name, want := range goldenRendered {
		for _, w := range []int{0, 2, 4} {
			got := fmt.Sprintf("%x", sha256.Sum256(renderedWithShardWorkers(t, name, w)))
			if got != want {
				t.Errorf("%s @ %d workers: rendered sha256 = %s, want %s", name, w, got, want)
			}
		}
	}
}
