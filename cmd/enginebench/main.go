// enginebench measures the simulator's event engine and guards it against
// performance regressions. It has one scenario list, one measurement and one
// results file:
//
//	enginebench [-mode record] [-o results/bench.json] [-reps 3]
//	enginebench -mode check [-o results/bench.json] [-reps 3]
//
// Record mode measures every scenario at every point it lists (an engine
// core at an intra-run worker count) and writes one row per point, under a
// header that names the machine. Check mode is the CI perf guard: it
// re-measures the guarded rows, compares them with the file, and fails after
// reporting every guard if any fell outside its bound.
//
// Every row is measured the same way: testing.Benchmark with ReportAllocs,
// best of -reps, with time, bytes and allocations all divided by the events
// the body counted. A scenario's points take their reps in turn, so drift
// on the host moves them together. The guard compares two wheel/heap
// ratios; other ratios between rows (sharded/serial) are left to the
// reader.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"
	"time"

	"coschedsim/internal/sim"
)

// machine names where and when a results file was measured.
type machine struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Date       string `json:"date"`
}

func (m machine) String() string {
	return fmt.Sprintf("%s, num_cpu=%d, GOMAXPROCS=%d, %s, %s",
		m.CPU, m.NumCPU, m.GOMAXPROCS, m.GoVersion, m.Date)
}

// row is one scenario on one engine core at one intra-run worker count.
// Zero-valued optional fields are omitted.
type row struct {
	Scenario       string  `json:"scenario"`
	Core           string  `json:"core"`
	Workers        int     `json:"workers"`
	Iterations     int     `json:"iterations"`
	EventsPerSec   float64 `json:"events_per_s"`
	NsPerEvent     float64 `json:"ns_per_event"`
	BytesPerEvent  float64 `json:"bytes_per_event"`
	AllocsPerEvent float64 `json:"allocs_per_event"`
	// Cluster scenarios: wall time of one build and run.
	WallMsPerRun float64 `json:"wall_ms_per_run,omitempty"`
	// Sharded rows: the window machinery of the first (seed 1) run.
	Windows          uint64  `json:"windows,omitempty"`
	CrossShardEvents uint64  `json:"cross_shard_events,omitempty"`
	MeanActiveShards float64 `json:"mean_active_shards,omitempty"`
	BarrierStallMs   float64 `json:"barrier_stall_ms,omitempty"`
}

// results is the schema of results/bench.json.
type results struct {
	Machine   machine           `json:"machine"`
	Reps      int               `json:"reps"`
	Scenarios map[string]string `json:"scenarios"`
	Rows      []row             `json:"rows"`
}

// The guard's bounds: a guarded events/s may fall at most eventsTolerance
// below the recorded value, and a guarded bytes/event may rise at most
// bytesTolerance above it. Allocation is nearly deterministic for fixed
// seeds, so its bound is the tighter one.
const (
	eventsTolerance = 0.25
	bytesTolerance  = 0.20
)

// The guarded metrics: two fields of the wheel-core row, named as in the
// JSON, and the wheel row's events/s over the heap row's.
const (
	eventsPerSec  = "events_per_s"
	bytesPerEvent = "bytes_per_event"
	wheelOverHeap = "wheel/heap events_per_s"
)

// guard is one metric of one scenario that check mode re-measures.
type guard struct {
	scenario string
	metric   string
}

// guards are the rows and metrics bench-check holds the engine to: the
// full-cluster Allreduce workload, the tick-heavy node and the jittered
// fabric for throughput, and the two cluster workloads for allocation. The
// wheel/heap ratios are measured in one run, so a host that slows down
// moves both of their rows together, while the absolute guards also catch a
// slowdown in code both cores share (kernel, MPI).
var guards = []guard{
	{"cluster-8", eventsPerSec},
	{"node-tick-heavy", eventsPerSec},
	{"jitter-8", eventsPerSec},
	{"cluster-8", bytesPerEvent},
	{"jitter-8", bytesPerEvent},
	{"cluster-8", wheelOverHeap},
	{"node-tick-heavy", wheelOverHeap},
}

// value is the guarded metric in rows, or 0 when rows lack a row it reads
// or a ratio's events/s is not positive.
func (g guard) value(rows []row) float64 {
	var wheel, heap row
	for _, r := range rows {
		if r.Scenario == g.scenario && r.Core == "wheel" {
			wheel = r
		}
		if r.Scenario == g.scenario && r.Core == "heap" {
			heap = r
		}
	}
	switch {
	case g.metric == bytesPerEvent:
		return wheel.BytesPerEvent
	case g.metric == eventsPerSec:
		return wheel.EventsPerSec
	case wheel.EventsPerSec <= 0 || heap.EventsPerSec <= 0:
		return 0
	}
	return wheel.EventsPerSec / heap.EventsPerSec
}

// reads reports whether the guard reads the scenario's row on core.
func (g guard) reads(scenario, core string) bool {
	return g.scenario == scenario && (core == "wheel" || core == "heap" && g.metric == wheelOverHeap)
}

// verdict is one guard's outcome.
type verdict struct {
	guard
	recorded, fresh float64
	ok              bool
}

func (v verdict) String() string {
	what := v.metric
	if v.metric != wheelOverHeap {
		what = "wheel " + v.metric
	}
	head := fmt.Sprintf("%-16s %-23s", v.scenario, what)
	switch {
	case v.recorded <= 0:
		return head + " FAIL: the results file has no positive value; record one with `make bench-record`"
	case v.fresh <= 0:
		return head + " FAIL: the fresh measurement failed"
	}
	status := "ok"
	if !v.ok {
		status = "REGRESSION"
	}
	return fmt.Sprintf("%s %.4g now vs %.4g recorded (%.2fx) %s",
		head, v.fresh, v.recorded, v.fresh/v.recorded, status)
}

// check compares fresh measurements with recorded rows and returns one
// verdict per guard, in guard order. A guard passes when both values are
// positive and the fresh one is inside its bound; an improvement always
// passes.
func check(recorded, fresh []row) []verdict {
	out := make([]verdict, len(guards))
	for i, g := range guards {
		v := verdict{guard: g, recorded: g.value(recorded), fresh: g.value(fresh)}
		if v.recorded > 0 && v.fresh > 0 {
			ratio := v.fresh / v.recorded
			if g.metric == bytesPerEvent {
				v.ok = ratio <= 1+bytesTolerance
			} else {
				v.ok = ratio >= 1-eventsTolerance
			}
		}
		out[i] = v
	}
	return out
}

// measure records one scenario at the given points: reps rounds, each
// running every point once in turn, so that host drift outlasting one
// testing.Benchmark run moves the points of a round together. Each run is
// calibrated to about a second, and a point keeps its fastest run, with
// bytes and allocations from the same run. A point whose body failed on
// every rep comes back with zero events/s.
func measure(s scenario, points []point, reps int) []row {
	prev := sim.DefaultCore
	defer func() { sim.DefaultCore = prev }()
	best := make([]row, len(points))
	for i, p := range points {
		best[i] = row{Scenario: s.name, Core: p.core, Workers: p.workers}
	}
	for rep := 0; rep < reps; rep++ {
		for i, p := range points {
			sim.DefaultCore = sim.CoreWheel
			if p.core == "heap" {
				sim.DefaultCore = sim.CoreHeap
			}
			var events uint64
			var win *sim.GroupStats
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				events, win = 0, nil // stay zero if the body calls b.Fatal
				events, win = s.run(b, p.intraRun())
			})
			if events == 0 || r.T <= 0 {
				continue
			}
			n := float64(events)
			eps := n / r.T.Seconds()
			if eps <= best[i].EventsPerSec {
				continue
			}
			b := &best[i]
			b.Iterations = r.N
			b.EventsPerSec = eps
			b.NsPerEvent = float64(r.T.Nanoseconds()) / n
			b.BytesPerEvent = float64(r.MemBytes) / n
			b.AllocsPerEvent = float64(r.MemAllocs) / n
			if s.cluster {
				b.WallMsPerRun = float64(r.NsPerOp()) / 1e6
			}
			if win != nil && win.Windows > 0 {
				b.Windows = win.Windows
				b.CrossShardEvents = win.CrossShardEvents
				b.MeanActiveShards = float64(win.ActiveShardWindows) / float64(win.Windows)
				b.BarrierStallMs = float64(win.BarrierStallNs) / 1e6
			}
		}
	}
	return best
}

// currentMachine describes the host this process runs on.
func currentMachine() machine {
	return machine{
		CPU:        cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
}

// cpuModel is the processor's model name where the kernel reports one
// (Linux), else the platform.
func cpuModel() string {
	if buf, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(buf), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOOS + "/" + runtime.GOARCH
}

// record measures every scenario at every point and writes the file.
func record(path string, reps int) error {
	out := results{Machine: currentMachine(), Reps: reps, Scenarios: map[string]string{}}
	var failed []string
	for _, s := range scenarios() {
		out.Scenarios[s.name] = s.detail
		for _, r := range measure(s, s.points, reps) {
			fmt.Fprintf(os.Stderr, "%-20s %-7s x%d %6.3gM ev/s %7.1f ns/ev %6.2f B/ev\n",
				r.Scenario, r.Core, r.Workers, r.EventsPerSec/1e6, r.NsPerEvent, r.BytesPerEvent)
			if r.EventsPerSec <= 0 {
				failed = append(failed, fmt.Sprintf("%s/%s/%d", r.Scenario, r.Core, r.Workers))
			}
			out.Rows = append(out.Rows, r)
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("no run completed for %s; %s not written", strings.Join(failed, ", "), path)
	}
	buf, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "wrote", path)
	return nil
}

// load reads a results file.
func load(path string) (results, error) {
	var f results
	buf, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(buf, &f); err != nil {
		return f, fmt.Errorf("%s: %w", path, err)
	}
	return f, nil
}

// runCheck is the guard: it re-measures every row a guard reads, a
// scenario's rows rep by rep in turn, prints every verdict, and only then
// reports whether any failed.
func runCheck(path string, reps int) (passed bool, err error) {
	rec, err := load(path)
	if err != nil {
		return false, fmt.Errorf("%w\nrecord a baseline with `make bench-record`", err)
	}
	fmt.Fprintf(os.Stderr, "recorded on: %s\nchecking on: %s\n", rec.Machine, currentMachine())
	var fresh []row
	for _, s := range scenarios() {
		var points []point
		for _, p := range s.points {
			if slices.ContainsFunc(guards, func(g guard) bool { return g.reads(s.name, p.core) }) {
				points = append(points, p)
			}
		}
		fresh = append(fresh, measure(s, points, reps)...)
	}
	passed = true
	for _, v := range check(rec.Rows, fresh) {
		fmt.Fprintln(os.Stderr, v)
		passed = passed && v.ok
	}
	return passed, nil
}

func main() {
	mode := flag.String("mode", "record", "record (measure every scenario into -o) or check (re-measure the guarded rows against -o)")
	path := flag.String("o", "results/bench.json", "results file: written by record, read by check")
	reps := flag.Int("reps", 3, "testing.Benchmark runs per row; the fastest is kept")
	flag.Parse()
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "enginebench: -reps must be at least 1, got %d\n", *reps)
		os.Exit(2)
	}
	debug.SetGCPercent(800) // match parsim's production GC setting

	switch *mode {
	case "record":
		if err := record(*path, *reps); err != nil {
			fmt.Fprintln(os.Stderr, "enginebench:", err)
			os.Exit(1)
		}
	case "check":
		passed, err := runCheck(*path, *reps)
		if err != nil {
			fmt.Fprintln(os.Stderr, "enginebench:", err)
			os.Exit(1)
		}
		if !passed {
			fmt.Fprintf(os.Stderr, "enginebench: perf check failed against %s\n", *path)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "perf check passed")
	default:
		fmt.Fprintf(os.Stderr, "enginebench: unknown -mode %q (record or check)\n", *mode)
		os.Exit(2)
	}
}
