// Command perfbench is coschedsim's end-to-end benchmark. It runs one named
// workload pass after pass for a host-time budget, checks every run's
// simulated outputs, and prints the benchmark's metrics by name with their
// units. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 112, "failed": 0, "metrics": {"wall_s": {"value": 2.41, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are BENCHMARK.json's end-to-end ones; with
// -trace 1 perfbench alternates plain and CPU-profiled passes and reports
// the per-layer ones. -record instead runs one pass of every workload and
// records its run digests for -seed. run.sh builds and runs perfbench;
// README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

const (
	minPasses      = 3 // untraced passes a run measures at the least
	defaultSeconds = 30

	// procs is the number of threads that run Go code in every measured
	// pass. On a shared host, two busy threads measure where the hypervisor
	// places them as much as the program: on a 2-vCPU VM the fastest sweep
	// pass of five processes spread by 0.27 of its median on two pool
	// workers and by 0.02 on one thread, measured minutes apart. Parallel
	// execution is measured by the traced parallel probe.
	procs = 1
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: allreduce-sweep, ale3d-io or allreduce-sharded")
	seed := fs.Int64("seed", 1, "base seed every run's seed derives from")
	seconds := fs.Int("seconds", defaultSeconds, "host seconds to keep starting passes for")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of profiled passes")
	outDir := fs.String("out", ".bench_build", "directory for CPU profiles")
	digestPath := fs.String("digests", "perfbench/digests.json", "run digests recorded per base seed")
	record := fs.Bool("record", false, "record the run digests of one pass of every workload at -seed, then exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	digests, err := loadDigests(*digestPath)
	if err != nil {
		return err
	}
	if *record {
		return recordDigests(digests, *seed, *digestPath)
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		return fmt.Errorf("unknown workload %q", *name)
	case *seconds < 1:
		return fmt.Errorf("-seconds must be positive, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	def, err := loadDefinition("BENCHMARK.json")
	if err != nil {
		return err
	}

	runtime.GOMAXPROCS(procs)
	mc := machine{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), GoVersion: runtime.Version(),
		Seed: *seed, Workload: w.name, Workers: 1,
	}
	if *trace == 1 && w.serialRef != nil {
		mc.ProbeWorkers = shardWorkers
	}
	mc.Oversubscribed = mc.ProbeWorkers > mc.NumCPU
	if mc.Oversubscribed {
		fmt.Fprintf(os.Stderr, "perfbench: %s's parallel probe uses %d workers but the machine has %d CPUs; its parallel times are time-shared\n",
			w.name, mc.ProbeWorkers, mc.NumCPU)
	}

	s := &session{w: w, seed: *seed, specs: w.plan(*seed), recorded: digests.forRun(*seed, w.name), log: stdout}
	s.first = make([]string, len(s.specs))
	// A warm-up pass grows the heap and fills caches before anything is
	// timed; its runs are checked like any other.
	if _, err := s.pass(nil); err != nil {
		return err
	}
	budget := time.Duration(*seconds) * time.Second
	var values map[string]float64
	want := def.EndToEnd
	if *trace == 1 {
		values, err = s.measureLayers(budget, *outDir)
		want = def.PerLayer
	} else {
		values, err = s.measureEndToEnd(budget)
	}
	if err != nil {
		return err
	}
	mc.Passes = s.passes
	metrics := map[string]metric{}
	for _, d := range want {
		v, ok := values[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s has no finite value", d.Name)
		}
		metrics[d.Name] = metric{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "%s %.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(stdout, "failed_frac %.6g ratio (%d of %d runs failed)\n",
		float64(s.failed)/float64(s.attempted), s.failed, s.attempted)
	ctx, err := json.Marshal(mc)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "context %s\n", ctx)
	res, err := json.Marshal(result{Correct: s.failed == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", res)
	return err
}

// machine is the context every result is recorded with.
type machine struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Seed       int64  `json:"seed"`
	Workload   string `json:"workload"`
	// Workers is how many runs or shards the measured passes execute at
	// once; ProbeWorkers is the traced parallel probe's thread count.
	Workers      int `json:"workers"`
	ProbeWorkers int `json:"probe_workers,omitempty"`
	// Oversubscribed marks a result whose workers outnumber the threads or
	// CPUs they run on: they time-share, so their parallel times are not
	// parallel.
	Oversubscribed bool `json:"oversubscribed"`
	Passes         int  `json:"passes"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// definition is the part of BENCHMARK.json perfbench reads: which metrics
// each mode reports, and their units.
type definition struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadDefinition(path string) (definition, error) {
	var d definition
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// session runs the passes of one workload and tallies its checks.
type session struct {
	w        workloadDef
	seed     int64
	specs    []runSpec
	recorded map[string]string // run label -> digest recorded for this seed
	first    []string          // each run's digest in the first pass it succeeded in
	log      io.Writer

	passes, attempted, failed int
}

// pass runs one pass of the workload and checks each of its runs. A run
// fails on an error, a panic, a missed deadline, a failed invariant, or a
// digest that differs from an earlier pass or from the recorded one; each
// failure is printed with the run's label.
func (s *session) pass(prof io.Writer) (pass, error) {
	p, err := runPass(s.specs, prof)
	if err != nil {
		return p, err
	}
	s.passes++
	fmt.Fprintf(os.Stderr, "perfbench: %s pass %d: wall %.3fs setup %.4fs cpu %.3fs\n",
		s.w.name, s.passes, p.wallS, sum(p.buildS), sum(p.cpuTimes()))
	for i, spec := range s.specs {
		if p.errs[i] == nil && s.first[i] == "" {
			s.first[i] = p.outs[i].digest
		}
		s.tally(spec.label, p.outs[i], p.errs[i], s.first[i])
	}
	return p, nil
}

func (s *session) tally(label string, out runOut, err error, earlier string) {
	if err == nil {
		err = checkDigest(out.digest, earlier, s.recorded[label])
	}
	s.attempted++
	if err != nil {
		s.failed++
		fmt.Fprintf(s.log, "FAIL %s %s: %v\n", s.w.name, label, err)
	}
}

// measureEndToEnd runs untraced passes until the budget is spent and
// reports a pass's wall, set-up and CPU time, each as the sum of every
// run's fastest time over the passes (bestOf), and the peak RSS.
func (s *session) measureEndToEnd(budget time.Duration) (map[string]float64, error) {
	var wall, setup, cpu [][]float64
	start := time.Now()
	for len(wall) < minPasses || time.Since(start) < budget {
		p, err := s.pass(nil)
		if err != nil {
			return nil, err
		}
		wall = append(wall, p.hostTimes())
		setup = append(setup, p.buildS)
		cpu = append(cpu, p.cpuTimes())
	}
	// Memory is what the Go runtime holds from the OS, a high-water mark,
	// rather than the resident set: the scavenger returns freed pages on a
	// timer, and the peak resident set of the same work read anywhere from 9
	// to 15 MB from run to run.
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return map[string]float64{
		"wall_s": bestOf(wall), "setup_s": bestOf(setup), "cpu_s": bestOf(cpu), "peak_mem_mb": float64(ms.Sys) / (1 << 20),
	}, nil
}

// measureLayers alternates plain and CPU-profiled passes until the budget
// is spent, at least one of each, and reports the per-layer metrics: the
// profiled passes' medians, the layers' shares of the merged profile, the
// profiler's cost in wall time, and for a sharded workload the parallel
// probe's.
func (s *session) measureLayers(budget time.Duration, outDir string) (map[string]float64, error) {
	var plain, traced [][]float64
	var layers []map[string]float64
	var profiles []string
	start := time.Now()
	for i := 0; len(traced) == 0 || time.Since(start) < budget; i++ {
		if i%2 == 0 {
			p, err := s.pass(nil)
			if err != nil {
				return nil, err
			}
			plain = append(plain, p.hostTimes())
			continue
		}
		path := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-%d.pprof", s.w.name, i))
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		p, err := s.pass(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, err
		}
		traced = append(traced, p.hostTimes())
		layers = append(layers, layerMetrics(p))
		profiles = append(profiles, path)
	}
	m := medians(layers)
	shares, err := selfShares(profiles)
	if err != nil {
		return nil, err
	}
	for _, l := range profiledLayers {
		m[l+".self_share"] = shares[l]
	}
	m["bench.trace_overhead_pct"] = 100 * (bestOf(traced)/bestOf(plain) - 1)
	m["sim.parallel_speedup"] = 0
	if s.w.serialRef != nil {
		probe, err := s.parallelProbe()
		if err != nil {
			return nil, err
		}
		for name, v := range probe {
			m[name] = v
		}
	}
	return m, nil
}

// probeRepeats is how often the parallel probe runs each side; it reports
// each side's fastest run.
const probeRepeats = 3

// parallelProbe runs the workload's single run on shardWorkers threads and
// on the serial engine, probeRepeats times each, and checks that every run
// reproduces the measured passes' digest. It returns the metrics of parallel
// execution, which the one-thread passes cannot show: the parallel runs'
// parallel windows and barrier stall, and sim.parallel_speedup, the serial
// engine's fastest host time over the parallel run's.
func (s *session) parallelProbe() (map[string]float64, error) {
	run := func(spec runSpec, threads int, tag string) ([]pass, error) {
		prev := runtime.GOMAXPROCS(threads)
		defer runtime.GOMAXPROCS(prev)
		var ps []pass
		for i := 0; i < probeRepeats; i++ {
			p, err := runPass([]runSpec{spec}, nil)
			if err != nil {
				return nil, err
			}
			s.tally(spec.label+tag, p.outs[0], p.errs[0], s.first[0])
			ps = append(ps, p)
		}
		return ps, nil
	}
	par, err := run(s.specs[0], shardWorkers, " (parallel probe)")
	if err != nil {
		return nil, err
	}
	ser, err := run(s.w.serialRef(s.seed), procs, " (serial engine)")
	if err != nil {
		return nil, err
	}
	m := map[string]float64{}
	var parHost, serHost [][]float64
	var windows []map[string]float64
	for i := range par {
		if par[i].errs[0] != nil || ser[i].errs[0] != nil {
			continue
		}
		// Whole runs: on two threads the work between marks is not fixed.
		parHost = append(parHost, []float64{par[i].outs[0].hostS})
		serHost = append(serHost, []float64{ser[i].outs[0].hostS})
		k := par[i].outs[0].counts
		windows = append(windows, map[string]float64{
			"sim.parallel_windows": k["sim.parallel_windows"], "sim.barrier_stall_ms": k["sim.barrier_stall_ms"],
		})
	}
	for name, v := range medians(windows) {
		m[name] = v
	}
	m["sim.parallel_speedup"] = ratio(bestOf(serHost), bestOf(parHost))
	return m, nil
}
