// parsim runs the reproduction experiments: every figure and table of the
// paper's evaluation, plus ablations.
//
// Usage:
//
//	parsim list
//	parsim run <name>... [-full] [-nodes N] [-calls N] [-seeds N] [-seed N] [-procs N] [-csv] [-v]
//	parsim all [flags]
//
// Flags and experiment names may be interleaved in any order: `parsim run
// -full fig3` and `parsim run fig3 -full` are equivalent.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"

	"coschedsim/internal/experiment"
)

func main() {
	// Simulation runs allocate short-lived events and closures at a high
	// rate with a small live set; a lazy GC buys ~15-20% wall time. With
	// -procs > 1 the live set grows with the worker count, which this
	// percentage-based target already scales for.
	debug.SetGCPercent(800)
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// run() carries the real exit code out so deferred profile writers run
	// before the process exits (os.Exit skips defers).
	os.Exit(run())
}

func run() int {
	switch os.Args[1] {
	case "list":
		for _, r := range experiment.Registry() {
			fmt.Printf("%-12s %s\n", r.Name, r.Describe)
		}
	case "run", "all":
		fs := flag.NewFlagSet(os.Args[1], flag.ExitOnError)
		full := fs.Bool("full", false, "paper-size runs (59+ nodes; minutes of wall time)")
		hugeTier := fs.Bool("huge", false, "huge-tier sizing (1024 nodes / 16384 procs; runs sharded on 4 workers unless -shard-procs sets another count)")
		nodes := fs.Int("nodes", 0, "override the maximum node count")
		calls := fs.Int("calls", 0, "minimum timed Allreduce calls per point (a tier's benchmark window may raise it)")
		seeds := fs.Int("seeds", 0, "override runs per data point")
		seed := fs.Int64("seed", 1, "base RNG seed")
		procs := fs.Int("procs", 0, "total worker budget (0 = GOMAXPROCS, 1 = serial)")
		shardProcs := fs.Int("shard-procs", 0, "run each simulation on the sharded engine core with this many workers (carved out of -procs; omit for the serial engine)")
		csv := fs.Bool("csv", false, "emit CSV instead of aligned text")
		verbose := fs.Bool("v", false, "print per-run progress")
		checkpoint := fs.String("checkpoint", "", "append aggregate-benchmark run results to this JSONL file as the sweep progresses")
		resume := fs.Bool("resume", false, "replay completed runs from the -checkpoint file instead of re-simulating them")
		runDeadline := fs.Duration("run-deadline", 0, "wall-clock budget per simulation run; over-budget runs are quarantined")
		cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile := fs.String("memprofile", "", "write an allocation profile to this file at exit")
		names, err := parseInterleaved(fs, os.Args[2:])
		if err != nil {
			return 2
		}
		// Count-style flags must be positive when given: an explicit zero or
		// negative is a typo'd invocation, not a request for the default
		// (fs.Visit only sees flags the user actually set, so omitting a flag
		// still means "all cores" / "serial" / the tier default).
		var flagErr string
		fs.Visit(func(f *flag.Flag) {
			if flagErr != "" {
				return
			}
			switch f.Name {
			case "procs":
				if *procs <= 0 {
					flagErr = fmt.Sprintf("-procs %d: worker budget must be positive (omit the flag to use all cores)", *procs)
				}
			case "shard-procs":
				if *shardProcs <= 0 {
					flagErr = fmt.Sprintf("-shard-procs %d: intra-run worker count must be positive (omit the flag for the serial engine)", *shardProcs)
				}
			case "nodes":
				if *nodes <= 0 {
					flagErr = fmt.Sprintf("-nodes %d: node count must be positive", *nodes)
				}
			case "calls":
				if *calls <= 0 {
					flagErr = fmt.Sprintf("-calls %d: call count must be positive", *calls)
				}
			case "seeds":
				if *seeds <= 0 {
					flagErr = fmt.Sprintf("-seeds %d: seed count must be positive", *seeds)
				}
			case "run-deadline":
				if *runDeadline <= 0 {
					flagErr = fmt.Sprintf("-run-deadline %v: deadline must be positive (omit the flag for no budget)", *runDeadline)
				}
			}
		})
		if flagErr != "" {
			fmt.Fprintf(os.Stderr, "parsim: %s\n", flagErr)
			return 2
		}
		if *resume && *checkpoint == "" {
			fmt.Fprintln(os.Stderr, "parsim: -resume needs -checkpoint FILE to replay from")
			return 2
		}
		if os.Args[1] == "all" {
			names = nil
			for _, r := range experiment.Registry() {
				names = append(names, r.Name)
			}
		}
		if len(names) == 0 {
			fmt.Fprintln(os.Stderr, "parsim run: name an experiment (see 'parsim list')")
			return 2
		}
		// Reject unknown names before running anything: a typo in the third
		// name must not cost the first two experiments' wall time.
		var unknown []string
		for _, name := range names {
			if _, ok := experiment.Lookup(name); !ok {
				unknown = append(unknown, fmt.Sprintf("%q", name))
			}
		}
		if len(unknown) > 0 {
			fmt.Fprintf(os.Stderr, "parsim: unknown experiment(s) %s (see 'parsim list')\n", strings.Join(unknown, ", "))
			return 2
		}
		if *cpuprofile != "" {
			f, err := os.Create(*cpuprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "parsim: -cpuprofile: %v\n", err)
				return 2
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "parsim: -cpuprofile: %v\n", err)
				return 2
			}
			defer func() {
				pprof.StopCPUProfile()
				f.Close()
			}()
		}
		if *memprofile != "" {
			defer func() {
				f, err := os.Create(*memprofile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "parsim: -memprofile: %v\n", err)
					return
				}
				defer f.Close()
				runtime.GC() // flush accounting up to the final allocation
				if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
					fmt.Fprintf(os.Stderr, "parsim: -memprofile: %v\n", err)
				}
			}()
		}
		opts := experiment.Quick()
		if *full {
			opts = experiment.Full()
		}
		if *hugeTier {
			opts = experiment.Huge()
			// The huge tier exists to exercise the sharded core at scale;
			// default its intra-run workers on rather than requiring both
			// flags (-shard-procs still overrides).
			if *shardProcs == 0 {
				*shardProcs = 4
			}
		}
		if *nodes > 0 {
			opts.MaxNodes = *nodes
		}
		if *calls > 0 {
			opts.Calls = *calls
		}
		if *seeds > 0 {
			opts.Seeds = *seeds
		}
		opts.BaseSeed = *seed
		opts.Parallelism = *procs
		opts.ShardWorkers = *shardProcs
		opts.CheckpointPath = *checkpoint
		opts.Resume = *resume
		opts.RunDeadline = *runDeadline
		if *verbose {
			opts.Progress = func(line string) { fmt.Fprintln(os.Stderr, "  "+line) }
		}
		for _, name := range names {
			r, _ := experiment.Lookup(name) // validated above
			start := time.Now()
			table, err := r.Run(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "parsim: %s: %v\n", name, err)
				return 1
			}
			if *csv {
				table.CSV(os.Stdout)
			} else {
				table.Render(os.Stdout)
				fmt.Printf("(%s in %.1fs wall)\n\n", name, time.Since(start).Seconds())
			}
		}
	default:
		usage()
		return 2
	}
	return 0
}

// parseInterleaved parses flags and positional experiment names in any
// order. The flag package stops at the first non-flag argument, so a
// single fs.Parse would silently drop flags given after a name (`parsim
// run fig3 -full` used to run a Quick fig3); instead we alternate: parse a
// flag segment, collect names until the next dash-prefixed token, repeat
// until everything is consumed. A bare "-" is collected as a name (and
// rejected later by the experiment lookup) rather than looping forever.
func parseInterleaved(fs *flag.FlagSet, args []string) ([]string, error) {
	var names []string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		args = fs.Args()
		for len(args) > 0 && (len(args[0]) == 0 || args[0][0] != '-' || args[0] == "-") {
			names = append(names, args[0])
			args = args[1:]
		}
	}
	return names, nil
}

func usage() {
	fmt.Fprintln(os.Stderr, `parsim — reproduction harness for "Improving the Scalability of Parallel
Jobs by adding Parallel Awareness to the Operating System" (SC'03)

usage:
  parsim list                      list experiments
  parsim run <name>... [flags]     run selected experiments
  parsim all [flags]               run everything

flags for run/all (may precede or follow experiment names):
  -full        paper-size runs (59+ nodes)
  -huge        huge-tier runs (1024 nodes / 16384 procs; defaults
               -shard-procs to 4 so runs use the sharded core)
  -nodes N     override max node count
  -calls N     minimum Allreduce calls per point; a tier's benchmark
               window raises it (Quick's 2s window runs a 4-node point
               about 1,560 calls, even at -calls 96)
  -seeds N     override seeds per point
  -seed N      base RNG seed
  -procs N     total worker budget (0 = all cores, 1 = serial;
               tables are bit-identical at any setting)
  -shard-procs N  run each simulation on the sharded engine core (per-node
               event shards, conservative time windows) with N workers,
               N >= 1. Carved out of the -procs budget: sweep-level
               workers become procs/shard-procs, so the total never
               exceeds -procs. Omitted, each simulation runs on the
               serial engine. Applies to every experiment (single-node
               runs stay serial). Output does not depend on N; it
               matches the serial engine's.
  -csv         CSV output
  -v           progress on stderr (includes per-run pdes window stats
               when -shard-procs is active)
  -checkpoint FILE   append each aggregate-benchmark run's result (the
               Allreduce-timing sweeps; not the runs of fig1, fig4, t3, t5,
               abl-hints, abl-fault or t4's noise half) to FILE (JSONL)
  -resume      with -checkpoint: replay completed runs from FILE and only
               simulate the missing ones (same sweep options required)
  -run-deadline DUR  wall-clock budget per simulation run of every
               experiment (e.g. 90s, 5m); a run over budget is quarantined
               ("-" in the table) instead of hanging the sweep
  -cpuprofile FILE   write a pprof CPU profile of the run
  -memprofile FILE   write a pprof allocation profile at exit`)
}
