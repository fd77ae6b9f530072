// Package workload implements the applications the paper measures:
//
//   - AggregateTrace — the synthetic aggregate_trace.c benchmark: loops of
//     timed MPI_Allreduce calls with trace marks every 64th call.
//   - BSP — a generic bulk-synchronous SPMD program (Figure 2's model):
//     compute, then synchronize, repeatedly; used for the "Allreduce
//     consumes >50% of total time" analysis.
//   - ALE3D — a proxy for the LLNL multi-physics code: initial state read,
//     timesteps of imbalanced compute + halo exchanges + global reductions,
//     and a restart dump at the end, all through the GPFS service.
package workload

import (
	"fmt"

	"coschedsim/internal/cluster"
	"coschedsim/internal/mpi"
	"coschedsim/internal/sim"
	"coschedsim/internal/trace"
)

// AggregateSpec configures the aggregate_trace benchmark.
type AggregateSpec struct {
	// Loops and CallsPerLoop mirror the paper's three loops of 4096 calls.
	Loops        int
	CallsPerLoop int
	// TraceEvery inserts a trace mark around every k-th call (paper: 64).
	// Zero disables marks.
	TraceEvery int
	// Compute is optional work between calls (the real benchmark "simulates
	// the sorts of tasks programs may perform" around the Allreduce loop).
	Compute sim.Time
	// ComputeJitter, when > 0, perturbs each rank's per-call compute by a
	// uniform offset in [-ComputeJitter, +ComputeJitter] drawn from a
	// counter stream keyed by (rank, call) — shard-safe load imbalance for
	// the synthetic benchmark. Zero keeps compute constant (the paper's
	// benchmark) and the draw-free historical behavior.
	ComputeJitter sim.Time
	// Tracer receives the marks (may be nil).
	Tracer *trace.Buffer
	// Stream, when non-nil, receives each timed call's wall time (rank 0's
	// clock, microseconds) as it completes, and the result retains no
	// per-call slices: TimesUS and Starts stay empty. It is for callers
	// that consume the timings as they arrive, such as a benchmark that
	// marks host time per call.
	Stream func(callIndex int, us float64)
}

// WorkFor returns rank's compute cost before timed call number call: a pure
// function of (seed, rank, call). With zero ComputeJitter it is simply
// Compute and consumes no randomness.
func (s AggregateSpec) WorkFor(src *sim.Source, rank, call int) sim.Time {
	if s.ComputeJitter <= 0 {
		return s.Compute
	}
	cr := src.CounterRand("aggregate-imbalance", uint64(rank), uint64(call))
	return cr.Jitter(s.Compute, s.ComputeJitter)
}

// DefaultAggregateSpec mirrors the paper's benchmark at full size.
func DefaultAggregateSpec() AggregateSpec {
	return AggregateSpec{Loops: 3, CallsPerLoop: 4096, TraceEvery: 64}
}

// Validate reports an error for degenerate specs.
func (s AggregateSpec) Validate() error {
	if s.Loops <= 0 || s.CallsPerLoop <= 0 {
		return fmt.Errorf("workload: aggregate needs positive loops and calls")
	}
	if s.TraceEvery < 0 || s.Compute < 0 || s.ComputeJitter < 0 {
		return fmt.Errorf("workload: negative aggregate parameters")
	}
	return nil
}

// AggregateResult holds per-call timings measured at rank 0, which the
// collective's synchronizing property makes representative of the job.
type AggregateResult struct {
	// TimesUS is the wall time of every Allreduce, in microseconds, in
	// call order (Loops*CallsPerLoop entries). Empty when the spec streams
	// timings instead of retaining them.
	TimesUS []float64
	// Starts records when each timed call began (rank 0's clock), for
	// trace-interval attribution of outliers. Empty when streaming.
	Starts []sim.Time
	// Wall is total benchmark wall time.
	Wall sim.Time
	// Completed reports whether every rank finished within the horizon.
	Completed bool
}

// RunAggregate executes the benchmark on a built cluster and collects
// timings. The horizon bounds runaway configurations.
func RunAggregate(c *cluster.Cluster, spec AggregateSpec, horizon sim.Time) (AggregateResult, error) {
	if err := spec.Validate(); err != nil {
		return AggregateResult{}, err
	}
	total := spec.Loops * spec.CallsPerLoop
	var res AggregateResult
	if spec.Stream == nil {
		res.TimesUS = make([]float64, 0, total)
	}
	src := c.Eng.Source()
	var t0 sim.Time

	mark := func(r *mpi.Rank, i int, phase string) {
		if spec.Tracer != nil && spec.TraceEvery > 0 && r.ID() == 0 && i%spec.TraceEvery == 0 {
			spec.Tracer.Mark(r.Now(), r.Node().ID(), fmt.Sprintf("allreduce-%d-%s", i, phase))
		}
	}

	// Each rank's loop is driven by three continuations bound once per rank
	// (not per call): the call counter lives in the closure environment, so a
	// full-size run allocates O(ranks) control state instead of O(calls).
	// They read the spec through sp: a by-value capture would copy the whole
	// spec into each of them.
	sp := &spec
	program := func(r *mpi.Rank) {
		var i int
		var call, body func()
		var after func(float64)
		body = func() {
			mark(r, i, "begin")
			if r.ID() == 0 {
				t0 = r.Now()
				if sp.Stream == nil {
					res.Starts = append(res.Starts, t0)
				}
			}
			r.Allreduce(float64(i), after)
		}
		after = func(float64) {
			if r.ID() == 0 {
				if sp.Stream != nil {
					sp.Stream(i, (r.Now() - t0).Micros())
				} else {
					res.TimesUS = append(res.TimesUS, (r.Now() - t0).Micros())
				}
			}
			mark(r, i, "end")
			i++
			call()
		}
		call = func() {
			if i == total {
				r.Done()
				return
			}
			if sp.Compute > 0 {
				r.Compute(sp.WorkFor(src, r.ID(), i), body)
			} else {
				body()
			}
		}
		call()
	}

	wall, ok := c.Launch(program, horizon)
	res.Wall = wall
	res.Completed = ok
	return res, nil
}
