package mpi

import (
	"testing"

	"coschedsim/internal/sim"
)

// BenchmarkMPIAllreduceSteadyAllocs measures the per-Allreduce steady-state
// allocation cost: 16 ranks over 4 quiet nodes run b.N back-to-back
// recursive-doubling Allreduces, with cluster construction excluded by the
// timer reset. This is the test-suite twin of the "mpi-allreduce-steady"
// row in results/bench.json (make bench-record); run with -benchmem to see
// allocs/op. The pending-list matching, embedded collective state and
// pooled delivery records exist to hold this near zero.
func BenchmarkMPIAllreduceSteadyAllocs(b *testing.B) {
	eng, job := testCluster(b, 1, 16, 4, quietConfig())
	job.OnComplete(eng.Stop)
	b.ReportAllocs()
	b.ResetTimer()
	job.Launch(func(r *Rank) {
		var i int
		var loop func(float64)
		loop = func(float64) {
			if i == b.N {
				r.Done()
				return
			}
			i++
			r.Allreduce(float64(i), loop)
		}
		loop(0)
	})
	eng.Run(sim.Forever)
	if !job.Completed() {
		b.Fatal("allreduce loop did not complete")
	}
}
