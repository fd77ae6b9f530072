package sim

import "testing"

// BenchmarkShardedWindowAllocs measures the conservative time-window
// machinery's steady-state allocation cost: 4 shards under 2 workers, each
// carrying a dense self-rescheduling event chain plus a cross-shard send
// every 4th firing, driven for b.N window-lengths of simulated time. This is
// the test-suite twin of the "sharded-window-loop" row in
// results/bench.json (make bench-record); run with -benchmem.
// Window dispatch, outbox staging and the canonical merge all reuse their
// backing storage, so allocs/op should stay flat as b.N grows.
func BenchmarkShardedWindowAllocs(b *testing.B) {
	const shards = 4
	lookahead := 24 * Microsecond
	g := NewShardGroup(1, shards, 2, lookahead)
	for i := 0; i < shards; i++ {
		i := i
		e := g.Shard(i)
		n := 0
		e.Recur(Time(i+1)*Microsecond, "chain", func() Time {
			n++
			if n%4 == 0 {
				dst := g.Shard((i + 1) % shards)
				e.ScheduleOn(dst, e.Now()+lookahead, "cross", func() {})
			}
			return e.Now() + 10*Microsecond
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	g.Run(Time(b.N) * lookahead)
}
