package network

import (
	"testing"
	"testing/quick"

	"coschedsim/internal/sim"
)

// handles returns a handle table that puts node i on engines[i].
func handles(engines ...*sim.Engine) []*sim.Handle {
	hs := make([]*sim.Handle, len(engines))
	for i, e := range engines {
		hs[i] = e.NewHandle(i)
	}
	return hs
}

// serial returns a handle table that puts four nodes on eng.
func serial(eng *sim.Engine) []*sim.Handle { return handles(eng, eng, eng, eng) }

func testFabric(t *testing.T, cfg Config) (*sim.Engine, *Fabric) {
	t.Helper()
	eng := sim.NewEngine(1)
	f, err := NewFabric(serial(eng), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, f
}

func TestSendLatencyExact(t *testing.T) {
	cfg := Config{Latency: 9 * sim.Microsecond, LocalLatency: 2 * sim.Microsecond}
	eng, f := testFabric(t, cfg)
	var remote, local sim.Time
	f.Send(0, 1, 0, func() { remote = eng.Now() })
	f.Send(2, 2, 0, func() { local = eng.Now() })
	eng.RunUntilIdle()
	if remote != 9*sim.Microsecond {
		t.Errorf("remote delivery at %v, want 9us", remote)
	}
	if local != 2*sim.Microsecond {
		t.Errorf("local delivery at %v, want 2us", local)
	}
}

func TestSendBandwidthTerm(t *testing.T) {
	cfg := Config{Latency: 10 * sim.Microsecond, BytesPerSecond: 1e6} // 1 MB/s
	eng, f := testFabric(t, cfg)
	var at sim.Time
	f.Send(0, 1, 1000, func() { at = eng.Now() }) // 1000B at 1MB/s = 1ms
	eng.RunUntilIdle()
	want := 10*sim.Microsecond + sim.Millisecond
	if at != want {
		t.Fatalf("delivery at %v, want %v", at, want)
	}
}

func TestSendZeroBandwidthMeansInfinite(t *testing.T) {
	cfg := Config{Latency: 5 * sim.Microsecond}
	eng, f := testFabric(t, cfg)
	var at sim.Time
	f.Send(0, 1, 1<<30, func() { at = eng.Now() })
	eng.RunUntilIdle()
	if at != 5*sim.Microsecond {
		t.Fatalf("delivery at %v, want latency only", at)
	}
}

func TestJitterBounds(t *testing.T) {
	cfg := Config{Latency: 10 * sim.Microsecond, Jitter: 4 * sim.Microsecond}
	eng, f := testFabric(t, cfg)
	var times []sim.Time
	for i := 0; i < 200; i++ {
		f.Send(0, 1, 0, func() { times = append(times, eng.Now()) })
	}
	eng.RunUntilIdle()
	seenNonBase := false
	for _, at := range times {
		if at < 10*sim.Microsecond || at > 14*sim.Microsecond {
			t.Fatalf("jittered delivery at %v outside [10us,14us]", at)
		}
		if at != 10*sim.Microsecond {
			seenNonBase = true
		}
	}
	if !seenNonBase {
		t.Fatal("jitter never produced a non-base latency")
	}
}

func TestLocalMessagesSkipJitter(t *testing.T) {
	cfg := Config{LocalLatency: 2 * sim.Microsecond, Jitter: 50 * sim.Microsecond}
	eng, f := testFabric(t, cfg)
	for i := 0; i < 50; i++ {
		f.Send(3, 3, 0, func() {
			if eng.Now()%(2*sim.Microsecond) != 0 {
				t.Errorf("local delivery jittered: %v", eng.Now())
			}
		})
	}
	eng.RunUntilIdle()
}

func TestStatsCounters(t *testing.T) {
	eng, f := testFabric(t, DefaultConfig())
	f.Send(0, 1, 8, func() {})
	f.Send(1, 1, 16, func() {})
	f.Send(1, 0, 8, func() {})
	eng.RunUntilIdle()
	s := f.Stats()
	if s.Messages != 3 || s.Bytes != 32 || s.LocalMessages != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// TestShardedTable puts nodes 0 and 1 on one shard and node 2 on another:
// a send to node 2 is staged across shards and counted as such, and the
// counters kept per source node sum to the traffic sent.
func TestShardedTable(t *testing.T) {
	const lat = 5 * sim.Microsecond
	g := sim.NewShardGroup(1, 2, 1, lat)
	a, b := g.Shard(0), g.Shard(1)
	hs := handles(a, a, b)
	f := MustFabric(hs, Config{Latency: lat, LocalLatency: sim.Microsecond})
	var cross, same sim.Time
	hs[0].At(sim.Microsecond, func() {
		f.Send(0, 2, 8, func() { cross = b.Now() })
		f.Send(0, 1, 8, func() { same = a.Now() })
	})
	hs[2].At(sim.Microsecond, func() { f.Send(2, 2, 4, func() {}) })
	g.RunUntilIdle()
	if cross != sim.Microsecond+lat || same != sim.Microsecond+lat {
		t.Fatalf("deliveries at %v (cross-shard) and %v (same shard), want %v", cross, same, sim.Microsecond+lat)
	}
	if s := f.Stats(); s.Messages != 3 || s.Bytes != 20 || s.LocalMessages != 1 || s.CrossShardSends != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Latency: -1},
		{Jitter: -1},
		{BytesPerSecond: -5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	if _, err := NewFabric(serial(sim.NewEngine(1)), Config{Latency: -1}); err == nil {
		t.Error("NewFabric accepted bad config")
	}
	if _, err := NewFabric(nil, DefaultConfig()); err == nil {
		t.Error("NewFabric accepted an empty node table")
	}
}

// Property: delivery is never before now + base latency, and message counts
// are conserved.
func TestDeliveryMonotoneProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		eng := sim.NewEngine(5)
		fab := MustFabric(serial(eng), Config{Latency: 3 * sim.Microsecond, BytesPerSecond: 1e8, Jitter: sim.Microsecond})
		delivered := 0
		ok := true
		for _, sz := range sizes {
			sz := int(sz)
			sent := eng.Now()
			fab.Send(0, 1, sz, func() {
				delivered++
				if eng.Now() < sent+3*sim.Microsecond {
					ok = false
				}
			})
		}
		eng.RunUntilIdle()
		return ok && delivered == len(sizes) && fab.Stats().Messages == uint64(len(sizes))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchClockGlobal(t *testing.T) {
	eng := sim.NewEngine(1)
	c1 := NewSwitchClock(eng)
	c2 := NewSwitchClock(eng)
	eng.NewHandle(0).At(5*sim.Second, func() {
		if c1.Now() != c2.Now() || c1.Now() != 5*sim.Second {
			t.Errorf("switch clocks disagree: %v vs %v", c1.Now(), c2.Now())
		}
	})
	eng.RunUntilIdle()
}

func TestLocalClockOffsetAndStep(t *testing.T) {
	eng := sim.NewEngine(1)
	c := NewLocalClock(eng, 300*sim.Millisecond)
	if c.Now() != 300*sim.Millisecond {
		t.Fatalf("local clock = %v, want 300ms", c.Now())
	}
	if c.Offset() != 300*sim.Millisecond {
		t.Fatalf("offset = %v", c.Offset())
	}
	c.Step(-100 * sim.Millisecond)
	if c.Now() != 200*sim.Millisecond {
		t.Fatalf("after step = %v, want 200ms", c.Now())
	}
}

func TestDeliveryTimeMatchesSend(t *testing.T) {
	cfgs := []Config{
		{Latency: 7 * sim.Microsecond, BytesPerSecond: 1e9},
		// With jitter, DeliveryTime peeks the next per-pair message index
		// without consuming it, so predict-then-send must still agree.
		{Latency: 7 * sim.Microsecond, BytesPerSecond: 1e9, Jitter: 5 * sim.Microsecond},
	}
	for i, cfg := range cfgs {
		eng, f := testFabric(t, cfg)
		for k := 0; k < 5; k++ {
			predicted := f.DeliveryTime(0, 1, 1000)
			if again := f.DeliveryTime(0, 1, 1000); again != predicted {
				t.Fatalf("cfg %d msg %d: repeated DeliveryTime %v != %v", i, k, again, predicted)
			}
			var actual sim.Time
			f.Send(0, 1, 1000, func() { actual = eng.Now() })
			eng.RunUntilIdle()
			if predicted != actual {
				t.Fatalf("cfg %d msg %d: DeliveryTime %v != actual %v", i, k, predicted, actual)
			}
		}
	}
}

// Every jitter draw must be reproducible from (seed, src, dst, message
// index) alone: run traffic through a fabric, then recompute each message's
// delivery time from identity with no fabric or engine state at all.
func TestJitterReplayFromIdentity(t *testing.T) {
	const seed = 31
	cfg := Config{Latency: 10 * sim.Microsecond, Jitter: 6 * sim.Microsecond}
	eng := sim.NewEngine(seed)
	f := MustFabric(serial(eng), cfg)
	type msg struct {
		src, dst int
		idx      uint64
		at       sim.Time
	}
	var got []msg
	counts := map[[2]int]uint64{}
	for i := 0; i < 60; i++ {
		src, dst := i%3, (i*2+1)%3
		if src == dst {
			continue
		}
		pair := [2]int{src, dst}
		m := msg{src: src, dst: dst, idx: counts[pair]}
		counts[pair]++
		k := len(got)
		got = append(got, m)
		f.Send(src, dst, 0, func() { got[k].at = eng.Now() })
	}
	eng.RunUntilIdle()
	for _, m := range got {
		// Isolated replay: only the run seed and the message identity.
		cr := sim.NewSource(seed).CounterRand("net-jitter", uint64(m.src), uint64(m.dst), m.idx)
		want := cfg.Latency + cr.Duration(cfg.Jitter+1)
		if m.at != want {
			t.Fatalf("message (%d->%d #%d) delivered at %v, identity replay says %v",
				m.src, m.dst, m.idx, m.at, want)
		}
	}
}

// Jitter values are order-independent: interleaving traffic from another
// node pair must not perturb a pair's per-message jitter sequence.
func TestJitterOrderIndependent(t *testing.T) {
	cfg := Config{Latency: 10 * sim.Microsecond, Jitter: 9 * sim.Microsecond}
	run := func(interleave bool) []sim.Time {
		eng := sim.NewEngine(77)
		f := MustFabric(serial(eng), cfg)
		var times []sim.Time
		for i := 0; i < 30; i++ {
			f.Send(0, 1, 0, func() { times = append(times, eng.Now()) })
			if interleave {
				f.Send(2, 3, 0, func() {})
			}
		}
		eng.RunUntilIdle()
		return times
	}
	plain, mixed := run(false), run(true)
	for i := range plain {
		if plain[i] != mixed[i] {
			t.Fatalf("message %d on pair 0->1 moved from %v to %v when unrelated traffic interleaved",
				i, plain[i], mixed[i])
		}
	}
}
