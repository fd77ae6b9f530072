package sim

import (
	"math"
	"testing"
)

// Counter streams must be pure functions of (seed, key, counter): replaying
// any draw in isolation reproduces it exactly.
func TestCounterRandReplay(t *testing.T) {
	src := NewSource(42)
	full := src.CounterRand("ale3d-imbalance", 7, 13)
	var draws []uint64
	for i := 0; i < 10; i++ {
		draws = append(draws, full.Uint64())
	}
	// Replay from a fresh stream of the same identity.
	replay := src.CounterRand("ale3d-imbalance", 7, 13)
	for i, want := range draws {
		if got := replay.Uint64(); got != want {
			t.Fatalf("draw %d: replay %#x != original %#x", i, got, want)
		}
	}
	// And via a raw key, skipping the Source.
	raw := NewCounterRand(src.Key("ale3d-imbalance", 7, 13))
	if got := raw.Uint64(); got != draws[0] {
		t.Fatalf("raw-key draw %#x != original %#x", got, draws[0])
	}
}

func TestCounterRandKeySensitivity(t *testing.T) {
	src := NewSource(1)
	base := src.Key("stream", 3, 5)
	variants := []uint64{
		src.Key("stream", 3, 6),
		src.Key("stream", 4, 5),
		src.Key("stream2", 3, 5),
		src.Key("stream", 3),
		src.Key("stream", 3, 5, 0),
		NewSource(2).Key("stream", 3, 5),
	}
	seen := map[uint64]bool{base: true}
	for i, k := range variants {
		if seen[k] {
			t.Fatalf("variant %d collides (key %#x)", i, k)
		}
		seen[k] = true
	}
}

// Chi-square uniformity over 256 buckets. The 0.999 quantile of chi^2 with
// 255 degrees of freedom is ~330.5; the test is deterministic (fixed seed),
// the margin just documents how comfortably the stream passes.
func TestCounterRandUniformityChiSquare(t *testing.T) {
	const buckets = 256
	const draws = 1 << 16
	src := NewSource(20260806)
	for _, name := range []string{"net-jitter", "noise-daemon", "ale3d-imbalance"} {
		cr := src.CounterRand(name, 1, 2)
		var counts [buckets]int
		for i := 0; i < draws; i++ {
			counts[cr.Uint64()%buckets]++
		}
		expected := float64(draws) / buckets
		chi2 := 0.0
		for _, c := range counts {
			d := float64(c) - expected
			chi2 += d * d / expected
		}
		if chi2 > 330.5 {
			t.Errorf("stream %q: chi2 = %.1f > 330.5 (draws not uniform)", name, chi2)
		}
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	return sxy / math.Sqrt(sxx*syy)
}

// Streams for adjacent identities (rank r vs rank r+1, step s vs s+1) must
// be uncorrelated: the hazard in counter-based designs is that nearby keys
// produce shifted or correlated sequences.
func TestCounterRandAdjacentKeysUncorrelated(t *testing.T) {
	const n = 1 << 13
	src := NewSource(7)
	pairs := []struct {
		tag  string
		a, b CounterRand
	}{
		{"adjacent-rank", src.CounterRand("imb", 3, 10), src.CounterRand("imb", 4, 10)},
		{"adjacent-step", src.CounterRand("imb", 3, 10), src.CounterRand("imb", 3, 11)},
		{"adjacent-seed", src.CounterRand("imb", 3, 10), NewSource(8).CounterRand("imb", 3, 10)},
	}
	for _, p := range pairs {
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := 0; i < n; i++ {
			xs[i] = p.a.Float64()
			ys[i] = p.b.Float64()
		}
		// 3/sqrt(n) ~= 0.033 is a 3-sigma band for independent uniforms.
		if r := pearson(xs, ys); math.Abs(r) > 3/math.Sqrt(n) {
			t.Errorf("%s: |pearson| = %.4f exceeds 3-sigma band", p.tag, math.Abs(r))
		}
		// No value collisions either: identical sequences shifted by a lag
		// would pass a correlation test at lag 0.
		seen := make(map[uint64]bool, 2*n)
		a := p.a
		b := p.b
		collisions := 0
		for i := 0; i < n; i++ {
			if v := a.Uint64(); seen[v] {
				collisions++
			} else {
				seen[v] = true
			}
			if v := b.Uint64(); seen[v] {
				collisions++
			} else {
				seen[v] = true
			}
		}
		if collisions > 0 {
			t.Errorf("%s: %d 64-bit collisions across 2x%d draws", p.tag, collisions, n)
		}
	}
}

// Stream independence across a whole job's worth of ranks: per-rank means
// must scatter around 1/2 like independent samples, not share bias.
func TestCounterRandStreamIndependenceAcrossRanks(t *testing.T) {
	const ranks = 256
	const perRank = 512
	src := NewSource(99)
	var grand float64
	for r := 0; r < ranks; r++ {
		cr := src.CounterRand("rank-stream", uint64(r))
		var sum float64
		for i := 0; i < perRank; i++ {
			sum += cr.Float64()
		}
		mean := sum / perRank
		// Each rank's mean has stddev 1/sqrt(12*perRank) ~= 0.0128;
		// 5 sigma ~= 0.064.
		if math.Abs(mean-0.5) > 0.064 {
			t.Errorf("rank %d mean %.4f is >5 sigma from 0.5", r, mean)
		}
		grand += mean
	}
	grand /= ranks
	// Grand mean over ranks*perRank draws: stddev ~= 0.0008, 5 sigma 0.004.
	if math.Abs(grand-0.5) > 0.004 {
		t.Errorf("grand mean %.5f biased", grand)
	}
}

// Spot-check the derived samplers' contracts together.
func TestCounterRandDerivedSamplers(t *testing.T) {
	src := NewSource(5)
	cr := src.CounterRand("derived")
	for i := 0; i < 1000; i++ {
		if v := cr.Int63n(10); v < 0 || v >= 10 {
			t.Fatalf("Int63n out of range: %d", v)
		}
		if v := cr.Float64(); v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		if v := cr.Duration(50 * Microsecond); v < 0 || v >= 50*Microsecond {
			t.Fatalf("Duration out of range: %v", v)
		}
		if v := cr.Jitter(10*Millisecond, 2*Millisecond); v < 8*Millisecond || v > 12*Millisecond {
			t.Fatalf("Jitter out of range: %v", v)
		}
		if v := cr.Exp(Millisecond); v < 0 || v > 20*Millisecond {
			t.Fatalf("Exp out of range: %v", v)
		}
	}
	// Jitter with zero spread consumes no draws and returns base.
	before := cr.Counter()
	if v := cr.Jitter(3*Millisecond, 0); v != 3*Millisecond {
		t.Fatalf("zero-spread jitter = %v", v)
	}
	if cr.Counter() != before {
		t.Fatal("zero-spread jitter consumed draws")
	}
}

// Engine.CounterRand must be shard-invariant: every shard of a group
// derives the same stream for the same identity.
func TestCounterRandShardInvariant(t *testing.T) {
	g := NewShardGroup(123, 4, 1, 10*Microsecond)
	ref := g.Shard(0).CounterRand("x", 9)
	want := ref.Uint64()
	for i := 1; i < 4; i++ {
		cr := g.Shard(i).CounterRand("x", 9)
		if got := cr.Uint64(); got != want {
			t.Fatalf("shard %d draws %#x, shard 0 draws %#x", i, got, want)
		}
	}
	serial := NewEngine(123).CounterRand("x", 9)
	if got := serial.Uint64(); got != want {
		t.Fatalf("serial engine draws %#x, shard draws %#x", got, want)
	}
}

// Named streams are pure functions of (seed, name): the same pair replays
// the same sequence, and changing either one changes it.
func TestStreamDeterminism(t *testing.T) {
	a := NewSource(42).CounterRand("daemons")
	b := NewSource(42).CounterRand("daemons")
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed+name diverged at draw %d", i)
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := NewSource(42).CounterRand("daemons")
	b := NewSource(42).CounterRand("network")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("streams with different names matched %d/100 draws", same)
	}
}

func TestSeedChangesStream(t *testing.T) {
	a := NewSource(1).CounterRand("x")
	b := NewSource(2).CounterRand("x")
	if a.Uint64() == b.Uint64() && a.Uint64() == b.Uint64() {
		t.Fatal("different seeds produced identical draws")
	}
}

func TestInt63nRange(t *testing.T) {
	r := NewCounterRand(9)
	for _, n := range []int64{1, 2, 7, 1000, math.MaxInt64} {
		for i := 0; i < 200; i++ {
			v := r.Int63n(n)
			if v < 0 || v >= n {
				t.Fatalf("Int63n(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestInt63nPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int64{0, -1, math.MinInt64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Int63n(%d) did not panic", n)
				}
			}()
			r := NewCounterRand(1)
			r.Int63n(n)
		}()
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewCounterRand(5)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := NewCounterRand(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestJitter(t *testing.T) {
	r := NewCounterRand(11)
	base, spread := 100*Microsecond, 30*Microsecond
	for i := 0; i < 1000; i++ {
		v := r.Jitter(base, spread)
		if v < base-spread || v > base+spread {
			t.Fatalf("Jitter out of band: %v", v)
		}
	}
	if r.Jitter(base, 0) != base {
		t.Fatal("Jitter with zero spread must return base")
	}
	// Clamp at zero: a spread of 100 around base 1 goes negative about
	// half the time.
	clamped := 0
	for i := 0; i < 100; i++ {
		v := r.Jitter(1, 100)
		if v < 0 {
			t.Fatalf("Jitter returned negative %v", v)
		}
		if v == 0 {
			clamped++
		}
	}
	if clamped < 25 {
		t.Fatalf("Jitter(1, 100) hit 0 only %d/100 times; the clamp is not exercised", clamped)
	}
}

func TestExpMeanAndTruncation(t *testing.T) {
	r := NewCounterRand(13)
	mean := 10 * Millisecond
	var sum Time
	const n = 50000
	for i := 0; i < n; i++ {
		v := r.Exp(mean)
		if v < 0 || v > 20*mean {
			t.Fatalf("Exp out of range: %v", v)
		}
		sum += v
	}
	got := float64(sum) / n / float64(mean)
	if got < 0.9 || got > 1.1 {
		t.Fatalf("Exp sample mean/mean = %v, want ~1", got)
	}
	if r.Exp(0) != 0 {
		t.Fatal("Exp(0) must be 0")
	}
}

func TestDurationRange(t *testing.T) {
	r := NewCounterRand(17)
	for _, d := range []Time{1, 7, Second, Hour} {
		for i := 0; i < 1000; i++ {
			v := r.Duration(d)
			if v < 0 || v >= d {
				t.Fatalf("Duration(%v) out of range: %v", d, v)
			}
		}
	}
}
