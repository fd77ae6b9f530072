package sim

import "math"

// Source roots the deterministic random streams of one run at its seed.
// Every stream is a CounterRand named by a string and a stable identity
// tuple, so adding a new consumer of randomness never perturbs the values
// existing consumers draw.
type Source struct {
	seed int64
}

// NewSource returns a stream factory rooted at seed.
func NewSource(seed int64) *Source { return &Source{seed: seed} }

// CounterRand is a counter-based deterministic random stream: draw i is a
// pure function of (key, i), with the key derived from a stream name and a
// stable identity tuple (rank, timestep, message index, ...). A
// CounterRand's values depend only on identity — two runs that draw for the
// same (key, counter) get the same value no matter how event execution
// interleaves across engine shards. That property is what lets load
// imbalance, network jitter and OS-noise sampling run under the sharded
// parallel core and still match the serial engine bit for bit.
//
// The generator is the SplitMix64 sequence started at the key: draw i is
// the SplitMix64 finalizer applied to key + (i+1)*gamma with the usual odd
// constant gamma. Each draw passes every 64-bit avalanche requirement of
// the finalizer, and distinct keys index disjoint-in-practice sequences.
//
// CounterRand is a small value; create them freely at the point of use
// (typically one per (entity, step) identity) and discard them after.
type CounterRand struct {
	key uint64
	ctr uint64
}

// NewCounterRand returns the stream for a raw 64-bit key. Most callers
// should derive the key through Source.Key / Engine.CounterRand instead so
// the run seed participates.
func NewCounterRand(key uint64) CounterRand { return CounterRand{key: key} }

// Key returns the stream's key.
func (c *CounterRand) Key() uint64 { return c.key }

// Counter returns how many 64-bit draws have been consumed.
func (c *CounterRand) Counter() uint64 { return c.ctr }

// Uint64 returns draw number Counter() and advances the counter.
func (c *CounterRand) Uint64() uint64 {
	c.ctr++
	x := c.key + c.ctr*0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Int63n returns a uniform value in [0, n). Panics if n <= 0.
func (c *CounterRand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	// Rejection sampling to avoid modulo bias.
	max := uint64(math.MaxUint64) - uint64(math.MaxUint64)%uint64(n)
	for {
		if v := c.Uint64(); v < max {
			return int64(v % uint64(n))
		}
	}
}

// Intn returns a uniform value in [0, n). Panics if n <= 0.
func (c *CounterRand) Intn(n int) int { return int(c.Int63n(int64(n))) }

// Float64 returns a uniform value in [0, 1).
func (c *CounterRand) Float64() float64 { return float64(c.Uint64()>>11) / (1 << 53) }

// Duration returns a uniform simulated duration in [0, d). Panics if d <= 0.
func (c *CounterRand) Duration(d Time) Time { return Time(c.Int63n(int64(d))) }

// Jitter returns base perturbed by a uniform offset in [-spread, +spread],
// clamped to be non-negative.
func (c *CounterRand) Jitter(base, spread Time) Time {
	if spread <= 0 {
		return base
	}
	v := base + Time(c.Int63n(int64(2*spread+1))) - spread
	if v < 0 {
		return 0
	}
	return v
}

// Exp returns an exponentially distributed duration with the given mean,
// truncated at 20x the mean to keep event horizons bounded.
func (c *CounterRand) Exp(mean Time) Time {
	if mean <= 0 {
		return 0
	}
	u := c.Float64()
	// Guard u==0, which would yield +Inf.
	for u == 0 {
		u = c.Float64()
	}
	d := Time(-math.Log(u) * float64(mean))
	if limit := 20 * mean; d > limit {
		return limit
	}
	return d
}

// Key derives the counter-stream key for a named stream qualified by an
// identity tuple. The name and then the ids (byte-wise) are folded into the
// seed with FNV-style multiplies, and the result is avalanched, so adjacent
// identities (rank 3 vs rank 4, timestep 17 vs 18) land on well-separated
// keys.
func (s *Source) Key(name string, ids ...uint64) uint64 {
	h := uint64(s.seed) ^ 0x9e3779b97f4a7c15
	for _, c := range name {
		h ^= uint64(c)
		h *= 0x100000001b3
	}
	for _, id := range ids {
		for b := 0; b < 8; b++ {
			h ^= id & 0xff
			h *= 0x100000001b3
			id >>= 8
		}
	}
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	return h ^ (h >> 31)
}

// CounterRand returns the counter-based stream for (name, ids...) rooted at
// the source's seed, positioned at counter zero.
func (s *Source) CounterRand(name string, ids ...uint64) CounterRand {
	return CounterRand{key: s.Key(name, ids...)}
}
