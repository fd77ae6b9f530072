// Package network models the IBM SP switch fabric at the level the paper's
// experiments need: point-to-point message delivery with configurable
// latency, bandwidth and jitter, plus the switch's globally synchronized
// clock register and its absence (drifting node-local clocks).
package network

import (
	"fmt"

	"coschedsim/internal/sim"
)

// Config parameterizes the fabric.
type Config struct {
	// Latency is the one-way delivery latency for inter-node messages.
	Latency sim.Time

	// LocalLatency applies when source and destination rank share a node
	// (shared-memory MPI transport).
	LocalLatency sim.Time

	// BytesPerSecond adds a serialization term size/bandwidth; zero means
	// infinite bandwidth (collective payloads in the paper's benchmark are
	// 8-byte doubles, so latency dominates).
	BytesPerSecond float64

	// Jitter adds a uniform random [0, Jitter] term to every inter-node
	// delivery.
	Jitter sim.Time
}

// DefaultConfig is the SP switch as the model has always configured it:
// 24us between nodes, 2us on-node, 350 MB/s. Nothing yet checks these
// against the paper's ~350us model time of a 944-task Allreduce; a
// noise-free probe at 944 tasks read 206us at minimum (DESIGN.md §4).
func DefaultConfig() Config {
	return Config{
		Latency:        24 * sim.Microsecond,
		LocalLatency:   2 * sim.Microsecond,
		BytesPerSecond: 350e6, // ~350 MB/s SP switch-class link
		Jitter:         0,
	}
}

// Validate reports an error for unusable configurations.
func (c Config) Validate() error {
	switch {
	case c.Latency < 0 || c.LocalLatency < 0 || c.Jitter < 0:
		return fmt.Errorf("network: negative latency/jitter in %+v", c)
	case c.BytesPerSecond < 0:
		return fmt.Errorf("network: negative bandwidth in %+v", c)
	}
	return nil
}

// Lookahead returns the fabric's minimum cross-node delivery latency: every
// inter-node message arrives at least this far past its send time (bandwidth
// serialization and jitter only add). It is the conservative-PDES window
// length for per-node event shards; LocalLatency does not constrain it
// because same-node traffic never crosses a shard boundary.
func (c Config) Lookahead() sim.Time { return c.Latency }

// Stats counts fabric traffic.
type Stats struct {
	Messages      uint64
	Bytes         uint64
	LocalMessages uint64
	// CrossShardSends counts messages staged across engine shards (always
	// zero on a serial engine).
	CrossShardSends uint64
	// Dropped counts messages lost to injected link faults or partitions
	// (recorded via Drop; such messages never enter Send).
	Dropped uint64
}

// add accumulates counters (for summing per-node stats).
func (s *Stats) add(o Stats) {
	s.Messages += o.Messages
	s.Bytes += o.Bytes
	s.LocalMessages += o.LocalMessages
	s.CrossShardSends += o.CrossShardSends
	s.Dropped += o.Dropped
}

// Fabric delivers messages between nodes.
type Fabric struct {
	cfg Config
	src *sim.Source

	// engines[i] carries node i's sense of time: the one serial engine for
	// every node, or node i's shard. Counters are indexed by source node so
	// concurrent shards never write the same word; Stats sums them.
	engines  []*sim.Engine
	nodeStat []Stats

	// jitterIdx[src][dst] counts inter-node messages per ordered pair; the
	// index is part of the per-message jitter key, making each message's
	// jitter a pure function of (seed, src, dst, message number) rather
	// than of global send order. Row src is only ever touched by the engine
	// that owns node src. nil while Jitter == 0.
	jitterIdx [][]uint64
}

// NewFabric builds a fabric over the node-to-engine table: node i's
// messages originate on engines[i]'s clock, and a delivery to another
// engine is staged through their shard group. Jitter is shard-safe: each
// message's jitter is keyed by (src, dst, per-pair message index), so the
// values are independent of the order in which shards execute their sends.
func NewFabric(engines []*sim.Engine, cfg Config) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(engines) == 0 {
		return nil, fmt.Errorf("network: a fabric needs at least one node")
	}
	f := &Fabric{cfg: cfg, src: engines[0].Source(), engines: engines, nodeStat: make([]Stats, len(engines))}
	if cfg.Jitter > 0 {
		f.jitterIdx = make([][]uint64, len(engines))
		for i := range f.jitterIdx {
			f.jitterIdx[i] = make([]uint64, len(engines))
		}
	}
	return f, nil
}

// MustFabric is NewFabric for static configurations.
func MustFabric(engines []*sim.Engine, cfg Config) *Fabric {
	f, err := NewFabric(engines, cfg)
	if err != nil {
		panic(err)
	}
	return f
}

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Stats returns traffic counters summed over source nodes.
func (f *Fabric) Stats() Stats {
	var out Stats
	for i := range f.nodeStat {
		out.add(f.nodeStat[i])
	}
	return out
}

// JitterFor returns the jitter term of inter-node message number idx from
// srcNode to dstNode: a pure function of (seed, src, dst, idx), replayable
// in isolation from any run state.
func (f *Fabric) JitterFor(srcNode, dstNode int, idx uint64) sim.Time {
	cr := f.src.CounterRand("net-jitter", uint64(srcNode), uint64(dstNode), idx)
	return cr.Duration(f.cfg.Jitter + 1)
}

// DeliveryTime computes when a message sent now arrives, without sending
// it: it reads (but does not consume) the next per-pair message index, so
// a prediction followed by the Send it predicts yields the same time.
func (f *Fabric) DeliveryTime(srcNode, dstNode, size int) sim.Time {
	lat := f.cfg.Latency
	if srcNode == dstNode {
		lat = f.cfg.LocalLatency
	} else if f.cfg.Jitter > 0 {
		lat += f.JitterFor(srcNode, dstNode, f.jitterIdx[srcNode][dstNode])
	}
	if f.cfg.BytesPerSecond > 0 && size > 0 {
		lat += sim.Time(float64(size) / f.cfg.BytesPerSecond * float64(sim.Second))
	}
	return f.engines[srcNode].Now() + lat
}

// Send schedules deliver to run when a size-byte message from srcNode
// reaches dstNode. A delivery to another shard is staged into the
// destination shard's next-window inbox; the delivery time is at least
// Lookahead past the source clock, which is exactly the shard group's
// conservative guarantee.
func (f *Fabric) Send(srcNode, dstNode, size int, deliver func()) {
	if deliver == nil {
		panic("network: Send with nil deliver")
	}
	st := &f.nodeStat[srcNode]
	st.Messages++
	st.Bytes += uint64(size)
	if srcNode == dstNode {
		st.LocalMessages++
	}
	src, dst := f.engines[srcNode], f.engines[dstNode]
	if src != dst {
		st.CrossShardSends++
	}
	when := f.DeliveryTime(srcNode, dstNode, size)
	if f.cfg.Jitter > 0 && srcNode != dstNode {
		f.jitterIdx[srcNode][dstNode]++
	}
	src.ScheduleOn(dst, when, deliver)
}

// Drop records a message lost to an injected fault before it could be sent.
// The loss is decided upstream (by a fault model, before Send), so no jitter
// index is consumed: the jitter of surviving messages is unchanged by drops,
// keeping faulty runs shard-order independent. Counters are per source
// node, like Send's.
func (f *Fabric) Drop(srcNode, dstNode, size int) {
	f.nodeStat[srcNode].Dropped++
}

// Clock is a time source as seen by one node. The co-scheduler aligns its
// scheduling windows to *its* clock; whether windows line up across nodes
// depends on which clock implementation the cluster uses.
type Clock interface {
	// Now returns the node's current idea of the time.
	Now() sim.Time
}

// SwitchClock is the SP switch's globally synchronized time register: every
// node reads identical values, so window boundaries align cluster-wide.
type SwitchClock struct {
	eng *sim.Engine
}

// NewSwitchClock returns the global clock.
func NewSwitchClock(eng *sim.Engine) *SwitchClock { return &SwitchClock{eng: eng} }

// Now implements Clock.
func (c *SwitchClock) Now() sim.Time { return c.eng.Now() }

// LocalClock is an unsynchronized node clock offset from true time, as when
// the switch register is unavailable and NTP has been turned off. Offsets of
// up to ±0.5s model second-boundary alignment without a common epoch.
type LocalClock struct {
	eng    *sim.Engine
	offset sim.Time
}

// NewLocalClock returns a node clock reading eng time + offset.
func NewLocalClock(eng *sim.Engine, offset sim.Time) *LocalClock {
	return &LocalClock{eng: eng, offset: offset}
}

// Now implements Clock.
func (c *LocalClock) Now() sim.Time { return c.eng.Now() + c.offset }

// Offset returns the clock's error relative to true (switch) time.
func (c *LocalClock) Offset() sim.Time { return c.offset }

// Step adjusts the clock error by d (failure injection: clock steps mid-run).
func (c *LocalClock) Step(d sim.Time) { c.offset += d }
