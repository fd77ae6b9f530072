package sim

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// crossEntry is one event staged for another shard during a window, with
// its sender's key. Entries accumulate in the source shard's outbox and are
// merged into the destination queue at the window barrier.
type crossEntry struct {
	when, sent Time // due and send times
	key        uint64
	fn         func()
}

// GroupStats counts a ShardGroup's window machinery. All fields except
// BarrierStallNs are deterministic for a given simulation; BarrierStallNs
// is wall-clock and diagnostic only.
type GroupStats struct {
	// Windows is the number of conservative time windows executed.
	Windows uint64
	// ParallelWindows counts windows dispatched to the worker pool (the
	// bounds of at least two shards lay inside the window and the group has
	// two workers; any other window runs inline).
	ParallelWindows uint64
	// ActiveShardWindows sums, over windows, the number of shards that fired
	// at least one event inside the window — ActiveShardWindows/Windows is
	// the mean available parallelism of the run.
	ActiveShardWindows uint64
	// CrossShardEvents is the number of events staged across shards and
	// merged at window barriers.
	CrossShardEvents uint64
	// BarrierStallNs is wall-clock time window participants spent waiting
	// at window barriers while a slower participant finished (load
	// imbalance): the sum over participants of (lastFinish - ownFinish).
	// Only goroutines that executed shards in the window count — parked
	// pool workers do not accrue stall.
	BarrierStallNs int64
}

// ShardGroup coordinates per-node engine shards under conservative
// time-window parallel execution. All shards share one seed, so any named
// random stream drawn from any shard reproduces the serial engine's stream
// exactly (streams are pure functions of seed and name).
//
// The execution model: every window starts at a lower bound T on the
// globally earliest pending event time and spans [T, T+lookahead). Shards
// that may hold events inside the window execute concurrently on a bounded
// worker pool; events they schedule for other shards are staged in
// per-destination outboxes, because
// the lookahead (the fabric's minimum cross-node delivery latency)
// guarantees those events land at or beyond the window end. At the barrier
// the coordinator merges each destination's staged entries, each keyed as
// its sender keyed it (see Engine): the merged queue's order does not
// depend on the merge's, so the whole simulation is identical at any worker
// count, including one, and matches the serial engine's.
type ShardGroup struct {
	shards    []*Engine
	lookahead Time
	workers   int

	stopped atomic.Bool
	stats   GroupStats

	// Wall-clock deadline (0 = none), checked between windows: the window in
	// flight always completes, so a deadline exit leaves the same canonical
	// barrier state as a Stop.
	deadlineNs  int64
	deadlineHit bool

	next   []Time    // a lower bound on each shard's next event time, Forever when idle
	active []*Engine // shards whose bound lies inside the current window
}

// NewShardGroup builds n wheel-backed engine shards sharing seed, executed
// by up to workers goroutines per window. lookahead is the conservative
// window length: the model must guarantee every cross-shard event is
// scheduled at least lookahead past the scheduling shard's current time.
func NewShardGroup(seed int64, n, workers int, lookahead Time) *ShardGroup {
	if n <= 0 {
		panic("sim: ShardGroup needs at least one shard")
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: ShardGroup lookahead must be positive, got %v", lookahead))
	}
	if workers < 1 {
		workers = 1
	}
	g := &ShardGroup{lookahead: lookahead, workers: workers, next: make([]Time, n)}
	g.shards = make([]*Engine, n)
	ids := new([]uint64)
	for i := range g.shards {
		e := NewEngineWithCore(seed, CoreWheel)
		e.ids = ids
		e.group = g
		e.shard = i
		e.outbox = make([][]crossEntry, n)
		g.shards[i] = e
	}
	return g
}

// Shard returns shard i's engine. Model components owned by node i must
// schedule exclusively through this engine.
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Workers returns the worker budget windows are executed with.
func (g *ShardGroup) Workers() int { return g.workers }

// Lookahead returns the conservative window length.
func (g *ShardGroup) Lookahead() Time { return g.lookahead }

// Stats returns the window-machinery counters. Call between or after runs.
func (g *ShardGroup) Stats() GroupStats { return g.stats }

// Fired sums events fired across all shards.
func (g *ShardGroup) Fired() uint64 {
	var n uint64
	for _, sh := range g.shards {
		n += sh.fired
	}
	return n
}

// Pending sums pending events across all shards.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, sh := range g.shards {
		n += sh.live
	}
	return n
}

// Stop ends the run at the next window barrier. Safe to call from event
// callbacks on any shard; the window in flight always completes, so the
// simulation state at exit does not depend on worker scheduling.
func (g *ShardGroup) Stop() { g.stopped.Store(true) }

// SetWallDeadline arms a real-time budget for Run, checked at window
// barriers: once the wall clock passes t the run exits and WallDeadlineHit
// reports true. Zero time disarms it.
func (g *ShardGroup) SetWallDeadline(t time.Time) {
	if t.IsZero() {
		g.deadlineNs = 0
		return
	}
	g.deadlineNs = t.UnixNano()
}

// WallDeadlineHit reports whether a Run was cut short by SetWallDeadline.
func (g *ShardGroup) WallDeadlineHit() bool { return g.deadlineHit }

// pastDeadline checks the wall-clock budget between windows.
func (g *ShardGroup) pastDeadline() bool {
	if g.deadlineNs != 0 && time.Now().UnixNano() > g.deadlineNs {
		g.deadlineHit = true
		return true
	}
	return false
}

// Stopped reports whether Stop was called.
func (g *ShardGroup) Stopped() bool { return g.stopped.Load() }

// nextWindow finds the next window [start, end) covering events with
// when <= until and collects the shards that may hold events inside it into
// g.active. ok is false when no such window exists.
//
// start is the least of the shards' lower bounds on their next event time
// (wheel.earliest). Reading a bound moves no frontier, so a shard's frontier
// stays within a slot of its window end, and what the shard schedules and
// what is merged into it land in near slots, sorted once. A bound below the
// real event is enough: every event lies at or after start, so every
// cross-shard send lands at or after end; and an active shard leaves the
// window with its bound at or after end, so windows make progress. A window
// may fire nothing when a bound lies below the real next event.
func (g *ShardGroup) nextWindow(until Time) (end Time, ok bool) {
	start := Forever
	for i, sh := range g.shards {
		g.next[i] = sh.wheel.earliest()
		start = min(start, g.next[i])
	}
	if start == Forever || start > until {
		return 0, false
	}
	end = start + g.lookahead
	if end <= start || end > until {
		end = min(until, Forever-1) + 1 // Run semantics: fire events with when <= until
	}
	g.active = g.active[:0]
	for i, w := range g.next {
		if w < end {
			g.active = append(g.active, g.shards[i])
		}
	}
	return end, true
}

// Run executes events until every queue is empty, the group is stopped, or
// the next event lies strictly after until. It returns the number of events
// fired by this call. Run must only be called from one goroutine at a time.
//
// A window's participants are its active shards (those whose bound lies
// inside it, see nextWindow), capped by the dispatch width: the configured
// budget, clamped to the shard count and to the machine. Workers beyond
// GOMAXPROCS cannot run concurrently anyway — they only queue behind each
// other and inflate barrier-stall accounting (a 4-worker group on a 1-core
// box used to report ~3x the busy time as "stall" that was pure
// oversubscription). A window with one participant runs inline on the
// calling goroutine; any other goes to the pool.
func (g *ShardGroup) Run(until Time) uint64 {
	startFired := g.Fired()
	w := min(g.workers, runtime.GOMAXPROCS(0), len(g.shards))

	// The coordinator participates as a worker, so only w-1 pool goroutines
	// exist, and they park on the wake channel between windows instead of
	// being fed per-shard jobs. Within a window, participants claim active
	// shards through an atomic cursor.
	var (
		act      []*Engine
		end      Time
		cursor   atomic.Int64 // next index in act to claim
		pids     atomic.Int64 // participant finish-slot allocator
		busy     atomic.Int64 // shards in act that fired an event
		finishNs = make([]int64, w)
		wg       sync.WaitGroup
	)
	claim := func(t0 time.Time) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(act) {
				break
			}
			if act[i].runWindow(end) > 0 {
				busy.Add(1)
			}
		}
		finishNs[pids.Add(1)-1] = time.Since(t0).Nanoseconds()
	}
	wake := make(chan time.Time, w)
	defer close(wake)
	for i := 1; i < w; i++ {
		go func() {
			for t0 := range wake {
				claim(t0)
				wg.Done()
			}
		}()
	}
	for !g.stopped.Load() && !g.pastDeadline() {
		var ok bool
		if end, ok = g.nextWindow(until); !ok {
			break
		}
		act = g.active
		if participants := min(w, len(act)); participants == 1 {
			for _, sh := range act {
				if sh.runWindow(end) > 0 {
					busy.Add(1)
				}
			}
		} else {
			t0 := time.Now()
			cursor.Store(0)
			pids.Store(0)
			wg.Add(participants - 1)
			for i := 1; i < participants; i++ {
				wake <- t0
			}
			claim(t0)
			wg.Wait()
			var maxNs, sumNs int64
			for _, f := range finishNs[:participants] {
				sumNs += f
				maxNs = max(maxNs, f)
			}
			if stall := int64(participants)*maxNs - sumNs; stall > 0 {
				g.stats.BarrierStallNs += stall
			}
			g.stats.ParallelWindows++
		}
		g.stats.ActiveShardWindows += uint64(busy.Swap(0))
		g.mergeOutboxes()
		g.stats.Windows++
	}
	return g.Fired() - startFired
}

// RunUntilIdle executes events until none remain or the group is stopped.
func (g *ShardGroup) RunUntilIdle() uint64 { return g.Run(Forever) }

// mergeOutboxes drains every shard's staged cross-shard events into the
// destination queues, each with its send time and sender's key.
func (g *ShardGroup) mergeOutboxes() {
	for di, dst := range g.shards {
		for _, src := range g.shards {
			ob := src.outbox[di]
			for k, ce := range ob {
				dst.at(ce.when, ce.sent, ce.key, ce.fn)
				ob[k] = crossEntry{} // release the closure references
			}
			g.stats.CrossShardEvents += uint64(len(ob))
			src.outbox[di] = ob[:0]
		}
	}
}
