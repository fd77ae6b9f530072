package mpi

import (
	"fmt"

	"coschedsim/internal/kernel"
	"coschedsim/internal/sim"
)

// msgKey identifies a match point: messages match on (source, tag), as in
// MPI with a fixed communicator.
type msgKey struct {
	src int
	tag int
}

// message is an in-flight or queued payload.
type message struct {
	value float64
	bytes int
}

// arrival is one early-arrived message awaiting its receive. Early arrivals
// are kept in a small per-rank list in delivery order instead of a
// map[msgKey][]message: collective tags never repeat (the sequence counter
// advances every collective), so map keys were inserted and deleted at
// message rate — the dominant allocation site of the whole simulator at
// scale. The list's backing array is reused forever; matching scans
// linearly, which is cheap because a rank has at most a handful of
// outstanding arrivals (recursive doubling keeps O(log N) in flight, and
// in practice the list rarely exceeds one or two entries). Scanning from
// the front preserves FIFO matching per key, because append order is
// delivery order.
type arrival struct {
	key msgKey
	msg message
}

// Rank is one MPI task: a kernel thread bound to a CPU plus the library
// state (pending arrivals, pending receive, collective sequence counter).
// Ranks live in the Job's flat ranks array (struct-of-arrays layout): one
// contiguous allocation for the whole job instead of a pointer slice of
// thousands of individually heap-allocated rank objects. Rank pointers are
// stable only once Launch has frozen the array, which is why every
// continuation is bound at Launch time, never at AddRank time.
//
// The point-to-point hot paths (Send, Recv, SendRecv) stage their per-call
// arguments in rank fields and hand the scheduler continuations that were
// bound once at launch, instead of allocating fresh closures per message.
// This is safe because a rank performs at most one communication call at a
// time (continuation-passing style serializes them); each bound
// continuation copies the staged fields to locals before invoking user code,
// so a nested call may re-stage them freely.
type Rank struct {
	job  *Job
	id   int
	node *kernel.Node

	thread   *kernel.Thread
	progress *kernel.Thread

	pending []arrival // early arrivals in delivery order, backing array reused

	// Pending receive (at most one per rank, MPI semantics).
	recvArmed bool
	recvKey   msgKey
	recvGot   message
	recvThen  func(float64)
	recvWait  func() // bound: runs when the wait ends; charges RecvOverhead
	recvDone  func() // bound: invokes recvThen(recvGot.value)

	// Staged Send arguments.
	sendDst   int
	sendTag   int
	sendValue float64
	sendBytes int
	sendThen  func()
	sendStep  func() // bound: body of the SendOverhead burst

	// Staged SendRecv chain.
	srPeer     int
	srTag      int
	srThen     func(float64)
	srRecvStep func() // bound: posts the Recv after the Send completes

	coll collState // reusable collective state machine (continuations bound on first use)

	// deliveryPool recycles in-flight delivery records (see delivery); it
	// is per rank so each pool stays on one engine shard.
	deliveryPool []*delivery
	// p2pSends counts messages this rank sent (summed by Job.P2PSends). It
	// doubles as the per-rank send index identifying each logical message
	// to the fault model (retransmits of one message share its index).
	p2pSends uint64

	// Fault state: dropped/retries count this rank's lost attempts and
	// retransmits (per rank, so shards never share a counter); failed marks
	// a rank terminated by fault or abort; failAbort is the bound
	// abort-broadcast continuation.
	dropped   uint64
	retries   uint64
	failed    bool
	failAbort func()

	collSeq int
	done    bool
}

// bindHotPaths builds the per-rank continuations reused by every Send/Recv.
// Called from Launch, once the rank array can no longer move.
func (r *Rank) bindHotPaths() {
	r.recvDone = func() {
		then, v := r.recvThen, r.recvGot.value
		r.recvThen = nil
		then(v)
	}
	r.recvWait = func() {
		r.thread.Run(r.job.cfg.RecvOverhead, r.recvDone)
	}
	r.sendStep = func() {
		dst, tag, then := r.sendDst, r.sendTag, r.sendThen
		msg := message{value: r.sendValue, bytes: r.sendBytes}
		r.sendThen = nil
		r.p2pSends++
		target := &r.job.ranks[dst]
		d := r.newDelivery(target, msgKey{src: r.id, tag: tag}, msg)
		if r.job.faults == nil {
			r.job.fabric.Send(r.node.ID(), target.node.ID(), msg.bytes, d.fire)
		} else {
			r.trySend(target, msg.bytes, r.p2pSends-1, d.fire)
		}
		then()
	}
	r.srRecvStep = func() {
		then := r.srThen
		r.srThen = nil
		r.Recv(r.srPeer, r.srTag, then)
	}
	r.failAbort = func() { r.fail(false) }
}

// trySend pushes one logical message (identity idx) through the fault
// model: a dropped attempt is retried after an exponentially backed-off
// timeout up to Config.SendRetries times; exhausting the budget (or any
// drop when the budget is zero) is a fatal loss that aborts the whole job
// after the detection latency. Only called when a fault model is installed.
func (r *Rank) trySend(target *Rank, bytes int, idx uint64, deliver func()) {
	j := r.job
	sched := r.node.Sched()
	attempt := uint64(0)
	var attemptFn func()
	attemptFn = func() {
		if r.failed {
			return // the rank died while backing off
		}
		if attempt > 0 {
			r.retries++ // counted when made, not when scheduled
		}
		if !j.faults.DropMessage(sched.Now(), r.node.ID(), target.node.ID(), r.id, idx, attempt) {
			j.fabric.Send(r.node.ID(), target.node.ID(), bytes, deliver)
			return
		}
		j.fabric.Drop(r.node.ID(), target.node.ID(), bytes)
		r.dropped++
		if attempt >= uint64(j.cfg.SendRetries) {
			j.abortFrom(sched)
			return
		}
		attempt++
		sched.After(j.cfg.SendTimeout<<(attempt-1), attemptFn)
	}
	attemptFn()
}

// fail terminates the rank abruptly: crash victim (lost=true) or collective
// abort (lost=false). Idempotent; safe at any point of the rank's protocol
// state machine. The final fail accounts the rank like Done so job teardown
// (OnComplete, engine stop) still fires.
func (r *Rank) fail(lost bool) {
	if r.done {
		return
	}
	r.done = true
	r.failed = true
	j := r.job
	j.failed.Add(1)
	if lost {
		j.lostRanks.Add(1)
	} else {
		j.abortedRanks.Add(1)
	}
	if r.coll.then != nil || r.coll.bThen != nil {
		// Mid-collective: peers were counting on this rank's messages.
		j.collAborted.Add(1)
		r.coll.then, r.coll.bThen = nil, nil
	}
	r.recvArmed = false
	r.recvThen = nil
	r.sendThen = nil
	r.srThen = nil
	if r.progress != nil && r.progress.State() != kernel.StateExited {
		r.progress.Kill()
	}
	if r.thread.State() != kernel.StateExited {
		r.thread.Kill()
	}
	j.rankDone(r)
}

// Failed reports whether the rank was terminated by a fault or abort.
func (r *Rank) Failed() bool { return r.failed }

// ID returns the rank number (0-based).
func (r *Rank) ID() int { return r.id }

// Size returns the job size (number of ranks).
func (r *Rank) Size() int { return len(r.job.ranks) }

// Node returns the node this rank runs on.
func (r *Rank) Node() *kernel.Node { return r.node }

// Thread returns the rank's kernel thread. Programs use it for Run/Sleep
// between communication calls.
func (r *Rank) Thread() *kernel.Thread { return r.thread }

// ProgressThread returns the rank's MPI timer thread, or nil when the
// progress engine is disabled.
func (r *Rank) ProgressThread() *kernel.Thread { return r.progress }

// Now returns the current simulated time as this rank's node sees it
// (convenience for timing loops). Under the sharded core each node rides
// its own engine shard, so the rank must read its own node's clock.
func (r *Rank) Now() sim.Time { return r.node.Engine().Now() }

// Compute consumes d of CPU time, then continues. It is the "computation
// phase" primitive of the bulk-synchronous model.
func (r *Rank) Compute(d sim.Time, then func()) {
	r.thread.Run(d, then)
}

// Done finishes the rank (MPI_Finalize + process exit).
func (r *Rank) Done() {
	if r.done {
		panic(fmt.Sprintf("mpi: rank %d Done twice", r.id))
	}
	r.done = true
	r.job.rankDone(r)
	r.thread.Exit()
}

// Detach asks the co-scheduler to stop boosting this task (the paper's
// escape mechanism for I/O phases). then continues after the small control
// pipe write. No-op without a registry.
func (r *Rank) Detach(then func()) {
	r.controlPipe(func() {
		if r.job.registry != nil {
			r.job.registry.DetachProcess(r.node, r.thread.Proc)
		}
	}, then)
}

// Attach re-enrolls the task with the co-scheduler.
func (r *Rank) Attach(then func()) {
	r.controlPipe(func() {
		if r.job.registry != nil {
			r.job.registry.AttachProcess(r.node, r.thread.Proc)
		}
	}, then)
}

// EnterFineGrain announces a fine-grain region to the co-scheduler (the
// paper's §7 mechanism). A no-op when the registry does not support hints.
func (r *Rank) EnterFineGrain(then func()) {
	r.controlPipe(func() {
		if fg, ok := r.job.registry.(FineGrainRegistry); ok {
			fg.EnterFineGrain(r.node, r.thread.Proc)
		}
	}, then)
}

// ExitFineGrain ends a fine-grain region.
func (r *Rank) ExitFineGrain(then func()) {
	r.controlPipe(func() {
		if fg, ok := r.job.registry.(FineGrainRegistry); ok {
			fg.ExitFineGrain(r.node, r.thread.Proc)
		}
	}, then)
}

// controlPipe charges a small CPU cost for the pipe write, performs the
// action, and continues.
func (r *Rank) controlPipe(action func(), then func()) {
	r.thread.Run(2*sim.Microsecond, func() {
		action()
		then()
	})
}

// Send posts a bytes-sized message carrying value to rank dst under tag,
// then continues. The send overhead is charged to this rank's CPU; delivery
// is asynchronous.
func (r *Rank) Send(dst, tag int, value float64, bytes int, then func()) {
	if dst < 0 || dst >= len(r.job.ranks) {
		panic(fmt.Sprintf("mpi: rank %d Send to invalid rank %d", r.id, dst))
	}
	r.sendDst, r.sendTag, r.sendValue, r.sendBytes, r.sendThen = dst, tag, value, bytes, then
	r.thread.Run(r.job.cfg.SendOverhead, r.sendStep)
}

// takePending removes and returns the oldest arrival matching key.
// Removal shifts the tail left in place, preserving delivery order (and so
// FIFO matching per key) without allocating.
func (r *Rank) takePending(key msgKey) (message, bool) {
	for i := range r.pending {
		if r.pending[i].key == key {
			msg := r.pending[i].msg
			copy(r.pending[i:], r.pending[i+1:])
			r.pending = r.pending[:len(r.pending)-1]
			return msg, true
		}
	}
	return message{}, false
}

// Recv waits for a message from src under tag and continues with its value.
// If the message already arrived it completes after the receive overhead;
// otherwise the task spin-waits, as IBM MPI's default poll mode does: it
// holds its CPU while "waiting", and the scheduler decides when it runs
// again — this is precisely where OS noise injects latency.
func (r *Rank) Recv(src, tag int, then func(value float64)) {
	key := msgKey{src: src, tag: tag}
	if msg, ok := r.takePending(key); ok {
		r.recvGot, r.recvThen = msg, then
		r.thread.Run(r.job.cfg.RecvOverhead, r.recvDone)
		return
	}
	if r.recvArmed {
		panic(fmt.Sprintf("mpi: rank %d has two pending receives", r.id))
	}
	r.recvArmed = true
	r.recvKey = key
	r.recvThen = then
	r.thread.SpinWait(r.recvWait)
}

// deliver runs at message arrival (interrupt context): hand the payload to
// a matching spinning receive, or queue it as an early arrival.
func (r *Rank) deliver(key msgKey, msg message) {
	if r.recvArmed && r.recvKey == key {
		r.recvArmed = false
		r.recvGot = msg
		r.thread.Signal()
		return
	}
	r.pending = append(r.pending, arrival{key: key, msg: msg})
}

// SendRecv exchanges with a partner: post the send, then wait for the
// partner's message (the building block of recursive doubling).
func (r *Rank) SendRecv(peer, tag int, value float64, bytes int, then func(recv float64)) {
	r.srPeer, r.srTag, r.srThen = peer, tag, then
	r.Send(peer, tag, value, bytes, r.srRecvStep)
}
