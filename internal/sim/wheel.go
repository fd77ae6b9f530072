package sim

import (
	"math/bits"
	"slices"
)

// Hierarchical timer wheel. Two 256-slot wheels cover the near future —
// 4.096us slots out to ~1.05ms, then 1.049ms slots out to ~268ms — and a
// 4-ary heap holds the far overflow (multi-minute cron jobs, hour-scale
// timeouts). Scheduling, lazy cancellation and rescheduling are O(1): an
// entry is appended to an unordered slot list.
//
// Ordering is done once per near slot, not once per event. When the
// frontier advances over a near slot, the slot's live entries are copied
// into the "run" and sorted in entry.before order; popping is then a cursor
// step.
// A slot is not sparse: every rank of an Allreduce round acts at the same
// instant, so a drained slot holds tens of live entries (README,
// Performance, gives the counts). The sort is a stable counting pass by
// 64ns sub-slot (skipped when the sub-slots already arrive in order), then
// an insertion pass that fixes what is left: entries that cascaded in from
// the far wheel behind newer direct inserts for the same instant, or
// several instants sharing a sub-slot. On that traffic the insertion pass
// moves fewer entries than it visits; a move budget caps it, past which it
// falls back to a full sort. Each stage pays for itself: dropping the
// counting pass, the insertion pass or both ran enginebench's jittered
// Allreduce scenario (jitter-8) 15-30% slower.
//
// An entry scheduled below the frontier (a handler scheduling at or just
// after now, or a cross-shard delivery merged there) is appended to the
// run when it sorts after the run's last entry, as it does whenever it is
// due later, or due at the same time and scheduled later. Otherwise it is
// shifted into the run when its place lies at most runShift entries from
// the run's head or tail. Such entries are common: nodes schedule at one
// instant in the order their own events fire, not in key order. Serial
// fig3 at 16 nodes shifts 5.9M entries into the run, none more than 127
// from an end; at 48 nodes none lies more than 255 from an end.
// Anything else goes to a small "late" heap, and the earliest pending entry
// is the smaller of the run's head and the late heap's top.
// The late heap keeps such an insert O(log n) even when the frontier has
// leapt far ahead of the clock, as an unbounded peek past an idle stretch
// leaves it (Engine.Run stopping at until). A shard's window peek is bounded
// by the window end (see advance), so its frontier stays within a slot of
// the clock and what is scheduled or merged into it lands in near slots.
//
// Invariants:
//   - frontier is a multiple of the near slot width; every pending entry
//     with when < frontier is in run[next:] or in late, and run[next:] is
//     sorted in entry.before order.
//   - entries with slot(when) in [frontier's slot, +256) are in near;
//     entries with farSlot(when) in [frontier's far slot, +256) are in far;
//     everything later is in overflow.
//   - near/far slot lists are unordered; nearCount/farCount count their
//     entries including stale ones, so emptiness checks are exact.
const (
	nearShift  = 12 // 2^12 ns = 4.096us per near slot
	wheelBits  = 8  // 256 slots per level
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
	farShift   = nearShift + wheelBits // 2^20 ns = 1.049ms per far slot

	nearSlotWidth = Time(1) << nearShift

	// sortRun's counting pass splits a near slot into 64 sub-slots of 64ns.
	subShift = nearShift - 6
	subSlots = 1 << (nearShift - subShift)

	// runMoveBudget bounds sortRun's insertion pass at this many moves per
	// entry before it falls back to a full sort.
	runMoveBudget = 8

	// runShift bounds how many run entries insertBelow moves, 8KB, to
	// place an entry due below the frontier in the run. At 128, serial
	// fig3 at 48 nodes ran 5% slower.
	runShift = 256

	// slotChunkEntries sizes a slot chunk so the whole struct (16-byte
	// header + entries) fits Go's 2048-byte allocation class exactly.
	slotChunkEntries = 63
)

// slotChunk is one fixed-size block of a slot's entry list. Slot lists are
// unordered, so chunks only ever append and are drained whole; emptied
// chunks return to the wheel's shared spare list. Sharing is the point: at
// high node counts a single 4.096us slot can hold thousands of entries (an
// Allreduce round schedules every rank within one slot), and per-slot
// growable arrays would both pay a doubling-growth chain on every burst and
// pin each slot at its own high-water mark. Chunks make the burst's storage
// follow the burst across slots as the frontier advances — steady-state
// slot storage is bounded by the peak number of simultaneously pending
// entries, not by (slots x largest burst).
type slotChunk struct {
	next *slotChunk
	n    int
	ents [slotChunkEntries]entry
}

// slotList is a chunked slot: append at tail, drain whole.
type slotList struct {
	head, tail *slotChunk
}

type wheel struct {
	frontier  Time    // slot-aligned; run[next:] and late hold everything below it
	run       []entry // entries below the frontier in entry.before order; run[:next] are consumed
	next      int
	late      entryHeap // entries below the frontier that sort before the run's last entry
	scratch   []entry   // sortRun's counting-pass output, swapped with run
	near      [wheelSlots]slotList
	far       [wheelSlots]slotList
	nearBits  [wheelSlots / 64]uint64
	farBits   [wheelSlots / 64]uint64
	nearCount int
	farCount  int
	overflow  entryHeap
	spare     *slotChunk // emptied chunks, shared by every slot of both wheels
}

// slotPush appends an entry to a slot, extending it with a spare (or new)
// chunk when the tail is full.
func (w *wheel) slotPush(sl *slotList, en entry) {
	t := sl.tail
	if t == nil || t.n == slotChunkEntries {
		c := w.spare
		if c != nil {
			w.spare = c.next
			c.next = nil
		} else {
			c = new(slotChunk)
		}
		if t == nil {
			sl.head = c
		} else {
			t.next = c
		}
		sl.tail = c
		t = c
	}
	t.ents[t.n] = en
	t.n++
}

// insert places an entry into the level its time belongs to.
func (w *wheel) insert(en entry) {
	t := en.when
	if t < w.frontier {
		w.insertBelow(en)
		return
	}
	slot := t >> nearShift
	if slot-(w.frontier>>nearShift) < wheelSlots {
		i := slot & wheelMask
		w.slotPush(&w.near[i], en)
		w.nearBits[i>>6] |= 1 << (uint(i) & 63)
		w.nearCount++
		return
	}
	fslot := t >> farShift
	if fslot-(w.frontier>>farShift) < wheelSlots {
		i := fslot & wheelMask
		w.slotPush(&w.far[i], en)
		w.farBits[i>>6] |= 1 << (uint(i) & 63)
		w.farCount++
		return
	}
	w.overflow.push(en)
}

// insertBelow places an entry due below the frontier: at the run's tail,
// shifted into the run from its nearer end (at the head into the consumed
// cell before it), or, more than runShift entries from both ends, on the
// late heap.
func (w *wheel) insertBelow(en entry) {
	run, next := w.run, w.next
	n := len(run)
	if n == next || run[n-1].before(en) {
		w.run = append(run, en)
		return
	}
	// k is the first index in run[next:n-1] whose entry sorts after en.
	lo, hi := next, n-1
	for lo < hi {
		if mid := int(uint(lo+hi) >> 1); en.before(run[mid]) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	k := lo
	switch {
	case next > 0 && k-next <= runShift && k-next <= n-k:
		copy(run[next-1:], run[next:k])
		run[k-1] = en
		w.next--
	case n-k <= runShift:
		run = append(run, entry{})
		copy(run[k+1:], run[k:n])
		run[k] = en
		w.run = run
	default:
		w.late.push(en)
	}
}

// drainSlot empties a slot list, calling fire for each entry (live or not —
// the caller filters) and recycling every chunk onto the spare list. Chunks
// are released one at a time, after their entries have been visited, so
// fire may itself pull chunks from the spare list (cascadeFar re-inserts
// into near slots mid-drain).
func (w *wheel) drainSlot(sl *slotList, fire func(entry)) int {
	drained := 0
	c := sl.head
	sl.head, sl.tail = nil, nil
	for c != nil {
		for j := 0; j < c.n; j++ {
			fire(c.ents[j])
			c.ents[j] = entry{} // release the *Event reference
		}
		drained += c.n
		next := c.next
		c.n = 0
		c.next = w.spare
		w.spare = c
		c = next
	}
	return drained
}

// drainNear moves near slot index i's live entries into the empty run and
// sorts it, dropping stale entries.
func (w *wheel) drainNear(i int) {
	w.nearBits[i>>6] &^= 1 << (uint(i) & 63)
	w.nearCount -= w.drainSlot(&w.near[i], func(en entry) {
		if en.live() {
			w.run = append(w.run, en)
		}
	})
	w.sortRun()
}

// sortRun orders the run, one near slot's entries in the order they entered
// the slot, by entry.before.
func (w *wheel) sortRun() {
	run := w.run
	if len(run) < 2 {
		return
	}
	// Stable counting pass by sub-slot, skipped when the sub-slots already
	// arrive in order. Afterwards only entries sharing a sub-slot can be out
	// of order.
	var start [subSlots + 1]int32
	inOrder, prev := true, Time(0)
	for _, en := range run {
		s := en.when >> subShift & (subSlots - 1)
		start[s+1]++
		inOrder = inOrder && s >= prev
		prev = s
	}
	if !inOrder {
		for s := 1; s < subSlots; s++ {
			start[s] += start[s-1]
		}
		out := slices.Grow(w.scratch[:0], len(run))[:len(run)]
		for _, en := range run {
			s := en.when >> subShift & (subSlots - 1)
			out[start[s]] = en
			start[s]++
		}
		clear(run) // release the *Event references
		w.run, w.scratch, run = out, run[:0], out
	}

	// Insertion pass over what is left, bounded by a move budget.
	moves, budget := 0, runMoveBudget*len(run)
	for j := 1; j < len(run); j++ {
		en := run[j]
		k := j
		for ; k > 0 && en.before(run[k-1]); k-- {
			run[k] = run[k-1]
		}
		run[k] = en
		if moves += j - k; moves > budget {
			slices.SortFunc(run, entry.compare)
			return
		}
	}
}

// cascadeFar redistributes far slot index i into the near wheel (which, at
// the moment of the call, exactly spans that far slot's time range).
func (w *wheel) cascadeFar(i int) {
	w.farBits[i>>6] &^= 1 << (uint(i) & 63)
	w.farCount -= w.drainSlot(&w.far[i], func(en entry) {
		if en.live() {
			w.insert(en)
		}
	})
}

// drainOverflow admits overflow entries that now fall within the far
// horizon of the current frontier.
func (w *wheel) drainOverflow() {
	horizon := (uint64(w.frontier>>farShift) + wheelSlots) << farShift
	for len(w.overflow) > 0 {
		top := w.overflow[0]
		if !top.live() {
			w.overflow.pop()
			continue
		}
		if uint64(top.when) >= horizon {
			return
		}
		w.insert(w.overflow.pop())
	}
}

// nextBit scans a 256-slot bitmap for the first set bit at index >= from,
// returning wheelSlots if none.
func nextBit(bm *[wheelSlots / 64]uint64, from int) int {
	word := from >> 6
	if b := bm[word] >> (uint(from) & 63); b != 0 {
		return from + bits.TrailingZeros64(b)
	}
	for word++; word < len(bm); word++ {
		if bm[word] != 0 {
			return word<<6 + bits.TrailingZeros64(bm[word])
		}
	}
	return wheelSlots
}

// advance resets the consumed run and moves the frontier forward until an
// entry lies below it, cascading far slots and admitting overflow at window
// boundaries. Empty stretches are skipped via the occupancy bitmaps, and
// when both wheels are empty the frontier teleports straight to the overflow
// heap's earliest entry. It reports false, moving the frontier no further,
// rather than drain a near slot that starts at or after limit, move to a
// window boundary at or after it, or teleport to an overflow entry whose
// slot starts at or after it; so on false no live entry lies below limit.
// The caller guarantees the run is consumed and the late heap empty.
func (w *wheel) advance(limit Time) bool {
	clear(w.run) // release the *Event references
	w.run, w.next = w.run[:0], 0
	for {
		if len(w.run) > 0 || len(w.late) > 0 {
			return true
		}
		if w.nearCount == 0 && w.farCount == 0 {
			for len(w.overflow) > 0 && !w.overflow[0].live() {
				w.overflow.pop()
			}
			if len(w.overflow) == 0 {
				return false
			}
			next := w.overflow[0].when &^ (nearSlotWidth - 1)
			if next >= limit {
				return false
			}
			w.frontier = next
			w.drainOverflow()
			continue
		}
		cur := w.frontier >> nearShift
		i := int(cur & wheelMask)
		if i == 0 {
			// Entering a new 256-slot window: pull in the far slot that
			// spans it, then any overflow the far horizon now reaches.
			if w.farCount > 0 {
				w.cascadeFar(int((cur >> wheelBits) & wheelMask))
			}
			if len(w.overflow) > 0 {
				w.drainOverflow()
			}
		}
		if w.nearCount > 0 {
			if j := nextBit(&w.nearBits, i); j < wheelSlots {
				cur += Time(j - i)
				if cur<<nearShift >= limit {
					return false
				}
				w.frontier = (cur + 1) << nearShift
				w.drainNear(int(cur & wheelMask))
				continue
			}
		}
		// Nothing left in this window; jump to the next boundary.
		next := ((cur | wheelMask) + 1) << nearShift
		if next >= limit {
			return false
		}
		w.frontier = next
	}
}

// earliest returns a lower bound on the time of the earliest live entry,
// Forever when there is none, and moves no frontier. The bound is exact when
// the run, the late heap or (with both wheels empty) the overflow heap holds
// the entry. Otherwise it is the start of the first occupied near slot in
// the frontier's 256-slot window, or else that window's end.
func (w *wheel) earliest() Time {
	// With a zero limit front moves no frontier: it only drops stale entries
	// and, at a window boundary, cascades the far slot spanning the window,
	// without which the near bitmap could miss the earliest entry.
	if en, _, ok := w.front(0); ok {
		return en.when
	}
	cur := w.frontier >> nearShift
	if w.nearCount > 0 {
		i := int(cur & wheelMask)
		if j := nextBit(&w.nearBits, i); j < wheelSlots {
			return (cur + Time(j-i)) << nearShift
		}
	}
	if w.nearCount > 0 || w.farCount > 0 {
		return ((cur | wheelMask) + 1) << nearShift
	}
	if len(w.overflow) > 0 {
		return w.overflow[0].when
	}
	return Forever
}

// front returns the earliest live entry without removing it, dropping the
// stale entries it passes and advancing the frontier (up to limit, see
// advance) when nothing is left below it. fromLate reports whether the entry
// is the late heap's top rather than the run's head; ok is false when no
// live entry lies below the frontier once advance stops. An entry returned
// may lie at or after limit; the caller compares.
func (w *wheel) front(limit Time) (en entry, fromLate, ok bool) {
	for {
		if w.next < len(w.run) {
			en = w.run[w.next]
			if len(w.late) == 0 || en.before(w.late[0]) {
				if en.live() {
					return en, false, true
				}
				w.next++
				continue
			}
		}
		if len(w.late) > 0 {
			if en = w.late[0]; en.live() {
				return en, true, true
			}
			w.late.pop()
			continue
		}
		if !w.advance(limit) {
			return entry{}, false, false
		}
	}
}

// popNext removes and returns the earliest live entry.
func (w *wheel) popNext() (entry, bool) {
	en, fromLate, ok := w.front(Forever)
	if fromLate {
		w.late.pop()
	} else if ok {
		w.next++
	}
	return en, ok
}

// peekNext reports the earliest live entry's time without removing it. It
// drains no near slot that starts at or after limit to find it, and reports
// false when no live entry lies below limit.
func (w *wheel) peekNext(limit Time) (Time, bool) {
	en, _, ok := w.front(limit)
	return en.when, ok
}
