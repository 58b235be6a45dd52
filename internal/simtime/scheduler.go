// Package simtime provides the virtual clock and discrete-event scheduler
// that every simulated subsystem runs on.
//
// Virtual time is a time.Duration measured from the start of the scenario.
// The scheduler is deterministic: events fire in non-decreasing time order,
// and events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break by sequence number). Re-running a scenario with
// the same seed therefore reproduces identical behaviour.
//
// The event queue is an inlined 4-ary min-heap of indices into a pooled
// slot arena. Scheduling recycles slots from a free list, so the
// steady-state schedule/fire cycle allocates nothing; Event handles carry
// a generation counter so Cancel/Pending on a handle whose slot has been
// recycled stay safe (they report false instead of touching the new
// occupant).
package simtime

import (
	"errors"
	"time"
)

// ErrStopped is returned by Run variants when the scheduler was stopped
// explicitly before the event queue drained.
var ErrStopped = errors.New("simtime: scheduler stopped")

// Event is a handle to scheduled work, returned by Scheduler.At /
// Scheduler.After. It is a small value (not a pointer): copy it freely,
// store it in fields, and compare against the zero Event for "no event".
// The zero Event is never pending and Cancel on it is a no-op.
type Event struct {
	s   *Scheduler
	idx int32  // arena slot index + 1; 0 marks the zero handle
	gen uint32 // slot generation at scheduling time
}

// slot is one arena entry. A slot is live while queued in the heap or in
// a delay line; firing returns it to the free list and bumps gen,
// invalidating outstanding handles. Cancellation does the same at once
// for a delay-line entry, and when the run loop or a purge collects it
// for a heap entry.
type slot struct {
	at       time.Duration
	seq      uint64
	fn       func()
	gen      uint32
	pos      int32 // heap position; posFree when dead, posInLine when in a delay line
	canceled bool  // set on heap entries only: Cancel frees a line entry's slot
}

// Sentinel slot positions outside the heap index range.
const (
	posFree   int32 = -1 // fired, cancelled-and-freed, or never queued
	posInLine int32 = -2 // queued in a delay line's FIFO ring
)

// At reports the virtual time the event is scheduled for, or zero when the
// event already fired or was cancelled.
func (e Event) At() time.Duration {
	if sl := e.slot(); sl != nil {
		return sl.at
	}
	return 0
}

// Cancel prevents the event from firing. Cancelling an event that already
// fired or was already cancelled is a no-op. Cancel reports whether the
// event was still pending.
//
//mmlint:noalloc
func (e Event) Cancel() bool {
	sl := e.slot()
	if sl == nil || sl.canceled {
		return false
	}
	if sl.pos == posInLine {
		// A line entry frees its slot at once: the generation bump marks
		// its 8-byte ring handle stale, and the line drops that handle at
		// the ring front or when it compacts a full ring. Line entries
		// never sit in the heap, so there is no purge pressure.
		e.s.members--
		e.s.freeSlot(e.idx - 1)
		return true
	}
	sl.canceled = true
	sl.fn = nil
	e.s.canceled++
	e.s.maybePurge()
	return true
}

// Pending reports whether the event is still queued and not cancelled.
//
//mmlint:noalloc
func (e Event) Pending() bool {
	sl := e.slot()
	return sl != nil && !sl.canceled
}

// slot resolves the handle to its live arena slot, or nil when the handle
// is zero, fired, cancelled-and-collected, or recycled.
func (e Event) slot() *slot {
	if e.s == nil || e.idx == 0 {
		return nil
	}
	sl := &e.s.slots[e.idx-1]
	if sl.gen != e.gen || sl.pos == posFree {
		return nil
	}
	return sl
}

// Scheduler is a deterministic discrete-event executor. The zero value is
// ready to use. Scheduler is not safe for concurrent use; the simulation
// core is intentionally single-threaded (see DESIGN.md §4).
type Scheduler struct {
	now     time.Duration
	slots   []slot
	heap    []int32 // 4-ary min-heap of slot indices, ordered by (at, seq)
	free    []int32 // recycled slot indices
	seq     uint64
	stopped bool
	fired   uint64
	// canceled counts cancelled-but-unpopped heap entries, so Len can
	// report live events and maybePurge knows when lazy removal is no
	// longer cheap.
	canceled int
	// groups holds the per-interval ticker lines (see ticker.go) and lines
	// the per-delay AfterFIFO lines (see line.go): every Ticker of one
	// interval and every AfterFIFO one-shot of one delay share a single
	// scheduler event, so the heap stays O(distinct intervals + distinct
	// delays) no matter how many tickers tick or packets fly. The two
	// maps stay apart so GroupCount and LineCount count them separately.
	groups map[time.Duration]*delayLine
	lines  map[time.Duration]*delayLine
	// members counts live delay-line entries (armed tickers included);
	// groupEvts counts the pooled line events currently occupying the
	// heap. Together they let Len keep reporting one live event per
	// logical pending callback, exactly as when each owned its own heap
	// entry.
	members   int
	groupEvts int
}

// NewScheduler returns a scheduler with virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Len returns the number of live pending events. Cancelled events that
// have not yet been discarded by the run loop are not counted; an armed
// ticker or pending AfterFIFO entry counts as one live event (its line's
// single heap entry is bookkeeping, not a logical event, and is excluded).
func (s *Scheduler) Len() int { return len(s.heap) - s.canceled - s.groupEvts + s.members }

// Queued returns the raw queue occupancy: pending heap entries, including
// cancelled events that lazy removal has not collected yet, but not line
// entries (each line contributes at most one heap entry, which is what
// keeps Queued O(distinct intervals) under thousands of tickers).
func (s *Scheduler) Queued() int { return len(s.heap) }

// Fired returns the total number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// GroupCount returns the number of distinct ticker intervals pooled
// behind single heap events (see ticker.go) — with Queued and LineCount,
// the observability sampler's picture of engine occupancy.
func (s *Scheduler) GroupCount() int { return len(s.groups) }

// LineCount returns the number of distinct AfterFIFO delay lines
// (see line.go).
func (s *Scheduler) LineCount() int { return len(s.lines) }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// clamps to the current time (the event fires next, after already-queued
// events for the same instant).
//
//mmlint:noalloc
func (s *Scheduler) At(t time.Duration, fn func()) Event {
	return s.atSeq(t, s.takeSeq(), fn)
}

// takeSeq draws the next sequence number. Delay lines draw a seq per
// entry — exactly where a dedicated event would have drawn one — so the
// counter (and every FIFO tie-break downstream of it) evolves
// byte-identically whether callbacks are pooled or not.
//
//mmlint:noalloc
func (s *Scheduler) takeSeq() uint64 {
	q := s.seq
	s.seq++
	return q
}

// atSeq schedules fn under a caller-supplied sequence number. Pooled line
// events reuse their front entry's seq, which places the pooled event in
// exactly the heap position the entry's dedicated event would have had.
//
//mmlint:noalloc
func (s *Scheduler) atSeq(t time.Duration, seq uint64, fn func()) Event {
	if t < s.now {
		t = s.now
	}
	i := s.allocSlot()
	sl := &s.slots[i]
	sl.at = t
	sl.seq = seq
	sl.fn = fn
	sl.canceled = false
	s.push(i)
	return Event{s: s, idx: i + 1, gen: sl.gen}
}

// allocSlot takes a slot from the free list (or grows the arena). The
// caller fills it and either heap-pushes it or threads it into a line.
//
//mmlint:noalloc
func (s *Scheduler) allocSlot() int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		return i
	}
	s.slots = append(s.slots, slot{}) //mmlint:alloc-ok arena growth is amortized; the free list recycles slots
	return int32(len(s.slots) - 1)
}

// After schedules fn to run d after the current virtual time. Negative d
// clamps to zero.
//
//mmlint:noalloc
func (s *Scheduler) After(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.At(s.now+d, fn)
}

// Stop makes the current Run / RunUntil call return ErrStopped after the
// in-flight event completes. Pending events remain queued.
func (s *Scheduler) Stop() { s.stopped = true }

// Step fires the single earliest pending event, advancing virtual time to
// its timestamp. It reports false when the queue is empty.
//
//mmlint:noalloc
func (s *Scheduler) Step() bool {
	for len(s.heap) > 0 {
		i := s.popMin()
		sl := &s.slots[i]
		if sl.canceled {
			s.canceled--
			s.freeSlot(i)
			continue
		}
		at := sl.at
		fn := sl.fn
		s.freeSlot(i)
		s.now = at
		s.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called. It returns
// ErrStopped in the latter case, nil otherwise.
func (s *Scheduler) Run() error {
	s.stopped = false
	for !s.stopped {
		if !s.Step() {
			return nil
		}
	}
	return ErrStopped
}

// RunUntil executes events with timestamps <= deadline, then advances the
// clock to exactly deadline. Events scheduled beyond the deadline remain
// queued. It returns ErrStopped if Stop was called.
func (s *Scheduler) RunUntil(deadline time.Duration) error {
	s.stopped = false
	for !s.stopped {
		at, ok := s.peekAt()
		if !ok || at > deadline {
			if s.now < deadline {
				s.now = deadline
			}
			return nil
		}
		s.Step()
	}
	return ErrStopped
}

// peekAt returns the timestamp of the earliest live event, discarding
// cancelled heap heads along the way.
//
//mmlint:noalloc
func (s *Scheduler) peekAt() (time.Duration, bool) {
	at, _, ok := s.peekMin()
	return at, ok
}

// peekMin returns the (at, seq) coordinates of the earliest live heap
// event, discarding cancelled heads along the way. Delay lines use it to
// decide whether their next front entry is globally next (see
// delayLine.fire's same-instant batch).
//
//mmlint:noalloc
func (s *Scheduler) peekMin() (time.Duration, uint64, bool) {
	for len(s.heap) > 0 {
		i := s.heap[0]
		sl := &s.slots[i]
		if sl.canceled {
			s.popMin()
			s.canceled--
			s.freeSlot(i)
			continue
		}
		return sl.at, sl.seq, true
	}
	return 0, 0, false
}

// freeSlot returns a slot to the free list. The generation bump invalidates
// every outstanding handle to the old occupant.
//
//mmlint:noalloc
func (s *Scheduler) freeSlot(i int32) {
	sl := &s.slots[i]
	sl.fn = nil
	sl.gen++
	sl.pos = posFree
	s.free = append(s.free, i) //mmlint:alloc-ok free-list growth is amortized against arena capacity
}

// maybePurge compacts the heap when cancelled entries outnumber live ones.
// Lazy removal (skip-on-pop) is O(1) per cancel, but a workload that
// cancels most of what it schedules far ahead of time (retry timers,
// semisoft windows) would otherwise accumulate dead entries and slow every
// sift; purging at >50% occupancy keeps amortized cost constant.
func (s *Scheduler) maybePurge() {
	if s.canceled < 64 || s.canceled*2 < len(s.heap) {
		return
	}
	keep := s.heap[:0]
	for _, i := range s.heap {
		if s.slots[i].canceled {
			s.canceled--
			s.freeSlot(i)
			continue
		}
		keep = append(keep, i)
	}
	s.heap = keep
	for pos, i := range s.heap {
		s.slots[i].pos = int32(pos)
	}
	for i := (len(s.heap) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i)
	}
}

// less orders slots by (at, seq): time order with FIFO tie-break.
//
//mmlint:noalloc
func (s *Scheduler) less(a, b int32) bool {
	sa, sb := &s.slots[a], &s.slots[b]
	if sa.at != sb.at {
		return sa.at < sb.at
	}
	return sa.seq < sb.seq
}

// push appends slot i to the heap and restores the heap invariant.
//
//mmlint:noalloc
func (s *Scheduler) push(i int32) {
	s.heap = append(s.heap, i) //mmlint:alloc-ok heap growth is amortized; the backing array is reused
	s.slots[i].pos = int32(len(s.heap) - 1)
	s.siftUp(len(s.heap) - 1)
}

// popMin removes and returns the root (minimum) slot index.
//
//mmlint:noalloc
func (s *Scheduler) popMin() int32 {
	h := s.heap
	min := h[0]
	last := h[len(h)-1]
	s.heap = h[:len(h)-1]
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.slots[last].pos = 0
		s.siftDown(0)
	}
	s.slots[min].pos = -1
	return min
}

//mmlint:noalloc
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	id := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !s.less(id, h[p]) {
			break
		}
		h[i] = h[p]
		s.slots[h[i]].pos = int32(i)
		i = p
	}
	h[i] = id
	s.slots[id].pos = int32(i)
}

//mmlint:noalloc
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	id := h[i]
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if s.less(h[j], h[best]) {
				best = j
			}
		}
		if !s.less(h[best], id) {
			break
		}
		h[i] = h[best]
		s.slots[h[i]].pos = int32(i)
		i = best
	}
	h[i] = id
	s.slots[id].pos = int32(i)
}
