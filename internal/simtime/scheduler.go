// Package simtime provides the virtual clock and discrete-event scheduler
// that every simulated subsystem runs on.
//
// Virtual time is a time.Duration measured from the start of the scenario.
// The scheduler is deterministic: events fire in non-decreasing time order,
// and events scheduled for the same instant fire in the order they were
// scheduled (FIFO tie-break by sequence number). Re-running a scenario with
// the same seed therefore reproduces identical behaviour.
//
// The event queue is an inlined 4-ary min-heap of (at, seq, slot index)
// cells over a pooled slot arena; each cell carries its own ordering key,
// so sifting never touches the arena. Scheduling recycles slots from a
// free list, so the steady-state schedule/fire cycle allocates nothing;
// Event handles carry a generation counter so Cancel/Pending on a handle
// whose slot has been recycled stay safe (they report false instead of
// touching the new occupant).
package simtime

import (
	"errors"
	"math"
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
	pos      int8 // where the slot lives: posFree, posInHeap or posInLine
	canceled bool // set on heap entries only: Cancel frees a line entry's slot
}

// Slot states. A slot does not track its heap position: nothing removes
// a heap entry other than at the root.
const (
	posFree   int8 = iota // fired, cancelled-and-freed, or never queued
	posInHeap             // queued in the scheduler heap
	posInLine             // queued in a delay line's FIFO ring
)

// heapEntry is one heap cell: the slot's (at, seq) ordering key, copied
// in at push so comparisons stay inside the heap array, and the slot
// index.
type heapEntry struct {
	at  time.Duration
	seq uint64
	idx int32
}

// less orders heap cells by (at, seq): time order with FIFO tie-break.
//
//mmlint:noalloc
func (a heapEntry) less(b heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
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
	heap    []heapEntry // 4-ary min-heap ordered by (at, seq)
	free    []int32     // recycled slot indices
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
	// horizon is the latest instant a firing delay line may run its
	// entries up to without going back through the heap (see
	// delayLine.fire): RunUntil's deadline, the end of time under Run,
	// and the popped event's own instant under a bare Step.
	horizon time.Duration
	// pops counts heap-root removals; tests read it to pin how often a
	// batch goes back through the heap.
	pops uint64
}

// NewScheduler returns a scheduler with virtual time zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Duration { return s.now }

// Queued returns the raw queue occupancy: pending heap entries, including
// cancelled events that lazy removal has not collected yet, but not line
// entries (each line contributes at most one heap entry, which is what
// keeps Queued O(distinct intervals) under thousands of tickers).
func (s *Scheduler) Queued() int { return len(s.heap) }

// Fired returns the total number of events executed so far. Only tests
// read it: the scheduler and netsim tests use it as the event-count
// oracle.
//
//mmlint:testref event-count oracle for the simtime and netsim tests
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
	sl.pos = posInHeap
	s.push(heapEntry{at: t, seq: seq, idx: i})
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
// in-flight event completes. Pending events remain queued. Only tests
// call it, to stop a run mid-flight (simtime's stop tests, core's
// stopped-run prime join).
//
//mmlint:testref simtime and core tests stop a run mid-flight
func (s *Scheduler) Stop() { s.stopped = true }

// Step fires the single earliest pending event, advancing virtual time to
// its timestamp. It reports false when the queue is empty. A delay line
// that event belongs to may also run its further entries due at that
// same instant (see delayLine.fire), never a later one. Only tests call
// it: the alloc tests and root benchmarks price one event at a time.
//
//mmlint:noalloc
//mmlint:testref alloc tests and benchmarks step one event at a time
func (s *Scheduler) Step() bool { return s.step(0) }

// step is the run loop's unit: pop the earliest live event, advance the
// clock to it and run it. horizon bounds how far ahead in virtual time a
// firing delay line may keep running its own entries (see
// delayLine.fire); a horizon before the event's instant means that
// instant only.
//
//mmlint:noalloc
func (s *Scheduler) step(horizon time.Duration) bool {
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
		s.horizon = max(horizon, at)
		s.fired++
		fn()
		return true
	}
	return false
}

// Run executes events until the queue drains or Stop is called. It returns
// ErrStopped in the latter case, nil otherwise. Only tests call it, to
// drain a queue that has no horizon; runs use RunUntil.
//
//mmlint:testref simtime, netsim, cellularip and multitier tests drain the queue
func (s *Scheduler) Run() error {
	s.stopped = false
	for !s.stopped {
		if !s.step(math.MaxInt64) {
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
		s.step(deadline)
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
// delayLine.fire's batch).
//
//mmlint:noalloc
func (s *Scheduler) peekMin() (time.Duration, uint64, bool) {
	for len(s.heap) > 0 {
		h := s.heap[0]
		if s.slots[h.idx].canceled {
			s.popMin()
			s.canceled--
			s.freeSlot(h.idx)
			continue
		}
		return h.at, h.seq, true
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
	for _, h := range s.heap {
		if s.slots[h.idx].canceled {
			s.canceled--
			s.freeSlot(h.idx)
			continue
		}
		keep = append(keep, h)
	}
	s.heap = keep
	for i := (len(s.heap) - 2) >> 2; i >= 0; i-- {
		s.siftDown(i)
	}
}

// push appends cell h to the heap and restores the heap invariant.
//
//mmlint:noalloc
func (s *Scheduler) push(h heapEntry) {
	s.heap = append(s.heap, h) //mmlint:alloc-ok heap growth is amortized; the backing array is reused
	s.siftUp(len(s.heap) - 1)
}

// popMin removes the root (minimum) cell and returns its slot index.
//
//mmlint:noalloc
func (s *Scheduler) popMin() int32 {
	s.pops++
	h := s.heap
	min := h[0].idx
	last := h[len(h)-1]
	s.heap = h[:len(h)-1]
	if len(s.heap) > 0 {
		s.heap[0] = last
		s.siftDown(0)
	}
	return min
}

//mmlint:noalloc
func (s *Scheduler) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		p := (i - 1) >> 2
		if !e.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

//mmlint:noalloc
func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
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
			if h[j].less(h[best]) {
				best = j
			}
		}
		if !h[best].less(e) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = e
}
