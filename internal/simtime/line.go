package simtime

import "time"

// AfterFIFO schedules fn to run d after the current virtual time, exactly
// like After, but through the per-delay FIFO line: because d is the same
// for every entry of a line, due times are non-decreasing in scheduling
// order, so the line is a plain ring buffer and the whole line occupies a
// single scheduler-heap entry (for its front member) instead of one per
// pending callback. Use it for constant-delay work that needs a handle —
// protocol timeouts with a fixed horizon — and keep After for variable
// delays. Work that is never cancelled, such as packet flights, posts on
// the line directly (see Line.Post) and skips the handle. Negative d
// clamps to zero.
//
// Semantics are identical to After, including Cancel/Pending on the
// returned Event and FIFO tie-breaks against unrelated events (each entry
// draws its sequence number from the shared scheduler counter at
// scheduling time, and the line's pooled event runs under the front
// entry's own (time, seq) coordinates).
//
//mmlint:noalloc
func (s *Scheduler) AfterFIFO(d time.Duration, fn func()) Event {
	ln := s.Line(d)
	return ln.schedule(s.now+ln.d, fn)
}

// Line returns (creating on first use) the FIFO line of delay d, the one
// AfterFIFO(d, …) schedules on. Negative d clamps to zero. A caller that
// sends many callbacks of one delay resolves the line once and posts on
// it, skipping AfterFIFO's per-call map lookup.
//
//mmlint:noalloc
func (s *Scheduler) Line(d time.Duration) *Line {
	if d < 0 {
		d = 0
	}
	return s.line(&s.lines, d)
}

// line returns (creating on first use) the delay line for d in lines —
// s.lines for AfterFIFO and Line, s.groups for tickers.
func (s *Scheduler) line(lines *map[time.Duration]*Line, d time.Duration) *Line {
	if *lines == nil {
		*lines = make(map[time.Duration]*Line, 8)
	}
	ln := (*lines)[d]
	if ln == nil {
		ln = &Line{s: s, d: d}
		ln.fireFn = ln.fire
		(*lines)[d] = ln
	}
	return ln
}

// Line pools every pending callback of one constant delay d — AfterFIFO
// one-shots and Posts, or every armed ticker of interval d — behind a
// single scheduler event. Each entry is held by value in a power-of-two
// FIFO ring: its due time, its sequence number and its callback. A firing
// line reads its ring in order and touches nothing else per entry.
//
// Only entries that hand out an Event (AfterFIFO one-shots, ticker
// firings) also take an arena slot, so that Cancel and generation safety
// work unchanged; the ring entry records the slot and the generation it
// was scheduled under. Cancel frees the slot at once (see Event.Cancel);
// the bumped generation marks the ring entry stale, and stale entries are
// dropped when they reach the ring front or when a full ring is
// compacted. A pooled event that fires onto a cancelled front simply
// re-syncs to the next live entry. Posted entries have no slot and are
// always live.
//
// Ring cells are written in place, field by field, through the pointer
// tail returns, and read the same way: never build a lineEntry and
// store it whole (a push(e lineEntry)). Go spills such a value to the
// stack as narrow field stores and copies it into the ring with wide
// loads, which the CPU cannot forward from the narrow stores; on the
// 1k-MN media workload that one stalled copy was 0.86 s of the append's
// 1.09 s flat time.
type Line struct {
	s *Scheduler
	d time.Duration

	ring  []lineEntry // circular buffer; its length is a power of two
	head  int         // index of the front entry
	count int         // occupied ring cells (live + stale)

	// event is the pending scheduler event for the front entry, or the
	// zero Event. Only the line cancels or clears it, so a non-zero
	// handle always names a live heap entry.
	event  Event
	evAt   time.Duration
	evSeq  uint64
	fireFn func() // bound once so re-scheduling never allocates
	// firing is set while fire runs the line's entries: a callback that
	// schedules into its own line, or stops a ticker in it, only touches
	// the ring, and fire's closing sync puts the pooled event on the
	// real front once.
	firing bool
}

// lineEntry is one pending callback: its (at, seq) ordering key, the
// callback, and — for an entry that handed out an Event — its arena slot
// (index + 1; 0 for a posted entry) and the slot generation it was
// scheduled under. A cancelled (freed) or recycled slot carries a newer
// generation, which is what marks the entry stale.
type lineEntry struct {
	at  time.Duration
	seq uint64
	fn  func()
	idx int32
	gen uint32
}

// live reports whether e is still pending: a posted entry always is; a
// slot-backed one while its slot keeps the generation it was pushed with.
//
//mmlint:noalloc
func (ln *Line) live(e *lineEntry) bool {
	return e.idx == 0 || ln.s.slots[e.idx-1].gen == e.gen
}

// Post schedules fn to run d after the current virtual time on this
// line, without a handle: it cannot be cancelled, and it takes no arena
// slot. Ordering is exactly AfterFIFO's — the entry draws its sequence
// number from the shared counter here.
//
//mmlint:noalloc
func (ln *Line) Post(fn func()) {
	s := ln.s
	e := ln.tail()
	e.at = s.now + ln.d
	e.seq = s.takeSeq()
	e.fn = fn
	e.idx = 0
	e.gen = 0
	ln.sync()
}

// schedule files one slot-backed entry due at at and keeps the pooled
// event on the front. An entry due at now+d (every AfterFIFO call and
// every ticker re-arm) sorts after everything already in the line: a
// plain append. Any other at, which only a ticker's EveryNow first
// firing uses, is moved back from the tail past the stale entries and the
// entries due after at — one move per entry behind it, none when no other
// entry of the line is due later than at.
//
//mmlint:noalloc
func (ln *Line) schedule(at time.Duration, fn func()) Event {
	s := ln.s
	i := s.allocSlot()
	sl := &s.slots[i]
	sl.at = at
	sl.canceled = false
	sl.pos = posInLine
	gen := sl.gen
	e := ln.tail()
	if at != s.now+ln.d {
		e = ln.insertBack(at)
	}
	e.at = at
	e.seq = s.takeSeq()
	e.fn = fn
	e.idx = i + 1
	e.gen = gen
	ln.sync()
	return Event{s: s, idx: i + 1, gen: gen}
}

// insertBack makes room for an entry due at at in a ring whose tail cell
// tail has just reserved: it moves the stale entries and the entries due
// after at one cell back, and returns the freed cell for the caller to
// fill.
//
//mmlint:noalloc
func (ln *Line) insertBack(at time.Duration) *lineEntry {
	mask := len(ln.ring) - 1
	k := ln.count - 1
	for ; k > 0; k-- {
		prev := &ln.ring[(ln.head+k-1)&mask]
		if ln.live(prev) && prev.at <= at {
			break
		}
		ln.ring[(ln.head+k)&mask] = *prev
	}
	return &ln.ring[(ln.head+k)&mask]
}

// dropCanceled pops the stale entries of cancelled callbacks sitting at
// the ring front; their slots were already freed by Cancel.
//
//mmlint:noalloc
func (ln *Line) dropCanceled() {
	for ln.count > 0 && !ln.live(&ln.ring[ln.head]) {
		ln.pop()
	}
}

// sync makes the pooled scheduler event track the front entry. It is a
// no-op while the line is firing; fire syncs once when its batch ends.
//
//mmlint:noalloc
func (ln *Line) sync() {
	if ln.firing {
		return
	}
	ln.dropCanceled()
	if ln.count == 0 {
		ln.event.Cancel()
		ln.event = Event{}
		return
	}
	front := &ln.ring[ln.head]
	if ln.event.idx != 0 {
		if ln.evAt == front.at && ln.evSeq == front.seq {
			return
		}
		ln.event.Cancel()
	}
	ln.event = ln.s.atSeq(front.at, front.seq, ln.fireFn)
	ln.evAt, ln.evSeq = front.at, front.seq
}

// fire runs the front entry the pooled event was scheduled for. If that
// entry was cancelled after the event went up, nothing runs and the line
// re-syncs to the next live entry.
//
// After the front runs, the line keeps running through virtual time:
// whenever its new front sorts before the scheduler's earliest heap
// event and is due no later than the run's horizon (see
// Scheduler.step), it is by construction the globally next event, so
// fire advances the clock to it and runs it directly — saving the heap
// pop, sift and push a re-sync would cost. Constant-delay traffic is
// bursty (every voice source frames on the same 20 ms boundaries), and
// staggered tickers of one interval are due microseconds apart with
// nothing else in between, so a batch turns N flights or ticks into N
// ring pops and one heap operation. Order, virtual time and the fired
// counter are identical to going through the heap. While the batch runs
// the line has no pooled event in the heap (see firing), so peekMin
// only ever sees other events: the pooled event would sit at the
// front's own (at, seq) and is never strictly earlier.
//
//mmlint:noalloc
func (ln *Line) fire() {
	s := ln.s
	ln.event = Event{}
	ln.firing = true
	ran := false
	ln.dropCanceled()
	if ln.count > 0 && ln.ring[ln.head].seq == ln.evSeq {
		ran = true
		ln.runFront()
		for {
			ln.dropCanceled()
			if ln.count == 0 {
				break
			}
			e := &ln.ring[ln.head]
			if e.at > s.horizon {
				break
			}
			if at, seq, ok := s.peekMin(); ok && (at < e.at || (at == e.at && seq < e.seq)) {
				break
			}
			s.now = e.at
			s.fired++
			ln.runFront()
		}
	}
	// A pooled event whose front was cancelled after it went up runs
	// nothing; Step already counted the fire, so give it back — Fired()
	// reports executed callbacks, never cancelled ones, exactly as with
	// dedicated After events.
	if !ran {
		s.fired--
	}
	ln.firing = false
	ln.sync()
}

// runFront pops the live front entry, frees its slot if it has one, and
// runs its callback.
//
//mmlint:noalloc
func (ln *Line) runFront() {
	e := &ln.ring[ln.head]
	fn := e.fn
	if e.idx != 0 {
		ln.s.freeSlot(e.idx - 1)
	}
	ln.pop()
	fn()
}

// tail reserves the cell at the ring tail and returns it for the caller
// to fill field by field (see Line for why). A full ring is first
// compacted (see compact), so it stays sized by live entries however
// many cancelled ones a re-arming timer leaves behind.
//
//mmlint:noalloc
func (ln *Line) tail() *lineEntry {
	if ln.count == len(ln.ring) {
		ln.compact()
	}
	e := &ln.ring[(ln.head+ln.count)&(len(ln.ring)-1)]
	ln.count++
	return e
}

// compact drops every stale entry from a full ring in place, keeping
// live ones in FIFO order, and doubles the ring when live entries still
// fill more than half of it. Either way the next compaction is at least
// half a ring of pushes away, so the copying is amortized O(1) per push.
// The ring starts at 16 cells and only ever doubles, so its length stays
// a power of two.
//
//mmlint:noalloc
func (ln *Line) compact() {
	n := len(ln.ring)
	mask := n - 1
	// The write position w never passes the read position k, so no unread
	// entry is overwritten.
	w := 0
	for k := 0; k < ln.count; k++ {
		if e := &ln.ring[(ln.head+k)&mask]; ln.live(e) {
			ln.ring[(ln.head+w)&mask] = *e
			w++
		}
	}
	ln.count = w
	if 2*w > n || n == 0 {
		grown := make([]lineEntry, max(2*n, 16)) //mmlint:alloc-ok ring growth is amortized doubling
		for k := 0; k < w; k++ {
			grown[k] = ln.ring[(ln.head+k)&mask]
		}
		ln.ring = grown
		ln.head = 0
	}
}

// pop removes the front entry, dropping its callback so the ring does
// not keep it reachable.
//
//mmlint:noalloc
func (ln *Line) pop() {
	ln.ring[ln.head].fn = nil
	ln.head = (ln.head + 1) & (len(ln.ring) - 1)
	ln.count--
}
