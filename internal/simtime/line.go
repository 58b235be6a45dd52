package simtime

import "time"

// AfterFIFO schedules fn to run d after the current virtual time, exactly
// like After, but through the per-delay FIFO line: because d is the same
// for every entry of a line, due times are non-decreasing in scheduling
// order, so the line is a plain ring buffer and the whole line occupies a
// single scheduler-heap entry (for its front member) instead of one per
// pending callback. Use it for hot constant-delay work — link flights,
// air deliveries, protocol timeouts with a fixed horizon — and keep After
// for variable delays. Negative d clamps to zero.
//
// Semantics are identical to After, including Cancel/Pending on the
// returned Event and FIFO tie-breaks against unrelated events (each entry
// draws its sequence number from the shared scheduler counter at
// scheduling time, and the line's pooled event runs under the front
// entry's own (time, seq) coordinates).
//
//mmlint:noalloc
func (s *Scheduler) AfterFIFO(d time.Duration, fn func()) Event {
	if d < 0 {
		d = 0
	}
	return s.line(&s.lines, d).schedule(s.now+d, fn)
}

// line returns (creating on first use) the delay line for d in lines —
// s.lines for AfterFIFO, s.groups for tickers.
func (s *Scheduler) line(lines *map[time.Duration]*delayLine, d time.Duration) *delayLine {
	if *lines == nil {
		*lines = make(map[time.Duration]*delayLine, 8)
	}
	ln := (*lines)[d]
	if ln == nil {
		ln = &delayLine{s: s, d: d}
		ln.fireFn = ln.fire
		(*lines)[d] = ln
	}
	return ln
}

// delayLine pools every pending AfterFIFO(d, …) one-shot, or every armed
// ticker of interval d, behind a single scheduler event. Entries live in the shared slot arena (so Event
// handles, Cancel and generation safety work unchanged) and are threaded
// through a FIFO ring of (slot, generation) handles. Cancel frees an
// entry's slot at once (see Event.Cancel); the bumped generation marks
// its 8-byte ring handle stale, and stale handles are dropped when they
// reach the ring front or when a full ring is compacted. A pooled event
// that fires onto a cancelled front simply re-syncs to the next live
// entry.
type delayLine struct {
	s *Scheduler
	d time.Duration

	ring  []lineEntry // circular buffer of entry handles
	head  int         // index of the front entry
	count int         // occupied ring cells (live + stale)

	event  Event // pending scheduler event for the front entry
	evAt   time.Duration
	evSeq  uint64
	fireFn func() // bound once so re-scheduling never allocates
}

// lineEntry is a ring handle: the entry's arena slot and the slot
// generation it was scheduled under. A cancelled (freed) or recycled slot
// carries a newer generation, which is what marks the handle stale.
type lineEntry struct {
	idx int32
	gen uint32
}

// live reports whether e still names the entry it was pushed for.
//
//mmlint:noalloc
func (ln *delayLine) live(e lineEntry) bool { return ln.s.slots[e.idx].gen == e.gen }

// schedule files one entry due at at and keeps the pooled event on the
// front. An entry due at now+d (every AfterFIFO call and every ticker
// re-arm) sorts after everything already in the line: a plain append.
// Any other at, which only a ticker's EveryNow first firing uses, is
// moved back from the tail past the stale handles and the handles due
// after at — one move per handle behind it, none when no other entry of
// the line is due later than at.
//
//mmlint:noalloc
func (ln *delayLine) schedule(at time.Duration, fn func()) Event {
	s := ln.s
	i := s.allocSlot()
	sl := &s.slots[i]
	sl.at = at
	sl.seq = s.takeSeq()
	sl.fn = fn
	sl.canceled = false
	sl.pos = posInLine
	e := lineEntry{idx: i, gen: sl.gen}
	ln.push(e)
	if at != s.now+ln.d {
		n := len(ln.ring)
		k := ln.count - 1
		for ; k > 0; k-- {
			prev := ln.ring[(ln.head+k-1)%n]
			if ln.live(prev) && s.slots[prev.idx].at <= at {
				break
			}
			ln.ring[(ln.head+k)%n] = prev
		}
		ln.ring[(ln.head+k)%n] = e
	}
	s.members++
	ln.sync()
	return Event{s: s, idx: i + 1, gen: sl.gen}
}

// dropCanceled pops the stale handles of cancelled entries sitting at the
// ring front; their slots were already freed by Cancel.
//
//mmlint:noalloc
func (ln *delayLine) dropCanceled() {
	for ln.count > 0 && !ln.live(ln.ring[ln.head]) {
		ln.pop()
	}
}

// sync makes the pooled scheduler event track the front entry.
//
//mmlint:noalloc
func (ln *delayLine) sync() {
	ln.dropCanceled()
	if ln.count == 0 {
		if ln.event.Cancel() {
			ln.s.groupEvts--
		}
		ln.event = Event{}
		return
	}
	front := &ln.s.slots[ln.ring[ln.head].idx]
	if ln.event.Pending() {
		if ln.evAt == front.at && ln.evSeq == front.seq {
			return
		}
		ln.event.Cancel()
		ln.s.groupEvts--
	}
	ln.event = ln.s.atSeq(front.at, front.seq, ln.fireFn)
	ln.s.groupEvts++
	ln.evAt, ln.evSeq = front.at, front.seq
}

// fire runs the front entry the pooled event was scheduled for. If that
// entry was cancelled after the event went up, nothing runs and the line
// re-syncs to the next live entry.
//
// After the front runs, consecutive same-instant entries are batched:
// whenever the new front is due exactly now and sorts before the
// scheduler's earliest heap event, it is by construction the globally
// next event — running it directly saves the heap round trip a re-sync
// would cost. Constant-delay traffic is bursty in exactly this way
// (every voice source frames on the same 20 ms boundaries), so the
// batch turns N same-instant flights into N ring pops and one heap
// operation. Order, virtual time and the fired counter are identical to
// going through the heap; Stop() is honoured between entries like it is
// between Step calls.
//
//mmlint:noalloc
func (ln *delayLine) fire() {
	s := ln.s
	ln.event = Event{}
	s.groupEvts--
	ran := false
	ln.dropCanceled()
	if ln.count > 0 {
		i := ln.ring[ln.head].idx
		sl := &s.slots[i]
		if sl.seq == ln.evSeq {
			ran = true
			fn := sl.fn
			ln.pop()
			s.freeSlot(i)
			s.members--
			fn()
			for !s.stopped {
				ln.dropCanceled()
				if ln.count == 0 {
					break
				}
				i := ln.ring[ln.head].idx
				sl := &s.slots[i]
				if sl.at != s.now {
					break
				}
				if at, seq, ok := s.peekMin(); ok && (at < sl.at || (at == sl.at && seq < sl.seq)) {
					break
				}
				fn := sl.fn
				ln.pop()
				s.freeSlot(i)
				s.members--
				s.fired++
				fn()
			}
		}
	}
	// A pooled event whose front was cancelled after it went up runs
	// nothing; Step already counted the fire, so give it back — Fired()
	// reports executed callbacks, never cancelled ones, exactly as with
	// dedicated After events.
	if !ran {
		s.fired--
	}
	ln.sync()
}

// push appends an entry handle at the ring tail. A full ring is first
// compacted (see compact), so it stays sized by live entries however many
// cancelled ones a re-arming timer leaves behind.
//
//mmlint:noalloc
func (ln *delayLine) push(e lineEntry) {
	if ln.count == len(ln.ring) {
		ln.compact()
	}
	ln.ring[(ln.head+ln.count)%len(ln.ring)] = e
	ln.count++
}

// compact drops every stale handle from a full ring in place, keeping
// live ones in FIFO order, and doubles the ring when live handles still
// fill more than half of it. Either way the next compaction is at least
// half a ring of pushes away, so the copying is amortized O(1) per push.
//
//mmlint:noalloc
func (ln *delayLine) compact() {
	n := len(ln.ring)
	// The write position w never passes the read position k, so no unread
	// handle is overwritten.
	w := 0
	for k := 0; k < ln.count; k++ {
		if e := ln.ring[(ln.head+k)%n]; ln.live(e) {
			ln.ring[(ln.head+w)%n] = e
			w++
		}
	}
	ln.count = w
	if 2*w > n || n == 0 {
		grown := make([]lineEntry, max(2*n, 16)) //mmlint:alloc-ok ring growth is amortized doubling
		for k := 0; k < w; k++ {
			grown[k] = ln.ring[(ln.head+k)%n]
		}
		ln.ring = grown
		ln.head = 0
	}
}

// pop removes the front entry.
//
//mmlint:noalloc
func (ln *delayLine) pop() {
	ln.head = (ln.head + 1) % len(ln.ring)
	ln.count--
}
