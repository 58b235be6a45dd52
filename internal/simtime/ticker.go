package simtime

import "time"

// Ticker fires a callback at a fixed virtual-time interval until stopped.
// It is the building block for periodic protocol behaviour: route-update
// packets, Location Messages, agent advertisements, traffic frames and
// measurement ticks.
//
// Tickers ride per-interval delay lines (see line.go): every ticker of one
// interval threads its pending firing through one line, and the line keeps
// a single scheduler event — for its front entry — alive at any time. A
// 10k-MN population whose tickers span a handful of distinct intervals
// therefore occupies a handful of heap entries instead of tens of
// thousands. Every re-arm lands at now+interval, after every entry already
// in the line, so a line stays sorted by plain appends. Firing order is
// byte-identical to per-ticker events: each arming draws its sequence
// number from the scheduler counter exactly where a dedicated event would
// have, and the line's pooled event runs under its front entry's own
// (at, seq), so FIFO tie-breaks against unrelated events are preserved.
type Ticker struct {
	s       *Scheduler
	ln      *Line // the interval's line; nil until first armed
	fn      func()
	fireFn  func() // t.fire, bound once so re-arming never allocates
	ev      Event  // the pending firing while armed
	stopped bool
	// arms counts Resets, so a firing whose callback reset the ticker
	// does not arm it a second time.
	arms  uint64
	ticks uint64
}

// Every schedules fn to run every interval, with the first firing one full
// interval from now. Interval must be positive; a non-positive interval
// returns a stopped ticker that never fires, so that callers can treat
// "feature disabled" configurations uniformly.
func (s *Scheduler) Every(interval time.Duration, fn func()) *Ticker {
	return s.every(interval, s.now+interval, fn)
}

// EveryNow behaves like Every but also fires once immediately (at the
// current virtual instant) before settling into the periodic cadence.
func (s *Scheduler) EveryNow(interval time.Duration, fn func()) *Ticker {
	return s.every(interval, s.now, fn)
}

// every arms a ticker of the given interval with its first firing at first.
func (s *Scheduler) every(interval, first time.Duration, fn func()) *Ticker {
	t := &Ticker{s: s, fn: fn, stopped: true}
	t.fireFn = t.fire
	t.arm(interval, first)
	return t
}

// arm arms a stopped ticker on interval with its first firing at first;
// a non-positive interval leaves it stopped.
//
//mmlint:noalloc
func (t *Ticker) arm(interval, first time.Duration) {
	if interval <= 0 {
		return
	}
	t.stopped = false
	t.ln = t.s.line(&t.s.groups, interval)
	t.ev = t.ln.schedule(first, t.fireFn)
}

// Reset stops t and re-arms it on interval, exactly as stopping it and
// arming a new Every(interval, fn) with its callback would: the first
// firing is one full interval from now, under the sequence number Every
// would have drawn. It reuses t, so a protocol timer that changes
// cadence or restarts (a host going idle or active, a handoff restarting
// its refresh) allocates nothing. It may be called from t's own
// callback. A non-positive interval leaves t stopped.
//
//mmlint:noalloc
func (t *Ticker) Reset(interval time.Duration) {
	t.Stop()
	t.arms++
	t.arm(interval, t.s.now+interval)
}

// Rearm Resets t on interval and returns it, or, when t is nil, returns
// Every(interval, fn): a protocol timer made at its first arming and
// reused at every restart after it.
func (s *Scheduler) Rearm(t *Ticker, interval time.Duration, fn func()) *Ticker {
	if t == nil {
		return s.Every(interval, fn)
	}
	t.Reset(interval)
	return t
}

// fire runs one tick and, unless the callback stopped or reset the
// ticker, re-arms it one interval later under a fresh seq — exactly like
// a dedicated event re-scheduling itself.
//
//mmlint:noalloc
func (t *Ticker) fire() {
	t.ticks++
	arms := t.arms
	t.fn()
	if !t.stopped && t.arms == arms {
		t.ev = t.ln.schedule(t.ln.s.now+t.ln.d, t.fireFn)
	}
}

// Stop cancels future firings. Safe to call multiple times, including from
// inside the ticker's own callback or another ticker's callback mid-sweep.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.ev.Cancel() {
		t.ln.sync()
	}
}

// Stopped reports whether the ticker has been stopped.
func (t *Ticker) Stopped() bool { return t.stopped }
