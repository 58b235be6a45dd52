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
	ln      *delayLine // the interval's line; nil for a ticker created stopped
	fn      func()
	fireFn  func() // t.fire, bound once so re-arming never allocates
	ev      Event  // the pending firing while armed
	stopped bool
	ticks   uint64
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
	t := &Ticker{fn: fn, stopped: interval <= 0}
	if !t.stopped {
		t.ln = s.line(&s.groups, interval)
		t.fireFn = t.fire
		t.ev = t.ln.schedule(first, t.fireFn)
	}
	return t
}

// fire runs one tick and, unless the callback stopped the ticker, re-arms
// it one interval later under a fresh seq — exactly like a dedicated
// event re-scheduling itself.
//
//mmlint:noalloc
func (t *Ticker) fire() {
	t.ticks++
	t.fn()
	if !t.stopped {
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
