package simtime

import "time"

// Accessors only the tests read: the model and scheduler tests check
// pending-event counts, event deadlines and tick counts through them.
// Exponential has no run-path caller; its distribution test keeps it.

// Exponential returns an exponentially distributed value with the given
// mean.
func (r *Rand) Exponential(mean float64) float64 { return r.rng.ExpFloat64() * mean }

// At reports the virtual time the event is scheduled for, or zero when the
// event already fired or was cancelled.
func (e Event) At() time.Duration {
	if sl := e.slot(); sl != nil {
		return sl.at
	}
	return 0
}

// Len returns the number of live pending events. Cancelled events that
// have not yet been discarded by the run loop are not counted; an armed
// ticker or pending AfterFIFO entry counts as one live event (its line's
// single heap entry is bookkeeping, not a logical event, and is excluded).
func (s *Scheduler) Len() int { return len(s.heap) - s.canceled - s.groupEvts + s.members }

// Ticks returns how many times the ticker has fired.
func (t *Ticker) Ticks() uint64 { return t.ticks }
