package obs

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Deterministic SLO monitors: named rules over sampled series, evaluated
// only on the sim-time sampling cadence (the caller invokes Eval right
// after Trace.SampleAll, inside the same scheduler tick). A rule raises
// after its condition holds continuously for MinDuration, clears only
// once the value retreats past the hysteresis band, and on each
// transition emits an alert.raise / alert.clear trace event and invokes
// its callbacks. Rules are evaluated in registration order — never map
// order — so the alert stream is deterministic and the closed-loop
// trace is itself golden-pinnable.
//
// The nil contract mirrors Trace: a nil *Monitor is valid and inert —
// Eval is a nil-receiver no-op with zero events, zero rng draws and
// zero allocations, so the sampling closure can call unconditionally.

// ErrBadRule rejects malformed monitor rules at registration.
var ErrBadRule = errors.New("obs: invalid rule")

// Agg selects how a rule reduces its window to one value per tick.
type Agg uint8

// Window aggregation modes.
const (
	// AggLast evaluates the newest sample (Window ignored).
	AggLast Agg = iota
	// AggMean evaluates the window mean.
	AggMean
	// AggMin evaluates the window minimum.
	AggMin
	// AggMax evaluates the window maximum.
	AggMax
	// AggEWMA evaluates the window EWMA with the rule's Alpha.
	AggEWMA
	// AggSlope evaluates the window's linear trend (units/second).
	AggSlope
)

var aggNames = [...]string{
	AggLast:  "last",
	AggMean:  "mean",
	AggMin:   "min",
	AggMax:   "max",
	AggEWMA:  "ewma",
	AggSlope: "slope",
}

// String returns the aggregation's wire name.
func (a Agg) String() string {
	if int(a) < len(aggNames) {
		return aggNames[a]
	}
	return "unknown"
}

// Rule is one named SLO condition, e.g. "root occupancy mean over the
// last 5s above 0.9 for 2s" or "registered fraction below 0.95".
type Rule struct {
	// Name identifies the rule in the alert timeline (exported with the
	// trace, shown by mmtrace -alerts). Must be unique per monitor.
	Name string
	// Series names the sampled series the rule watches. Resolved lazily
	// at evaluation, without creating: a rule over an absent series
	// never fires and never perturbs series registration order.
	Series string
	// Agg reduces the window to the evaluated value.
	Agg Agg
	// Window is the sliding window width (ignored by AggLast; required
	// positive otherwise). The window is [now-Window, now], both edges
	// inclusive.
	Window time.Duration
	// Alpha is the AggEWMA smoothing factor in (0, 1].
	Alpha float64
	// Below inverts the comparison: breach when value < Threshold
	// (clear at Threshold+Hysteresis). Default is above: breach when
	// value > Threshold (clear at Threshold-Hysteresis).
	Below bool
	// Threshold is the breach boundary.
	Threshold float64
	// Hysteresis widens the clear boundary so an oscillating series
	// does not flap the alert. Must be >= 0.
	Hysteresis float64
	// MinDuration is how long the condition must hold continuously
	// before the alert raises. Zero raises on the first breached tick.
	MinDuration time.Duration

	// OnRaise fires once when the alert raises.
	OnRaise func(at time.Duration, value float64)
	// OnClear fires once when the alert clears.
	OnClear func(at time.Duration, value float64)
	// OnActive fires on every evaluation tick while the alert is active,
	// including the raising tick and excluding the clearing one — the
	// hook for policies that act continuously while a condition holds
	// (e.g. pre-paging while session survival is dipped).
	OnActive func(at time.Duration, value float64)
}

// ruleState is a registered rule plus its hysteresis state machine.
type ruleState struct {
	Rule
	series        *Series // resolved lazily; nil until the series exists
	breachedSince time.Duration
	breached      bool
	active        bool
	raises        int
	clears        int
}

// Monitor evaluates registered rules on the sampling cadence. Not safe
// for concurrent use — like the Trace it feeds, it lives on the
// deterministic scheduler goroutine.
type Monitor struct {
	trace *Trace
	rules []ruleState
}

// NewMonitor builds a monitor emitting alerts into the given trace.
// A nil trace yields a nil (inert) monitor.
func NewMonitor(t *Trace) *Monitor {
	if t == nil {
		return nil
	}
	return &Monitor{trace: t}
}

// AddRule registers a rule. Rules evaluate in registration order.
func (m *Monitor) AddRule(r Rule) error {
	if m == nil {
		return fmt.Errorf("%w: nil monitor", ErrBadRule)
	}
	if r.Name == "" {
		return fmt.Errorf("%w: empty name", ErrBadRule)
	}
	for i := range m.rules {
		if m.rules[i].Name == r.Name {
			return fmt.Errorf("%w: duplicate rule %q", ErrBadRule, r.Name)
		}
	}
	if r.Series == "" {
		return fmt.Errorf("%w: rule %q has no series", ErrBadRule, r.Name)
	}
	if math.IsNaN(r.Threshold) || math.IsInf(r.Threshold, 0) {
		return fmt.Errorf("%w: rule %q threshold %v", ErrBadRule, r.Name, r.Threshold)
	}
	if math.IsNaN(r.Hysteresis) || r.Hysteresis < 0 {
		return fmt.Errorf("%w: rule %q hysteresis %v (must be >= 0)", ErrBadRule, r.Name, r.Hysteresis)
	}
	if r.MinDuration < 0 {
		return fmt.Errorf("%w: rule %q min duration %v", ErrBadRule, r.Name, r.MinDuration)
	}
	if r.Agg != AggLast && r.Window <= 0 {
		return fmt.Errorf("%w: rule %q: %s aggregation needs a positive window", ErrBadRule, r.Name, r.Agg)
	}
	if r.Agg == AggEWMA && (r.Alpha <= 0 || r.Alpha > 1) {
		return fmt.Errorf("%w: rule %q alpha %v (want (0,1])", ErrBadRule, r.Name, r.Alpha)
	}
	m.trace.declareRule(r.Name)
	m.rules = append(m.rules, ruleState{Rule: r})
	return nil
}

// alertValPPM encodes the evaluated value into the event's Val operand
// as parts-per-million fixed point (occupancies and fractions survive
// the int64 round-trip at this resolution).
//
//mmlint:noalloc
func alertValPPM(v float64) int64 {
	switch {
	case math.IsNaN(v):
		return 0
	case v > math.MaxInt64/1e6:
		return math.MaxInt64
	case v < math.MinInt64/1e6:
		return math.MinInt64
	}
	return int64(math.Round(v * 1e6))
}

// Eval evaluates every rule against the series state at virtual time
// `at`. Call it right after Trace.SampleAll on the same tick. It walks
// rules in registration order, allocates nothing, and draws no
// randomness; on a nil receiver it is a no-op.
//
//mmlint:noalloc
func (m *Monitor) Eval(at time.Duration) {
	if m == nil {
		return
	}
	for i := range m.rules {
		r := &m.rules[i]
		if r.series == nil {
			r.series = m.trace.Lookup(r.Series)
			if r.series == nil {
				continue
			}
		}
		v, ok := r.eval(at)
		if !ok {
			continue
		}
		breach := v > r.Threshold
		if r.Below {
			breach = v < r.Threshold
		}
		if !r.active {
			if !breach {
				r.breached = false
				continue
			}
			if !r.breached {
				r.breached = true
				r.breachedSince = at
			}
			if at-r.breachedSince < r.MinDuration {
				continue
			}
			r.active = true
			r.raises++
			m.trace.Emit(at, KindAlertRaise, -1, -1, int32(i), alertValPPM(v))
			if r.OnRaise != nil {
				r.OnRaise(at, v)
			}
			if r.OnActive != nil {
				r.OnActive(at, v)
			}
			continue
		}
		cleared := v <= r.Threshold-r.Hysteresis
		if r.Below {
			cleared = v >= r.Threshold+r.Hysteresis
		}
		if cleared {
			r.active = false
			r.breached = false
			r.clears++
			m.trace.Emit(at, KindAlertClear, -1, -1, int32(i), alertValPPM(v))
			if r.OnClear != nil {
				r.OnClear(at, v)
			}
			continue
		}
		if r.OnActive != nil {
			r.OnActive(at, v)
		}
	}
}

// eval reduces the rule's window to one value at virtual time `at`.
//
//mmlint:noalloc
func (r *ruleState) eval(at time.Duration) (float64, bool) {
	from := at - r.Window
	if from < 0 {
		from = 0
	}
	switch r.Agg {
	case AggLast:
		_, v, ok := r.series.Last()
		return v, ok
	case AggEWMA:
		return r.series.EWMA(from, at, r.Alpha)
	default:
		st, ok := r.series.Window(from, at)
		if !ok {
			return 0, false
		}
		switch r.Agg {
		case AggMean:
			return st.Mean, true
		case AggMin:
			return st.Min, true
		case AggMax:
			return st.Max, true
		case AggSlope:
			return st.Slope, true
		}
		return 0, false
	}
}
