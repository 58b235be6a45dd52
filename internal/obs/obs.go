// Package obs is the deterministic, opt-in observability layer: a
// fixed-capacity structured trace of protocol lifecycle events
// (registration spans, handoff spans, fault windows, sampled packet
// lifecycles) plus sim-time-cadenced time-series sampling of engine and
// protocol gauges.
//
// Determinism contract: every event is stamped with virtual time only,
// emission order is the simulation's own event order, and the trace
// buffer is pre-allocated — so with tracing on, the exported trace is
// byte-identical between sequential and parallel-measurement runs, and
// with tracing off (a nil *Trace) every hook is a nil-receiver no-op
// that adds zero events, zero rng draws and zero allocations. Wall-time
// probes (measure/decide phase timings) are collected separately in
// Wall and excluded from the deterministic exporters.
package obs

import (
	"fmt"
	"time"
)

// Kind classifies one trace event.
type Kind uint8

// Event kinds. The registration kinds span a Mobile IP registration
// lifecycle (attempt → retry* → accept | exhausted, plus lifetime
// expiry); the handoff kinds span a handoff from the trigger decision to
// the first packet delivered on the new path; the fault kinds bracket
// injected fault windows; the packet kinds follow sampled data packets.
const (
	KindRegAttempt Kind = iota + 1
	KindRegRetry
	KindRegExhausted
	KindRegAccept
	KindRegExpire
	KindHandoffTrigger
	KindHandoffRequest
	KindHandoffDetach
	KindHandoffCommit
	KindHandoffFirstData
	KindRouteUpdate
	KindFaultStationDown
	KindFaultStationUp
	KindFaultLinkDegrade
	KindFaultLinkRestore
	KindFaultFadeStart
	KindFaultFadeEnd
	KindRecoveryT90
	KindPacketSent
	KindPacketDelivered
	KindPacketDropped
	KindAlertRaise
	KindAlertClear
	KindDegradePreempt
	KindDegradeVideoStepDown
	KindDegradeVideoStepUp
	KindDegradeDefer
	KindBreakerOpen
	KindBreakerHalfOpen
	KindBreakerClose

	kindCount = KindBreakerClose
)

var kindNames = [...]string{
	KindRegAttempt:       "reg.attempt",
	KindRegRetry:         "reg.retry",
	KindRegExhausted:     "reg.exhausted",
	KindRegAccept:        "reg.accept",
	KindRegExpire:        "reg.expire",
	KindHandoffTrigger:   "handoff.trigger",
	KindHandoffRequest:   "handoff.request",
	KindHandoffDetach:    "handoff.detach",
	KindHandoffCommit:    "handoff.commit",
	KindHandoffFirstData: "handoff.first_data",
	KindRouteUpdate:      "route.update",
	KindFaultStationDown: "fault.station_down",
	KindFaultStationUp:   "fault.station_up",
	KindFaultLinkDegrade: "fault.link_degrade",
	KindFaultLinkRestore: "fault.link_restore",
	KindFaultFadeStart:   "fault.fade_start",
	KindFaultFadeEnd:     "fault.fade_end",
	KindRecoveryT90:      "fault.recovery_t90",
	KindPacketSent:       "pkt.sent",
	KindPacketDelivered:  "pkt.delivered",
	KindPacketDropped:    "pkt.dropped",
	KindAlertRaise:       "alert.raise",
	KindAlertClear:       "alert.clear",

	// Degradation kinds (PR 10). The ladder kinds carry the ladder level
	// in Aux; preempt/defer carry the refused/evicted class in Aux and
	// the victim's flushed packet count in Val; breaker kinds carry the
	// queued backlog in Val.
	KindDegradePreempt:       "degrade.preempted",
	KindDegradeVideoStepDown: "degrade.video_stepdown",
	KindDegradeVideoStepUp:   "degrade.video_stepup",
	KindDegradeDefer:         "degrade.deferred",
	KindBreakerOpen:          "degrade.breaker_open",
	KindBreakerHalfOpen:      "degrade.breaker_half_open",
	KindBreakerClose:         "degrade.breaker_close",
}

// String returns the stable wire name of the kind (used by the JSONL
// exporter and parsed back by cmd/mmtrace).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// KindByName resolves a wire name back to its Kind (0 if unknown).
func KindByName(name string) Kind {
	for k, n := range kindNames {
		if n == name {
			return Kind(k)
		}
	}
	return 0
}

// Kinds lists every kind in declaration order.
func Kinds() []Kind {
	out := make([]Kind, 0, kindCount)
	for k := Kind(1); k <= kindCount; k++ {
		out = append(out, k)
	}
	return out
}

// Event is one trace record. The scalar operands are kind-specific:
// Actor is the MN index (-1 when not MN-scoped), Cell a topology cell ID
// (-1 when none), Aux a kind-specific discriminant (retry count, link
// index, drop reason, handoff kind, flow ID), and Val a kind-specific
// magnitude (latencies and durations in nanoseconds, sequence numbers).
type Event struct {
	At    time.Duration
	Kind  Kind
	Actor int32
	Cell  int32
	Aux   int32
	Val   int64
}

// Config arms the observability layer on a scenario.
type Config struct {
	// Capacity bounds the pre-allocated event buffer; events past it are
	// dropped (counted in Dropped). 0 takes DefaultCapacity.
	Capacity int
	// SampleInterval is the sim-time cadence of time-series sampling
	// (scheduler depth, arena high-water, registry counters, per-root
	// occupancy, session survival). 0 disables sampling.
	SampleInterval time.Duration
	// PacketSampleEvery traces every Nth generated data packet through
	// its lifecycle (sent → delivered | dropped). 0 disables packet
	// sampling.
	PacketSampleEvery int
}

// DefaultCapacity is the event-buffer bound when Config.Capacity is 0.
const DefaultCapacity = 1 << 16

// Meta identifies the run a trace came from.
type Meta struct {
	Scheme   string
	Seed     int64
	MNs      int
	Duration time.Duration
}

// Wall accumulates wall-clock phase timings (collected only in the
// detorder-allowlisted measurement engine). MeasureNS is the time the
// simulation goroutine spends measuring inline or waiting on a parallel
// prime (work the workers overlap with decisions is not in it); DecideNS
// is the time spent in handoff decisions. They are intentionally NOT
// part of the deterministic export: two byte-identical traces may carry
// different wall times.
type Wall struct {
	MeasureNS int64
	DecideNS  int64
}

// Series is one sampled time series: parallel (At, Val) columns in
// observation order.
type Series struct {
	Name string
	At   []time.Duration
	Val  []float64
}

// Observe appends one point.
func (s *Series) Observe(at time.Duration, v float64) {
	s.At = append(s.At, at)
	s.Val = append(s.Val, v)
}

type probe struct {
	s  *Series
	fn func() float64
}

// Trace is the per-run event buffer plus its sampled series. A nil
// *Trace is valid and inert: every method is a nil-receiver no-op, so
// instrumentation hooks can call unconditionally.
type Trace struct {
	Meta Meta
	Wall Wall

	events  []Event
	dropped uint64

	series  []*Series
	byName  map[string]*Series
	probes  []probe
	sampled int // SampleAll invocations, = points per probe series

	// rules are the monitor rule names in registration order; alert
	// events carry the rule index in Aux, and the JSONL export declares
	// the names so timelines stay readable after a round-trip.
	rules []string
}

// New builds a trace with the config's capacity pre-allocated.
func New(cfg Config) *Trace {
	capEvents := cfg.Capacity
	if capEvents <= 0 {
		capEvents = DefaultCapacity
	}
	return &Trace{
		events: make([]Event, 0, capEvents),
		byName: make(map[string]*Series),
	}
}

// Emit appends one event. Past capacity it drops (counted); on a nil
// receiver it is a no-op. This is the hot-path hook: no allocation, no
// rng, sim-time stamp supplied by the caller.
//
//mmlint:noalloc
func (t *Trace) Emit(at time.Duration, k Kind, actor, cell, aux int32, val int64) {
	if t == nil {
		return
	}
	if len(t.events) == cap(t.events) {
		t.dropped++
		return
	}
	t.events = append(t.events, Event{At: at, Kind: k, Actor: actor, Cell: cell, Aux: aux, Val: val}) //mmlint:alloc-ok append stays within the pre-allocated capacity (guarded above)
}

// Events returns the recorded events in emission order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	return t.events
}

// Dropped returns how many events overflowed the buffer.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// Series returns (creating on first use, in registration order) the
// named time series.
func (t *Trace) SeriesByName(name string) *Series {
	if t == nil {
		return nil
	}
	if s, ok := t.byName[name]; ok {
		return s
	}
	s := &Series{Name: name}
	t.byName[name] = s
	t.series = append(t.series, s)
	return s
}

// Lookup returns the named series without creating it (nil when absent
// or on a nil receiver). Monitors resolve their series through this, so
// a rule over an absent series never perturbs registration order.
//
//mmlint:noalloc
func (t *Trace) Lookup(name string) *Series {
	if t == nil {
		return nil
	}
	return t.byName[name]
}

// declareRule records a monitor rule name (registration order = alert
// event Aux) for the exporters.
func (t *Trace) declareRule(name string) {
	if t == nil {
		return
	}
	t.rules = append(t.rules, name)
}

// RuleNames returns the declared monitor rule names in registration
// order; alert events index into this via their Aux operand.
func (t *Trace) RuleNames() []string {
	if t == nil {
		return nil
	}
	return t.rules
}

// RuleName resolves an alert event's Aux operand to its rule name.
func (t *Trace) RuleName(aux int32) string {
	if t == nil || aux < 0 || int(aux) >= len(t.rules) {
		return fmt.Sprintf("rule#%d", aux)
	}
	return t.rules[aux]
}

// AllSeries returns every series in registration order.
func (t *Trace) AllSeries() []*Series {
	if t == nil {
		return nil
	}
	return t.series
}

// AddProbe registers a gauge sampled by every SampleAll call. Probes
// fire in registration order, so the sampled series are deterministic.
func (t *Trace) AddProbe(name string, fn func() float64) {
	if t == nil || fn == nil {
		return
	}
	// Resolving the series at install time reserves its registration order.
	t.probes = append(t.probes, probe{s: t.SeriesByName(name), fn: fn})
}

// SampleAll observes every registered probe at the given virtual time.
func (t *Trace) SampleAll(at time.Duration) {
	if t == nil {
		return
	}
	t.sampled++
	for _, p := range t.probes {
		p.s.Observe(at, p.fn())
	}
}

// Samples reports how many sampling rounds ran.
func (t *Trace) Samples() int {
	if t == nil {
		return 0
	}
	return t.sampled
}
