package degrade

import (
	"fmt"
	"math"
	"time"
)

// BreakerState is the registration-storm circuit breaker's state.
type BreakerState uint8

// Breaker states. Closed passes conforming sends straight through;
// Open means the pacing queue has built past the storm threshold and
// every send is being deferred; HalfOpen is the drained-queue probe
// state — the first send that conforms again closes the breaker.
const (
	BreakerClosed BreakerState = iota + 1
	BreakerOpen
	BreakerHalfOpen
)

// String returns the stable wire name of the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// BreakerConfig parameterises the registration-path token bucket.
type BreakerConfig struct {
	// Rate is the sustained registration rate in sends per virtual
	// second once the burst allowance is spent.
	Rate float64
	// Burst is the token-bucket depth: this many back-to-back sends pass
	// unpaced before the bucket is dry.
	Burst int
	// OpenBacklog is the queued-send depth at which the breaker opens —
	// the storm signature. Queued sends are delayed, never dropped, so
	// opening changes telemetry and pacing, not correctness.
	OpenBacklog int
}

// DefaultBreakerConfig paces a recovering root's re-registration storm:
// a 64-send burst rides through normal operation untouched, sustained
// load drains at 400 registrations per virtual second, and 32 queued
// sends mark the breaker open.
func DefaultBreakerConfig() BreakerConfig {
	return BreakerConfig{Rate: 400, Burst: 64, OpenBacklog: 32}
}

// Validate rejects degenerate breaker parameters.
func (c BreakerConfig) Validate() error {
	if math.IsNaN(c.Rate) || math.IsInf(c.Rate, 0) || c.Rate <= 0 {
		return fmt.Errorf("%w: breaker rate %v (must be a positive finite rate)", ErrBadConfig, c.Rate)
	}
	if c.Burst < 1 {
		return fmt.Errorf("%w: breaker burst %d (must be >= 1)", ErrBadConfig, c.Burst)
	}
	if c.OpenBacklog < 1 {
		return fmt.Errorf("%w: breaker open backlog %d (must be >= 1)", ErrBadConfig, c.OpenBacklog)
	}
	return nil
}

// Breaker is a deterministic token-bucket circuit breaker for the
// HA/anchor registration path. It is a virtual-scheduling (GCRA-style)
// bucket: Admit answers "send now" or "send after this delay", the
// caller schedules the deferred send on the simulation clock and
// reports it with Sent when it actually goes. Nothing is ever dropped;
// a storm becomes a paced drain. All state transitions are announced
// through OnState so the scenario engine can trace and count them.
type Breaker struct {
	cfg   BreakerConfig
	gap   time.Duration // 1/Rate
	tat   time.Duration // theoretical arrival time of the next send
	state BreakerState
	// queued is the number of deferred sends admitted but not yet sent.
	queued int

	// OnState, when set, observes every state transition at the virtual
	// time of the Admit or Sent call that caused it.
	OnState func(now time.Duration, s BreakerState)
}

// NewBreaker builds a closed breaker. The config must be valid.
func NewBreaker(cfg BreakerConfig) (*Breaker, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Breaker{
		cfg:   cfg,
		gap:   time.Duration(float64(time.Second) / cfg.Rate),
		state: BreakerClosed,
	}, nil
}

// Queued returns the deferred sends admitted but not yet sent.
func (b *Breaker) Queued() int { return b.queued }

func (b *Breaker) transition(now time.Duration, s BreakerState) {
	if b.state == s {
		return
	}
	b.state = s
	if b.OnState != nil {
		b.OnState(now, s)
	}
}

// Admit asks to send one registration at virtual time now. A zero
// return means the send conforms — transmit immediately (a conforming
// send in the half-open state is the recovery probe and closes the
// breaker). A positive return is the pacing delay: schedule the send
// that far in the future and call Sent when it transmits.
func (b *Breaker) Admit(now time.Duration) time.Duration {
	tol := time.Duration(b.cfg.Burst-1) * b.gap
	if now >= b.tat-tol {
		// Conforming: consume a token.
		if b.tat < now {
			b.tat = now
		}
		b.tat += b.gap
		if b.state == BreakerHalfOpen {
			b.transition(now, BreakerClosed)
		}
		return 0
	}
	delay := b.tat - tol - now
	b.tat += b.gap
	b.queued++
	if b.state == BreakerClosed && b.queued >= b.cfg.OpenBacklog {
		b.transition(now, BreakerOpen)
	}
	return delay
}

// Sent reports that a previously deferred send has transmitted. When an
// open breaker's queue drains, it half-opens: the next conforming Admit
// is the recovery probe that closes it.
func (b *Breaker) Sent(now time.Duration) {
	if b.queued > 0 {
		b.queued--
	}
	if b.state == BreakerOpen && b.queued == 0 {
		b.transition(now, BreakerHalfOpen)
	}
}
