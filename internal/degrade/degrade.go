// Package degrade holds the pure state machines behind graceful
// degradation: a class-priority admission ladder that sheds load from
// the least important traffic first, and a token-bucket circuit breaker
// that paces registration storms into a controlled drain.
//
// Both machines are deterministic by construction: they hold no clock
// and no rng, every decision is a pure function of the inputs the
// caller feeds them on the sampling cadence (ladder) or per send
// attempt (breaker), and virtual time enters only as an argument. The
// scenario engine owns the wiring; this package owns only policy.
package degrade

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/packet"
)

// ErrBadConfig reports an invalid ladder or breaker configuration.
var ErrBadConfig = errors.New("degrade: invalid config")

// Priority orders traffic classes for degradation decisions: higher
// values are protected longer. Background data goes first, interactive
// data next, streaming video adapts before it sheds, and conversational
// voice is protected to the last channel. Control traffic never
// degrades.
func Priority(c packet.Class) int {
	switch c {
	case packet.ClassBackground:
		return 0
	case packet.ClassInteractive:
		return 1
	case packet.ClassStreaming:
		return 2
	case packet.ClassConversational:
		return 3
	default: // ClassControl and anything unclassified
		return 4
	}
}

// LadderConfig parameterises the admission ladder.
type LadderConfig struct {
	// Elevated is the occupancy at or above which the ladder holds at
	// least level 1 (defer new background/interactive admissions, first
	// video stepdown).
	Elevated float64
	// Critical is the occupancy at or above which the ladder deepens one
	// level per evaluation toward the deepest rung.
	Critical float64
	// Hysteresis widens the relax threshold: the ladder steps back up
	// only when occupancy falls below Elevated-Hysteresis, so one noisy
	// sample cannot flap a stepdown.
	Hysteresis float64
	// VideoScales maps ladder level to the streaming-video bitrate scale
	// (VBRVideo.SetLevel). Index 0 must be 1 (full rate) and later rungs
	// must descend strictly within (0, 1]. len(VideoScales)-1 is the
	// deepest level.
	VideoScales []float64
}

// DefaultLadderConfig is the E14 ladder: pressure at 70% occupancy,
// critical at 85%, two video rungs (60% and 35% of full rate).
func DefaultLadderConfig() LadderConfig {
	return LadderConfig{
		Elevated:    0.70,
		Critical:    0.85,
		Hysteresis:  0.10,
		VideoScales: []float64{1, 0.6, 0.35},
	}
}

// Validate rejects degenerate ladder parameters.
func (c LadderConfig) Validate() error {
	for _, v := range []float64{c.Elevated, c.Critical, c.Hysteresis} {
		if math.IsNaN(v) {
			return fmt.Errorf("%w: NaN ladder threshold", ErrBadConfig)
		}
	}
	if c.Elevated <= 0 || c.Elevated > 1 {
		return fmt.Errorf("%w: elevated occupancy %v outside (0, 1]", ErrBadConfig, c.Elevated)
	}
	if c.Critical < c.Elevated || c.Critical > 1 {
		return fmt.Errorf("%w: critical occupancy %v outside [elevated, 1]", ErrBadConfig, c.Critical)
	}
	if c.Hysteresis < 0 || c.Hysteresis >= c.Elevated {
		return fmt.Errorf("%w: hysteresis %v outside [0, elevated)", ErrBadConfig, c.Hysteresis)
	}
	if len(c.VideoScales) == 0 {
		return fmt.Errorf("%w: empty video scale ladder", ErrBadConfig)
	}
	if c.VideoScales[0] != 1 {
		return fmt.Errorf("%w: video scale ladder must start at 1 (got %v)", ErrBadConfig, c.VideoScales[0])
	}
	for i := 1; i < len(c.VideoScales); i++ {
		s := c.VideoScales[i]
		if math.IsNaN(s) || s <= 0 || s >= c.VideoScales[i-1] {
			return fmt.Errorf("%w: video scale ladder must descend strictly within (0, 1] (rung %d = %v)", ErrBadConfig, i, s)
		}
	}
	return nil
}

// Ladder is the class-priority admission ladder: a small hysteretic
// state machine stepped once per sampling tick from the arena's channel
// occupancy. Level 0 is normal operation; each deeper rung defers more
// admission classes and steps streaming video further down the bitrate
// ladder. Evaluation moves at most one rung per tick in either
// direction, so reactions are rate-limited by the sampling cadence and
// recovery is as observable as degradation.
type Ladder struct {
	cfg   LadderConfig
	level int
}

// NewLadder builds a ladder at level 0. The config must be valid.
func NewLadder(cfg LadderConfig) (*Ladder, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Ladder{cfg: cfg}, nil
}

// MaxLevel is the deepest rung.
func (l *Ladder) MaxLevel() int { return len(l.cfg.VideoScales) - 1 }

// Level returns the current rung.
func (l *Ladder) Level() int { return l.level }

// VideoScale returns the streaming-video bitrate scale for the current
// rung (1 at level 0).
func (l *Ladder) VideoScale() float64 { return l.cfg.VideoScales[l.level] }

// Eval steps the ladder from one occupancy observation: at or above
// Critical it deepens one rung, at or above Elevated it holds (entering
// level 1 if still at 0), and below Elevated-Hysteresis it relaxes one
// rung toward 0. It returns the resulting level and
// whether this evaluation changed it.
func (l *Ladder) Eval(occ float64) (level int, changed bool) {
	prev := l.level
	switch {
	case occ >= l.cfg.Critical:
		if l.level < l.MaxLevel() {
			l.level++
		}
	case occ >= l.cfg.Elevated:
		if l.level == 0 {
			l.level = 1
		}
	case occ < l.cfg.Elevated-l.cfg.Hysteresis:
		if l.level > 0 {
			l.level--
		}
	}
	return l.level, l.level != prev
}

// DeferNew reports whether a fresh (non-handoff) admission of the given
// class should be deferred at the current rung: level >= 1 defers
// background and interactive data, level >= 2 defers everything except
// conversational voice. Handoff admissions are never deferred — an
// in-progress session outranks a new one of the same class — and
// conversational voice is admitted down to the last guard channel.
func (l *Ladder) DeferNew(c packet.Class, handoff bool) bool {
	if handoff || l.level == 0 {
		return false
	}
	p := Priority(c)
	if p >= Priority(packet.ClassConversational) {
		return false
	}
	if l.level == 1 {
		return p <= Priority(packet.ClassInteractive)
	}
	return true
}

// CanPreempt reports whether an arriving admission of class c may
// preempt a held session of class victim: only protected arrivals
// (conversational voice, or any handoff continuation) preempt, only
// under pressure (level >= 1), and only strictly lower-priority
// victims.
func (l *Ladder) CanPreempt(c packet.Class, handoff bool, victim packet.Class) bool {
	if l.level == 0 {
		return false
	}
	if !handoff && Priority(c) < Priority(packet.ClassConversational) {
		return false
	}
	return Priority(victim) < Priority(c)
}
