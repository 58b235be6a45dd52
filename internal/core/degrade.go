package core

import (
	"fmt"
	"time"

	"repro/internal/degrade"
	"repro/internal/metrics"
	"repro/internal/multitier"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// Graceful degradation under overload: Config.Degrade arms the pure
// state machines of internal/degrade on the scenario. The ladder is
// stepped once per Obs sampling tick from the hottest root's micro-tier
// occupancy and steers station admission (defer new low-priority
// arrivals, preempt for protected ones) plus streaming-video bitrate;
// the breaker paces the HA/anchor registration path so recovery storms
// drain at a controlled rate instead of flooding. The ladder needs a
// rootScheme and the breaker a regPaced scheme (see scheme.go). Like
// Faults/Control, every hook exists only on armed runs: the nil-Degrade
// path adds zero events, zero rng draws, zero allocations and zero
// metric names.

// DegradeConfig arms graceful degradation. At least one of Ladder and
// Breaker must be set.
type DegradeConfig struct {
	// Ladder arms the class-priority admission ladder and video rate
	// adaptation. Requires Obs with a positive SampleInterval (the
	// ladder evaluates on the sampling cadence). Multi-tier scheme only.
	Ladder *degrade.LadderConfig
	// Breaker arms the registration-storm circuit breaker on the
	// HA/anchor registration path (multi-tier root anchors, and the flat
	// Mobile IP recovery storm); Cellular IP has no such path. Works
	// without Obs: it is consulted per send attempt, not on the
	// sampling cadence.
	Breaker *degrade.BreakerConfig
}

// degradeMetrics are created only on degrade runs, so a nil-Degrade
// registry carries no "ctl.degrade." names and every existing golden
// stays byte-identical.
type degradeMetrics struct {
	preempted    *metrics.Counter
	preemptDrops *metrics.Counter
	deferred     *metrics.Counter
	stepdowns    *metrics.Counter
	stepups      *metrics.Counter

	breakerPaced     *metrics.Counter
	breakerOpens     *metrics.Counter
	breakerHalfOpens *metrics.Counter
	breakerCloses    *metrics.Counter
}

func newDegradeMetrics(reg *metrics.Registry) *degradeMetrics {
	return &degradeMetrics{
		preempted:        reg.Counter("ctl.degrade.preempted"),
		preemptDrops:     reg.Counter("ctl.degrade.preempt_drops"),
		deferred:         reg.Counter("ctl.degrade.deferred"),
		stepdowns:        reg.Counter("ctl.degrade.video_stepdowns"),
		stepups:          reg.Counter("ctl.degrade.video_stepups"),
		breakerPaced:     reg.Counter("ctl.degrade.breaker.paced"),
		breakerOpens:     reg.Counter("ctl.degrade.breaker.opens"),
		breakerHalfOpens: reg.Counter("ctl.degrade.breaker.half_opens"),
		breakerCloses:    reg.Counter("ctl.degrade.breaker.closes"),
	}
}

// degradeState is the per-run degradation wiring: the policy machines,
// the roots whose occupancy the ladder is stepped from, the video
// generators it adapts, and the applied-level cursor that turns level
// transitions into stepdown/stepup telemetry. It exists only when
// Config.Degrade is set.
type degradeState struct {
	ladder  *degrade.Ladder
	breaker *degrade.Breaker
	dm      *degradeMetrics

	// roots is the scheme the ladder reads its gauge from each sampling
	// tick: the hottest root's micro-tier channel occupancy (the tier
	// overload saturates first).
	roots rootScheme
	// videos are the streaming generators the ladder rate-adapts.
	videos []*traffic.VBRVideo
	// applied is the last ladder level pushed to the videos.
	applied int
}

// degradeState paces the scheme's registrations.
var _ multitier.RegPacer = (*degradeState)(nil)

// Admit implements multitier.RegPacer: it delegates to the breaker and
// counts paced sends.
func (ds *degradeState) Admit(now time.Duration) time.Duration {
	delay := ds.breaker.Admit(now)
	if delay > 0 {
		ds.dm.breakerPaced.Inc()
	}
	return delay
}

// Sent implements multitier.RegPacer.
func (ds *degradeState) Sent(now time.Duration) { ds.breaker.Sent(now) }

// newDegradeState rejects degradation configs the engine cannot honour
// and builds the policy machines, which validate their own parameters.
// It runs before the scheme builder, so startTraffic can collect the
// video generators the ladder adapts; the scheme-capability checks wait
// for installDegrade. A nil Config.Degrade builds nothing.
func (s *scenario) newDegradeState() (*degradeState, error) {
	dc := s.cfg.Degrade
	if dc == nil {
		return nil, nil
	}
	if dc.Ladder == nil && dc.Breaker == nil {
		return nil, fmt.Errorf("%w: Degrade set but arms nothing (need Ladder and/or Breaker)", ErrBadConfig)
	}
	if dc.Ladder != nil && (s.cfg.Obs == nil || s.cfg.Obs.SampleInterval <= 0) {
		return nil, fmt.Errorf("%w: Degrade.Ladder requires Obs with a positive SampleInterval (the ladder evaluates on the sampling cadence)", ErrBadConfig)
	}
	ds := &degradeState{}
	if dc.Ladder != nil {
		l, err := degrade.NewLadder(*dc.Ladder)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		ds.ladder = l
	}
	if dc.Breaker != nil {
		b, err := degrade.NewBreaker(*dc.Breaker)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadConfig, err)
		}
		ds.breaker = b
	}
	return ds, nil
}

// installDegrade binds the machines to the scheme's levers — the ladder
// to its root occupancy and station admission, the breaker to its
// registration path — and creates the degradation telemetry. It runs
// before RunUntil. On the nil-Degrade path it returns immediately.
func (s *scenario) installDegrade() error {
	ds := s.degradeState
	if ds == nil {
		return nil
	}
	ds.dm = newDegradeMetrics(s.reg)
	if ds.ladder != nil {
		rs, ok := s.sch.(rootScheme)
		if !ok {
			return fmt.Errorf("%w: scheme %q has no per-root occupancy for Degrade.Ladder", ErrBadConfig, s.cfg.Scheme)
		}
		ds.roots = rs
		rs.setDegrade(&multitier.DegradeHooks{
			DeferNew:   ds.ladder.DeferNew,
			CanPreempt: ds.ladder.CanPreempt,
			Rank:       degrade.Priority,
			OnDefer: func(cell topology.CellID, class packet.Class) {
				ds.dm.deferred.Inc()
				s.trace.Emit(s.sched.Now(), obs.KindDegradeDefer, -1, int32(cell), int32(class), 0)
			},
			OnPreempt: func(cell topology.CellID, victim packet.Class, flushed int) {
				ds.dm.preempted.Inc()
				ds.dm.preemptDrops.Add(uint64(flushed))
				s.trace.Emit(s.sched.Now(), obs.KindDegradePreempt, -1, int32(cell), int32(victim), int64(flushed))
			},
		})
	}
	if ds.breaker != nil {
		rp, ok := s.sch.(regPaced)
		if !ok {
			return fmt.Errorf("%w: scheme %q has no registration path for Degrade.Breaker", ErrBadConfig, s.cfg.Scheme)
		}
		rp.setRegPacer(ds)
		ds.breaker.OnState = func(now time.Duration, st degrade.BreakerState) {
			switch st {
			case degrade.BreakerOpen:
				ds.dm.breakerOpens.Inc()
				s.trace.Emit(now, obs.KindBreakerOpen, -1, -1, 0, int64(ds.breaker.Queued()))
			case degrade.BreakerHalfOpen:
				ds.dm.breakerHalfOpens.Inc()
				s.trace.Emit(now, obs.KindBreakerHalfOpen, -1, -1, 0, int64(ds.breaker.Queued()))
			case degrade.BreakerClosed:
				ds.dm.breakerCloses.Inc()
				s.trace.Emit(now, obs.KindBreakerClose, -1, -1, 0, int64(ds.breaker.Queued()))
			}
		}
	}
	return nil
}

// degradeTick steps the ladder from the hottest root's micro occupancy
// and pushes a changed level out to the video generators and the
// stepdown/stepup telemetry — called on every sampling tick, right after
// the monitor evaluates. A nil-Degrade run takes one predictable branch
// and nothing else.
func (s *scenario) degradeTick(now time.Duration) {
	ds := s.degradeState
	if ds == nil || ds.ladder == nil {
		return
	}
	worst := 0.0
	for ri := range ds.roots.rootNames() {
		if u, ok := ds.roots.microOccupancy(ri); ok && u > worst {
			worst = u
		}
	}
	ds.ladder.Eval(worst)
	lvl := ds.ladder.Level()
	if lvl == ds.applied {
		return
	}
	if lvl > ds.applied {
		ds.dm.stepdowns.Inc()
		s.trace.Emit(now, obs.KindDegradeVideoStepDown, -1, -1, int32(lvl), 0)
	} else {
		ds.dm.stepups.Inc()
		s.trace.Emit(now, obs.KindDegradeVideoStepUp, -1, -1, int32(lvl), 0)
	}
	scale := ds.ladder.VideoScale()
	for _, v := range ds.videos {
		v.SetLevel(scale)
	}
	ds.applied = lvl
}

// classFor maps a traffic mix to its dominant (most delay-sensitive)
// class — the class admission records on granted sessions so the ladder
// can rank preemption victims.
func classFor(tc TrafficConfig) packet.Class {
	switch {
	case tc.Voice:
		return packet.ClassConversational
	case tc.Video:
		return packet.ClassStreaming
	case tc.DataMeanInterval > 0:
		return packet.ClassInteractive
	}
	return 0
}
