package core

import (
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/mobileip"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/topology"
)

// faultMetrics are created only on fault runs, so a nil-Faults registry
// carries no "fault." names and the E1–E10 goldens stay byte-identical.
type faultMetrics struct {
	stationDowns *metrics.Counter
	stationUps   *metrics.Counter
	linkDegraded *metrics.Counter
	linkRestored *metrics.Counter
	fadeStarts   *metrics.Counter
	fadeEnds     *metrics.Counter

	// recoveryAffected counts MNs left unregistered at each station-up
	// instant; recoveryRecovered the ones re-registered when the tracker
	// hit its 90% target; t90 samples the time that took, in seconds.
	recoveryAffected  *metrics.Counter
	recoveryRecovered *metrics.Counter
	t90               *metrics.Sample

	// population/survivors probe session survival just before the run
	// ends: survivors/population is the fraction of MNs that finish the
	// run registered.
	population *metrics.Counter
	survivors  *metrics.Counter
}

func newFaultMetrics(reg *metrics.Registry) *faultMetrics {
	return &faultMetrics{
		stationDowns:      reg.Counter("fault.station.downs"),
		stationUps:        reg.Counter("fault.station.ups"),
		linkDegraded:      reg.Counter("fault.link.degraded"),
		linkRestored:      reg.Counter("fault.link.restored"),
		fadeStarts:        reg.Counter("fault.fade.starts"),
		fadeEnds:          reg.Counter("fault.fade.ends"),
		recoveryAffected:  reg.Counter("fault.recovery.affected"),
		recoveryRecovered: reg.Counter("fault.recovery.recovered"),
		t90:               reg.Sample("fault.recovery.t90_s"),
		population:        reg.Counter("fault.session.population"),
		survivors:         reg.Counter("fault.session.survivors"),
	}
}

// faultRun is one fault run's installed state: the wired links with
// their creation-time configs (degrade windows add loss/delay on top of
// these and restore exactly them), the telemetry, and the radio fades
// active per cell.
type faultRun struct {
	links []*netsim.Link
	orig  []netsim.LinkConfig
	fm    *faultMetrics
	fades map[topology.CellID]*cellFade
}

// cellFade is one cell's fade stack: its loss is min(1, base + extra),
// extra summing the active fades' shares, and the exact pre-fade base
// returns when the last active fade ends.
type cellFade struct {
	base, extra float64
	active      int
}

// installFaults resolves cfg.Faults against the built topology and wires
// the resulting schedule plus the recovery/survival probes into the event
// queue. It runs after the scheme builder and before RunUntil. On the
// nil-Faults path it returns immediately without touching the scheduler,
// the rng, or the registry.
func (s *scenario) installFaults() error {
	plan := s.cfg.Faults
	if plan == nil {
		return nil
	}
	if err := plan.Validate(); err != nil {
		return err
	}
	links := s.net.Links()
	// The dedicated fault stream: forked only here, so legacy runs draw
	// the exact same sequence they always did.
	rng := s.rng.Fork()
	schedule, err := plan.Expand(s.top, len(links), rng, s.cfg.Duration)
	if err != nil {
		return err
	}
	fr := &faultRun{links: links, orig: make([]netsim.LinkConfig, len(links)),
		fm: newFaultMetrics(s.reg), fades: make(map[topology.CellID]*cellFade)}
	for i, l := range links {
		fr.orig[i] = l.Config()
	}
	for _, ev := range schedule {
		ev := ev
		s.sched.At(ev.At, func() { s.applyFault(ev, fr) })
	}
	// Session-survival probe: one sample strictly inside the run, as
	// close to the end as the clock allows. Fleet runs also attribute
	// each MN's fate to its profile, so degradation matrices can show
	// which traffic class survived the overload — counters registered
	// here, at install time, in profile order.
	var profPop, profSurv []*metrics.Counter
	if s.fleet != nil {
		for _, p := range s.fleet.spec.Profiles {
			profPop = append(profPop, s.reg.Counter("fault.survival."+p.Name+".population"))
			profSurv = append(profSurv, s.reg.Counter("fault.survival."+p.Name+".survivors"))
		}
	}
	probeAt := s.cfg.Duration - time.Millisecond
	if probeAt < 0 {
		probeAt = 0
	}
	s.sched.At(probeAt, func() {
		fr.fm.population.Add(uint64(s.cfg.NumMNs))
		n := 0
		for i := 0; i < s.cfg.NumMNs; i++ {
			var pi int
			if profPop != nil {
				pi = s.fleet.assign[i]
				profPop[pi].Inc()
			}
			if s.sch.registered(i) {
				n++
				if profSurv != nil {
					profSurv[pi].Inc()
				}
			}
		}
		fr.fm.survivors.Add(uint64(n))
	})
	return nil
}

// applyFault executes one resolved fault transition. With tracing armed
// each transition also emits the matching fault-window event (cell- or
// link-scoped), bracketing the outage/degradation/fade in the trace.
func (s *scenario) applyFault(ev faults.Event, fr *faultRun) {
	now := s.sched.Now()
	fm := fr.fm
	switch ev.Kind {
	case faults.StationDown:
		for _, cell := range ev.Cells {
			s.sch.stationDown(cell)
			fm.stationDowns.Inc()
			s.trace.Emit(now, obs.KindFaultStationDown, -1, int32(cell), 0, 0)
		}
	case faults.StationUp:
		for _, cell := range ev.Cells {
			s.sch.stationUp(cell)
			fm.stationUps.Inc()
			s.trace.Emit(now, obs.KindFaultStationUp, -1, int32(cell), 0, 0)
		}
		s.trackRecovery(fm)
	case faults.LinkDegrade:
		for _, idx := range ev.Links {
			l, o := fr.links[idx], fr.orig[idx]
			l.SetLoss(min(1, o.Loss+ev.Loss))
			l.SetDelay(o.Delay + ev.ExtraDelay)
			fm.linkDegraded.Inc()
			s.trace.Emit(now, obs.KindFaultLinkDegrade, -1, -1, int32(idx), int64(ev.ExtraDelay))
		}
	case faults.LinkRestore:
		for _, idx := range ev.Links {
			l, o := fr.links[idx], fr.orig[idx]
			l.SetLoss(o.Loss)
			l.SetDelay(o.Delay)
			fm.linkRestored.Inc()
			s.trace.Emit(now, obs.KindFaultLinkRestore, -1, -1, int32(idx), 0)
		}
	case faults.FadeStart:
		for _, cell := range ev.Cells {
			s.fade(fr, cell, ev.Loss, 1)
			fm.fadeStarts.Inc()
			s.trace.Emit(now, obs.KindFaultFadeStart, -1, int32(cell), 0, 0)
		}
	case faults.FadeEnd:
		for _, cell := range ev.Cells {
			s.fade(fr, cell, ev.Loss, -1)
			fm.fadeEnds.Inc()
			s.trace.Emit(now, obs.KindFaultFadeEnd, -1, int32(cell), 0, 0)
		}
	}
}

// fade starts (dir 1) or ends (dir -1) one fade of the given extra loss
// on cell. A cell the scheme has no station on is left untouched.
func (s *scenario) fade(fr *faultRun, cell topology.CellID, extra float64, dir int) {
	f := fr.fades[cell]
	if f == nil {
		base, ok := s.sch.airLoss(cell)
		if !ok {
			return
		}
		f = &cellFade{base: base}
		fr.fades[cell] = f
	}
	f.active += dir
	f.extra += float64(dir) * extra
	if f.active == 0 {
		s.sch.setAirLoss(cell, f.base)
		delete(fr.fades, cell)
		return
	}
	s.sch.setAirLoss(cell, min(1, f.base+f.extra))
}

// trackRecovery measures the re-registration storm after a station-up
// transition: it snapshots the MNs left unregistered at the recovery
// instant and polls at the measurement cadence until 90% of them hold a
// registration again, then samples the elapsed time. A storm that never
// converges simply keeps polling until the run ends and leaves no t90
// sample — the matrix renders that as a blank, not a fake number.
func (s *scenario) trackRecovery(fm *faultMetrics) {
	upAt := s.sched.Now()
	var affected []int
	for i := 0; i < s.cfg.NumMNs; i++ {
		if !s.sch.registered(i) {
			affected = append(affected, i)
		}
	}
	if len(affected) == 0 {
		return
	}
	fm.recoveryAffected.Add(uint64(len(affected)))
	target := (9*len(affected) + 9) / 10 // ceil(0.9·n)
	var poll func()
	poll = func() {
		n := 0
		for _, i := range affected {
			if s.sch.registered(i) {
				n++
			}
		}
		if n >= target {
			fm.recoveryRecovered.Add(uint64(n))
			fm.t90.Observe((s.sched.Now() - upAt).Seconds())
			s.trace.Emit(s.sched.Now(), obs.KindRecoveryT90, -1, -1, int32(len(affected)), int64(s.sched.Now()-upAt))
			return
		}
		s.sched.After(s.cfg.MeasureInterval, poll)
	}
	s.sched.After(s.cfg.MeasureInterval, poll)
}

// faultMNConfig arms the Mobile IP recovery behaviour fault runs rely on:
// capped exponential backoff with seeded jitter, periodic reattempts
// after retry exhaustion, lifetime-expiry tracking, and a lifetime short
// enough relative to the horizon that renewals actually happen inside
// time-scaled runs.
// The cap and reattempt cadence scale with the horizon (clamped to sane
// wall values). No golden reaches the reattempt loop: in every E11 cell
// the FAs recover, and re-register their MNs, before a retry schedule
// runs out. TestRunConservation's fa-outage cell drives it.
func faultMNConfig(cfg mobileip.MNConfig, horizon time.Duration) mobileip.MNConfig {
	cfg.RetryBackoff = 2
	cfg.RetryJitter = 0.1
	cfg.RetryCap = clampDur(horizon/5, 500*time.Millisecond, 4*time.Second)
	cfg.ReattemptInterval = clampDur(horizon/10, 200*time.Millisecond, 2*time.Second)
	cfg.TrackExpiry = true
	if lt := horizon / 4; lt < cfg.Lifetime {
		if lt < time.Second {
			lt = time.Second
		}
		cfg.Lifetime = lt
	}
	return cfg
}

func clampDur(d, lo, hi time.Duration) time.Duration {
	if d < lo {
		return lo
	}
	if d > hi {
		return hi
	}
	return d
}
