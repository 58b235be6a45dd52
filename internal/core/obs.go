package core

import (
	"time"

	"repro/internal/obs"
)

// buildObs creates the run's trace when cfg.Obs arms one. It runs before
// any node or scheme construction so every hook site can capture s.trace
// (possibly nil — obs.Trace methods are nil-receiver no-ops, so the
// nil-Obs path stays free of events, draws and allocations).
func (s *scenario) buildObs() {
	c := s.cfg.Obs
	if c == nil {
		return
	}
	s.trace = obs.New(*c)
	s.trace.Meta = obs.Meta{
		Scheme:   string(s.cfg.Scheme),
		Seed:     s.cfg.Seed,
		MNs:      s.cfg.NumMNs,
		Duration: s.cfg.Duration,
	}
	if c.PacketSampleEvery > 0 {
		s.pktEvery = uint64(c.PacketSampleEvery)
	}
	s.handoffAt = make([]time.Duration, s.cfg.NumMNs)
	for i := range s.handoffAt {
		s.handoffAt[i] = -1
	}
}

// installObsProbes registers the engine and protocol gauges and schedules
// the sampling ticker. It runs after the scheme builder and fault
// installation (the probes read scheme state); with
// Obs nil or sampling disabled it never touches the scheduler, so the
// event/seq stream of unsampled runs is unchanged.
func (s *scenario) installObsProbes() {
	tr := s.trace
	if tr == nil || s.cfg.Obs.SampleInterval <= 0 {
		return
	}
	// Engine introspection: raw heap occupancy plus the batching structures
	// that keep it small, and the packet-arena working set.
	tr.AddProbe("sched.heap_depth", func() float64 { return float64(s.sched.Queued()) })
	tr.AddProbe("sched.tick_groups", func() float64 { return float64(s.sched.GroupCount()) })
	tr.AddProbe("sched.delay_lines", func() float64 { return float64(s.sched.LineCount()) })
	if s.arena != nil {
		tr.AddProbe("arena.live", func() float64 { return float64(s.arena.Live()) })
		tr.AddProbe("arena.high_water", func() float64 { return float64(s.arena.HighWater()) })
	}
	// Scenario-wide counters.
	tr.AddProbe("data.sent", func() float64 { return float64(s.acct.Sent) })
	tr.AddProbe("data.delivered", func() float64 { return float64(s.acct.Delivered) })
	tr.AddProbe("handoffs", func() float64 { return float64(s.handoffs.Value()) })
	// Scheme signalling load; the schemes that carry the Mobile IP leg
	// also expose the modelled auth CPU spend.
	for _, name := range s.sch.signalling().probes {
		c := s.reg.Counter(name)
		tr.AddProbe(name, func() float64 { return float64(c.Value()) })
	}
	// Session survival under faults: the fraction of MNs holding a live
	// registration, by the same scheme-specific notion the survival and
	// recovery metrics use.
	if s.cfg.Faults != nil {
		n := s.cfg.NumMNs
		tr.AddProbe("session.registered_frac", func() float64 {
			reg := 0
			for i := 0; i < n; i++ {
				if s.sch.registered(i) {
					reg++
				}
			}
			return float64(reg) / float64(n)
		})
	}
	// Monitors evaluate right after the probes sample, on the same tick:
	// rule decisions see fresh points and never any other clock. With no
	// Control configured s.monitor stays nil and Eval is a nil-receiver
	// no-op — zero events, zero rng draws, zero allocations.
	// The degradation ladder steps last, after the monitor, so a floor
	// forced by a fresh alert applies on the very tick that raised it.
	s.sched.Every(s.cfg.Obs.SampleInterval, func() {
		now := s.sched.Now()
		tr.SampleAll(now)
		s.monitor.Eval(now)
		s.degradeTick(now)
	})
}
