package core

import (
	"fmt"
	"math"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// The closed QoE feedback loop: Config.Control installs an obs.Monitor
// over the sampled series and wires its alerts into the scheme's levers
// (the rootScheme budgets and the prePager refresh, see scheme.go).
// installControl is scheme-agnostic: it builds the rules and binds
// alerts to whatever levers the scheme has, rejecting a policy whose
// lever is missing. All decisions derive from sim-time samples on the
// sampling cadence, so closed-loop runs remain byte-identical between
// sequential and parallel measurement.

// ControlConfig arms the closed-loop policies. Requires Obs with a
// positive SampleInterval (monitors evaluate on the sampling cadence).
type ControlConfig struct {
	// ElasticAdmission shifts per-tier admission budgets toward roots
	// whose occupancy series runs hot — the first slice of elastic
	// re-dimensioning. Multi-tier scheme only.
	ElasticAdmission *ElasticAdmissionConfig
	// PrePaging forces unregistered MNs' location refreshes forward on
	// every sampling tick while session survival dips — the post-fault
	// recovery accelerator. Requires Faults (the survival series exists
	// only on fault runs).
	PrePaging *PrePagingConfig
}

// ElasticAdmissionConfig tunes the occupancy-driven budget shifting.
type ElasticAdmissionConfig struct {
	// HotOccupancy raises the per-root alert when the root's occupancy
	// aggregate exceeds it (0.9 ≈ "root_occupancy > 0.9").
	HotOccupancy float64
	// Hysteresis widens the clear boundary below HotOccupancy.
	Hysteresis float64
	// Window is the sliding window the occupancy mean is taken over.
	Window time.Duration
	// MinDuration is how long the occupancy must stay hot before the
	// budgets shift ("for 20s").
	MinDuration time.Duration
	// ShiftFraction in (0,1] is the fraction of the donor root's
	// per-station channel and bandwidth budgets moved to the hot root's
	// same-tier stations on each raise (reverted exactly on clear).
	ShiftFraction float64
}

// PrePagingConfig tunes the survival-dip pre-paging policy.
type PrePagingConfig struct {
	// MinRegisteredFrac raises the alert when session.registered_frac
	// drops below it (0.95 ≈ "registered_frac < 0.95").
	MinRegisteredFrac float64
	// Hysteresis widens the clear boundary above MinRegisteredFrac.
	Hysteresis float64
	// MinDuration is how long the dip must persist before pre-paging
	// starts. Zero reacts on the first dipped sample.
	MinDuration time.Duration
}

// microOccPrefix names the per-root occupancy gauges the
// elastic-admission rules watch: "ctl.occ.micro.<rootName>" is the
// rootScheme's microOccupancy of that root. installControl registers
// them only when ElasticAdmission is armed, so nil-Control traces carry
// no "ctl." series.
const microOccPrefix = "ctl.occ.micro."

// ctlMetrics are created only on control runs, so a nil-Control registry
// carries no "ctl." names and every existing golden stays byte-identical.
type ctlMetrics struct {
	raised  *metrics.Counter
	cleared *metrics.Counter

	shifts   *metrics.Counter
	reverts  *metrics.Counter
	channels *metrics.Counter

	prepageRounds  *metrics.Counter
	prepageSignals *metrics.Counter
}

func newCtlMetrics(reg *metrics.Registry) *ctlMetrics {
	return &ctlMetrics{
		raised:         reg.Counter("ctl.alerts.raised"),
		cleared:        reg.Counter("ctl.alerts.cleared"),
		shifts:         reg.Counter("ctl.shift.count"),
		reverts:        reg.Counter("ctl.shift.reverts"),
		channels:       reg.Counter("ctl.shift.channels"),
		prepageRounds:  reg.Counter("ctl.prepage.rounds"),
		prepageSignals: reg.Counter("ctl.prepage.signals"),
	}
}

// validateControl rejects closed-loop configs the engine cannot honour.
func (s *scenario) validateControl() error {
	cc := s.cfg.Control
	if cc == nil {
		return nil
	}
	if s.cfg.Obs == nil || s.cfg.Obs.SampleInterval <= 0 {
		return fmt.Errorf("%w: Control requires Obs with a positive SampleInterval (monitors evaluate on the sampling cadence)", ErrBadConfig)
	}
	if ea := cc.ElasticAdmission; ea != nil {
		if !(ea.HotOccupancy > 0 && ea.HotOccupancy <= 1) || math.IsNaN(ea.HotOccupancy) {
			return fmt.Errorf("%w: elastic admission hot occupancy %v (want (0,1])", ErrBadConfig, ea.HotOccupancy)
		}
		if ea.Hysteresis < 0 || math.IsNaN(ea.Hysteresis) {
			return fmt.Errorf("%w: elastic admission hysteresis %v", ErrBadConfig, ea.Hysteresis)
		}
		if ea.Window <= 0 {
			return fmt.Errorf("%w: elastic admission window %v (must be > 0)", ErrBadConfig, ea.Window)
		}
		if ea.MinDuration < 0 {
			return fmt.Errorf("%w: elastic admission min duration %v", ErrBadConfig, ea.MinDuration)
		}
		if !(ea.ShiftFraction > 0 && ea.ShiftFraction <= 1) || math.IsNaN(ea.ShiftFraction) {
			return fmt.Errorf("%w: elastic admission shift fraction %v (want (0,1])", ErrBadConfig, ea.ShiftFraction)
		}
	}
	if pp := cc.PrePaging; pp != nil {
		if !(pp.MinRegisteredFrac > 0 && pp.MinRegisteredFrac <= 1) || math.IsNaN(pp.MinRegisteredFrac) {
			return fmt.Errorf("%w: pre-paging registered fraction %v (want (0,1])", ErrBadConfig, pp.MinRegisteredFrac)
		}
		if pp.Hysteresis < 0 || math.IsNaN(pp.Hysteresis) {
			return fmt.Errorf("%w: pre-paging hysteresis %v", ErrBadConfig, pp.Hysteresis)
		}
		if pp.MinDuration < 0 {
			return fmt.Errorf("%w: pre-paging min duration %v", ErrBadConfig, pp.MinDuration)
		}
		if s.cfg.Faults == nil {
			return fmt.Errorf("%w: pre-paging requires Faults (the survival series exists only on fault runs)", ErrBadConfig)
		}
	}
	return nil
}

// installControl builds the monitor and binds its alerts to the scheme
// levers. It runs after installObsProbes (the watched series must exist)
// and before RunUntil. On the nil-Control path it returns immediately
// without touching the registry, the scheduler, or the trace.
func (s *scenario) installControl() error {
	cc := s.cfg.Control
	if cc == nil {
		return nil
	}
	cm := newCtlMetrics(s.reg)
	m := obs.NewMonitor(s.trace)
	// Every rule's raise/clear transits the shared alert counters; the
	// wrapping preserves the policy callbacks underneath.
	addRule := func(r obs.Rule) error {
		onRaise, onClear := r.OnRaise, r.OnClear
		r.OnRaise = func(at time.Duration, v float64) {
			cm.raised.Inc()
			if onRaise != nil {
				onRaise(at, v)
			}
		}
		r.OnClear = func(at time.Duration, v float64) {
			cm.cleared.Inc()
			if onClear != nil {
				onClear(at, v)
			}
		}
		return m.AddRule(r)
	}

	if ea := cc.ElasticAdmission; ea != nil {
		rs, ok := s.sch.(rootScheme)
		if !ok {
			return fmt.Errorf("%w: scheme %q has no per-root admission budgets for elastic admission", ErrBadConfig, s.cfg.Scheme)
		}
		// One rule per root: micro-tier occupancy mean over the window
		// running hot raises the alert; the coolest other root donates
		// budget. A root without micro channels reads as full.
		names := rs.rootNames()
		occ := make([]*obs.Series, len(names))
		for ri, name := range names {
			ri := ri
			s.trace.AddProbe(microOccPrefix+name, func() float64 {
				if u, ok := rs.microOccupancy(ri); ok {
					return u
				}
				return 1
			})
			occ[ri] = s.trace.Lookup(microOccPrefix + name)
			err := addRule(obs.Rule{
				Name:        "occ.hot." + name,
				Series:      microOccPrefix + name,
				Agg:         obs.AggMean,
				Window:      ea.Window,
				Threshold:   ea.HotOccupancy,
				Hysteresis:  ea.Hysteresis,
				MinDuration: ea.MinDuration,
				OnRaise: func(at time.Duration, v float64) {
					donor := coolestRoot(occ, ri)
					if donor < 0 {
						return
					}
					if n := rs.shift(ri, donor, ea.ShiftFraction); n > 0 {
						cm.shifts.Inc()
						cm.channels.Add(uint64(n))
					}
				},
				OnClear: func(at time.Duration, v float64) {
					if rs.revert(ri) > 0 {
						cm.reverts.Inc()
					}
				},
			})
			if err != nil {
				return err
			}
		}
	}

	if pp := cc.PrePaging; pp != nil {
		pager, ok := s.sch.(prePager)
		if !ok {
			return fmt.Errorf("%w: scheme %q has no pre-paging lever", ErrBadConfig, s.cfg.Scheme)
		}
		err := addRule(obs.Rule{
			Name:        "survival.dip",
			Series:      "session.registered_frac",
			Agg:         obs.AggLast,
			Below:       true,
			Threshold:   pp.MinRegisteredFrac,
			Hysteresis:  pp.Hysteresis,
			MinDuration: pp.MinDuration,
			// Pre-paging acts on every tick the dip persists: each round
			// pulls the still-unregistered MNs' refreshes forward instead
			// of waiting out their own paging/backoff timers.
			OnActive: func(at time.Duration, v float64) {
				cm.prepageRounds.Inc()
				cm.prepageSignals.Add(uint64(pager.prePage()))
			},
		})
		if err != nil {
			return err
		}
	}

	s.monitor = m
	return nil
}

// coolestRoot picks the donor: the root (excluding hot) whose occupancy
// series last sampled lowest, ties to the lowest index. Roots without a
// sample yet count as cold. Returns -1 when there is no other root.
func coolestRoot(occ []*obs.Series, hot int) int {
	donor, best := -1, math.Inf(1)
	for ri, s := range occ {
		if ri == hot {
			continue
		}
		v := 0.0
		if _, last, ok := s.Last(); ok {
			v = last
		}
		if v < best {
			donor, best = ri, v
		}
	}
	return donor
}
