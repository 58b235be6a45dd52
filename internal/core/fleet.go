package core

import (
	"fmt"
	"slices"

	"repro/internal/addr"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// fleetState is the per-run resolution of a fleet.Spec: the seed-stable
// MN→profile assignment plus one bounded Breakdown aggregate per
// profile. It exists only when Config.Fleet is set; every accessor on
// scenario degrades to the legacy homogeneous behaviour when it is nil.
type fleetState struct {
	spec    *fleet.Spec
	assign  []int                // MN index → profile index
	bds     []*metrics.Breakdown // per profile, registered in the registry
	traffic []TrafficConfig      // per profile, converted once
}

// validMobilityKind reports whether the scenario engine knows the kind.
func validMobilityKind(k MobilityKind) bool { return slices.Contains(MobilityKinds(), k) }

// buildFleet resolves cfg.Fleet into per-MN assignments and per-profile
// aggregates. A nil spec is a no-op (legacy homogeneous population).
func (s *scenario) buildFleet() error {
	spec := s.cfg.Fleet
	if spec == nil {
		return nil
	}
	if err := spec.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrBadConfig, err)
	}
	fs := &fleetState{spec: spec}
	fs.assign = spec.Assign(s.cfg.NumMNs, s.cfg.Seed)
	// Tally populations from the assignment itself rather than invoking
	// the apportionment a second time: one derivation, one truth.
	counts := make([]int, len(spec.Profiles))
	for _, pi := range fs.assign {
		counts[pi]++
	}
	for i, p := range spec.Profiles {
		if !validMobilityKind(MobilityKind(p.Mobility)) {
			return fmt.Errorf("%w: fleet profile %q: unknown mobility %q", ErrBadConfig, p.Name, p.Mobility)
		}
		bd := s.reg.Breakdown("fleet.profile." + p.Name)
		bd.Population = counts[i]
		fs.bds = append(fs.bds, bd)
		fs.traffic = append(fs.traffic, TrafficConfig{
			Voice:            p.Traffic.Voice,
			Video:            p.Traffic.Video,
			DataMeanInterval: p.Traffic.DataMeanInterval,
		})
	}
	s.fleet = fs
	return nil
}

// breakdown returns MN i's class aggregate, nil without a fleet.
func (s *scenario) breakdown(i int) *metrics.Breakdown {
	if s.fleet == nil {
		return nil
	}
	return s.fleet.bds[s.fleet.assign[i]]
}

// trafficFor returns MN i's downlink mix.
func (s *scenario) trafficFor(i int) TrafficConfig {
	if s.fleet == nil {
		return s.cfg.Traffic
	}
	return s.fleet.traffic[s.fleet.assign[i]]
}

// breakdownForFlow attributes a flow ID to its MN's class aggregate for
// drop accounting (flow IDs are allocated as mnIndex*4 + {1,2,3}).
func (fs *fleetState) breakdownForFlow(flowID uint32) *metrics.Breakdown {
	if flowID == 0 {
		return nil
	}
	mn := int((flowID - 1) / 4)
	if mn >= len(fs.assign) {
		return nil
	}
	return fs.bds[fs.assign[mn]]
}

// buildFleetMobility creates one model per MN from its assigned profile:
// the profile's mobility kind with a per-MN speed drawn from the
// profile's jitter window. Speeds are recorded into the class aggregate
// so tables can report the realised distribution.
func (s *scenario) buildFleetMobility(rng *simtime.Rand) {
	micros := s.top.CellsOfTier(topology.TierMicro)
	macros := s.top.CellsOfTier(topology.TierMacro)
	s.models = make([]mobility.Model, s.cfg.NumMNs)
	for i := range s.models {
		pi := s.fleet.assign[i]
		p := s.fleet.spec.Profiles[pi]
		speed := p.SpeedMPS
		if p.SpeedJitter > 0 && speed > 0 {
			speed *= 1 + p.SpeedJitter*rng.Uniform(-1, 1)
		}
		s.fleet.bds[pi].Speed.Observe(speed)
		s.models[i] = s.modelFor(MobilityKind(p.Mobility), speed, i, micros, macros, rng)
	}
}

// noteHandoff counts a committed handoff for MN i: the scenario total
// plus, under a fleet, the MN's class aggregate. With tracing armed it
// also opens the handoff span the next delivered packet closes.
func (s *scenario) noteHandoff(i int) {
	s.handoffs.Inc()
	if bd := s.breakdown(i); bd != nil {
		bd.Handoffs.Inc()
	}
	if s.trace != nil {
		now := s.sched.Now()
		s.trace.Emit(now, obs.KindHandoffTrigger, int32(i), -1, 0, 0)
		s.handoffAt[i] = now
	}
}

// signalSink returns MN i's location-update attribution hook: each
// location-management message the MN originates counts into its class
// aggregate. nil without a fleet (nothing to attribute to).
func (s *scenario) signalSink(i int) func() {
	bd := s.breakdown(i)
	if bd == nil {
		return nil
	}
	return bd.LocationUpdates.Inc
}

// pageSink returns the network-side paging attribution hook: stations
// report the address they paged for and the sink charges the owning
// MN's class aggregate. byAddr maps each MN's scheme-level address to
// its class; nil without a fleet.
func (s *scenario) pageSink(byAddr map[addr.IP]*metrics.Breakdown) func(addr.IP) {
	if s.fleet == nil {
		return nil
	}
	return func(ip addr.IP) {
		if bd := byAddr[ip]; bd != nil {
			bd.Pages.Inc()
		}
	}
}

// dataAlloc returns the allocator traffic generators should draw from:
// the scenario's private arena when Config.PacketArena is set, else nil
// (the global pool).
func (s *scenario) dataAlloc() packet.Allocator {
	if s.arena == nil {
		return nil
	}
	return s.arena
}
