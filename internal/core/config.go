// Package core is the scenario engine: it assembles a multi-tier radio
// topology, a population of mobile nodes with mobility models and
// multimedia traffic, and one of four mobility-management schemes, runs
// the discrete-event simulation, and reports comparable metrics.
//
// The four schemes share the same topology, mobility traces and traffic,
// so differences in the results isolate the mobility management itself:
//
//   - SchemeMobileIP: plain Mobile IP with one Foreign Agent per macro
//     cell (the paper's §2.2.1 baseline).
//   - SchemeCellularIPHard / SchemeCellularIPSemisoft: a flat Cellular IP
//     access network over all cells (§2.2.2 baseline) with hard or
//     semisoft handoff.
//   - SchemeMultiTier: the paper's contribution — hierarchical location
//     management, the three-factor handoff strategy and RSMC resource
//     switching (§3–§4).
package core

import (
	"errors"
	"time"

	"repro/internal/capacity"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/topology"
)

// Scheme selects the mobility-management protocol under test.
type Scheme string

// Schemes.
const (
	SchemeMobileIP           Scheme = "mobile-ip"
	SchemeCellularIPHard     Scheme = "cellular-ip-hard"
	SchemeCellularIPSemisoft Scheme = "cellular-ip-semisoft"
	SchemeMultiTier          Scheme = "multitier-rsmc"
)

// Schemes lists every scheme in comparison order.
func Schemes() []Scheme {
	return []Scheme{SchemeMobileIP, SchemeCellularIPHard, SchemeCellularIPSemisoft, SchemeMultiTier}
}

// MobilityKind selects the movement model for the MN population.
type MobilityKind string

// Mobility kinds.
const (
	// MobilityWaypoint roams the whole arena (random waypoint).
	MobilityWaypoint MobilityKind = "waypoint"
	// MobilityShuttle ping-pongs each MN between two micro-cell centres
	// (deterministic repeated handoffs).
	MobilityShuttle MobilityKind = "shuttle"
	// MobilityShuttleDomains ping-pongs each MN between the centres of
	// two domain macro cells — the workload that forces macro-level
	// (Mobile IP) handoffs and inter-domain multi-tier handoffs.
	MobilityShuttleDomains MobilityKind = "shuttle-domains"
	// MobilityShuttleTier ping-pongs each MN between a micro-cell centre
	// and its domain macro centre — the workload that forces the
	// micro→macro and macro→micro cases of Fig 3.4.
	MobilityShuttleTier MobilityKind = "shuttle-tier"
	// MobilityManhattan drives a street grid across the arena.
	MobilityManhattan MobilityKind = "manhattan"
	// MobilityStatic keeps MNs at micro-cell centres (no handoffs).
	MobilityStatic MobilityKind = "static"
	// MobilityHotspot confines random-waypoint roaming to the first
	// root's micro-cell footprint — the crowd-at-the-stadium workload
	// that overloads one root of a grid dimensioned for a uniform
	// spread (the elastic-admission stressor of E13).
	MobilityHotspot MobilityKind = "hotspot"
)

// MobilityKinds lists every mobility kind the scenario engine knows.
func MobilityKinds() []MobilityKind {
	return []MobilityKind{MobilityWaypoint, MobilityShuttle, MobilityShuttleDomains,
		MobilityShuttleTier, MobilityManhattan, MobilityStatic, MobilityHotspot}
}

// TrafficConfig enables downlink flows per MN.
type TrafficConfig struct {
	// Voice enables a 64 kb/s conversational CBR stream.
	Voice bool
	// Video enables a ~300 kb/s streaming VBR stream.
	Video bool
	// DataMeanInterval enables a Poisson interactive flow with the given
	// mean packet gap (0 disables).
	DataMeanInterval time.Duration
}

// DemandBPS returns the admission-control bandwidth of the flow set. The
// rate model lives on fleet.Traffic so the capacity planner dimensions
// arenas in the same bits the admission controller charges.
func (tc TrafficConfig) DemandBPS() float64 {
	return fleet.Traffic{
		Voice:            tc.Voice,
		Video:            tc.Video,
		DataMeanInterval: tc.DataMeanInterval,
	}.DemandBPS()
}

// Config describes one scenario run.
type Config struct {
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// Duration is the simulated time span.
	Duration time.Duration
	// Scheme is the mobility management under test.
	Scheme Scheme
	// Topology shapes the cell layout. Zero value takes
	// topology.DefaultConfig.
	Topology topology.Config
	// NumMNs is the mobile-node population.
	NumMNs int
	// Mobility selects the movement model.
	Mobility MobilityKind
	// SpeedMPS is the (mean) node speed.
	SpeedMPS float64
	// Traffic enables per-MN downlink flows.
	Traffic TrafficConfig
	// MeasureInterval is the MN measurement/decision cadence; 0 means
	// 100 ms and a negative interval is rejected.
	MeasureInterval time.Duration
	// MeasureWorkers > 1 runs the per-MN measurement phase (position +
	// signal computation — pure per MN, shadowing included) on that many
	// goroutines, the simulation goroutine included: MeasureWorkers−1
	// persistent workers fill a ring of three cycles' measurements, up to
	// two cycles ahead of the one whose handoff decisions the simulation
	// goroutine is applying, and the simulation goroutine measures
	// alongside them whenever the cycle it opens is not done. Decisions
	// still apply sequentially, in id order, at their original virtual
	// instants, so results are byte-identical to sequential execution for
	// any worker count. Run starts the workers and joins them at its
	// deadline, so none outlives it. 0 or 1 measures inline; a negative
	// count is rejected.
	MeasureWorkers int
	// ResourceSwitching toggles RSMC buffering (multi-tier only).
	ResourceSwitching bool
	// GuardChannels overrides the per-tier guard channel count when >= 0.
	GuardChannels int
	// AuthEnabled arms registration-path authentication: per-domain RSMC
	// authentication on multi-tier handoffs, plus MHAE-style signing and
	// HA-side verification (timestamp window, replay rejection) of Mobile
	// IP registrations — MN registrations on the flat scheme, anchor
	// registrations on multi-tier. Signed registrations carry the
	// 40-byte extension, so the signalling byte counters include the
	// per-message authentication cost.
	AuthEnabled bool
	// TableTTL overrides the location-table record lifetime (0 keeps the
	// station default; negative is rejected) — ablation D1.
	TableTTL time.Duration
	// SemisoftDelay overrides the Cellular IP semisoft window (0 keeps
	// the default; negative is rejected) — ablation D2.
	SemisoftDelay time.Duration
	// Shadowing enables log-normal shadowing on MN measurements: each MN
	// draws from its own stream, once per in-range cell per measurement.
	// Off, handoffs are deterministic functions of position.
	Shadowing bool
	// Fleet optionally assigns the MN population to heterogeneous
	// profiles (population share, mobility model + speed distribution,
	// multimedia traffic mix). When set, the homogeneous Mobility,
	// SpeedMPS and Traffic fields above are ignored: every MN runs its
	// assigned profile's workload, and per-profile loss/latency/handoff
	// breakdowns are aggregated under "fleet.profile.<name>" in the
	// metrics registry. The assignment is a pure function of
	// (spec, NumMNs, Seed), so fleet runs stay deterministic and
	// parallel-safe. nil keeps the legacy single-profile behaviour.
	Fleet *fleet.Spec
	// PacketArena gives the run a private packet arena instead of the
	// process-global pool — the per-scenario allocator population-scale
	// runs use so workers never share packet storage.
	PacketArena bool
	// Capacity optionally runs the scenario on a dimensioned arena: the
	// plan's sized topology replaces Topology, and on the multi-tier
	// scheme the plan's per-tier budgets override the station admission
	// defaults (the flat schemes have no admission model and simply get
	// the larger cell layout). nil keeps the fixed topology — the
	// default path is byte-identical with or without this field present.
	Capacity *capacity.Plan
	// Faults optionally injects deterministic failures: the plan's
	// station-outage / link-degradation / radio-fade windows are resolved
	// against the built topology with a dedicated seeded rng stream and
	// executed as scheduled events, and recovery/survival probes are
	// installed under the "fault." metrics prefix. Registration recovery
	// behaviour (backoff, reattempt, lifetime-expiry tracking) is armed on
	// the Mobile IP population at the same time. nil injects nothing —
	// the default path is byte-identical with or without this field
	// present.
	Faults *faults.Plan
	// Obs optionally arms the deterministic observability layer: protocol
	// lifecycle trace events, sim-time-cadenced time-series sampling of
	// engine/protocol gauges, and sampled packet lifecycles, all exported
	// through Result.Trace. Emission order is the simulation's own event
	// order and all stamps are virtual time, so the exported trace is
	// byte-identical between sequential and parallel-measurement runs.
	// nil records nothing — zero events, zero rng draws, zero
	// allocations — so the default path stays byte-identical with or
	// without this field present.
	Obs *obs.Config
	// Control optionally closes the QoE feedback loop: deterministic SLO
	// monitors (threshold + hysteresis + min-duration rules over the
	// sampled series) evaluated on the Obs sampling cadence, driving
	// elastic admission-budget shifts toward hot roots and post-fault
	// pre-paging while session survival dips. Requires Obs with a
	// positive SampleInterval — decisions come from sim-time samples
	// only, so closed-loop traces stay golden-pinnable. nil installs no
	// monitor — zero events, zero rng draws, zero allocations on the
	// sampling path — so the default path is byte-identical with or
	// without this field present.
	Control *ControlConfig
	// Degrade optionally arms graceful degradation under overload: a
	// class-priority admission ladder (defer new low-priority arrivals,
	// preempt held lower-priority sessions for protected ones) stepped
	// on the Obs sampling cadence from root occupancy, streaming-video
	// rate adaptation down the ladder's bitrate rungs, and a circuit
	// breaker that paces the HA/anchor registration path through
	// re-registration storms. The ladder requires Obs with a positive
	// SampleInterval; the breaker stands alone. nil arms nothing — zero
	// events, zero rng draws, zero allocations, zero metric names — so
	// the default path is byte-identical with or without this field
	// present.
	Degrade *DegradeConfig
	// AuthCPUCostNS models the CPU cost of one MHAE sign/verify
	// operation: each signed registration charges it once at the MN and
	// each verification once at the HA, accumulated in the
	// "mip.auth.cpu_ns" counter. 0 charges nothing (the legacy path);
	// it never changes packet timing, only the accounting.
	AuthCPUCostNS uint64
}

// DefaultConfig is a moderate scenario: one-root topology so every scheme
// is well defined, 8 MNs shuttling between micro cells with voice.
func DefaultConfig() Config {
	topCfg := topology.DefaultConfig()
	topCfg.Roots = 1
	return Config{
		Seed:              1,
		Duration:          60 * time.Second,
		Scheme:            SchemeMultiTier,
		Topology:          topCfg,
		NumMNs:            8,
		Mobility:          MobilityShuttle,
		SpeedMPS:          10,
		Traffic:           TrafficConfig{Voice: true},
		MeasureInterval:   100 * time.Millisecond,
		ResourceSwitching: true,
		GuardChannels:     -1,
	}
}

// Errors returned by Run.
var (
	ErrBadScheme = errors.New("core: unknown scheme")
	ErrBadConfig = errors.New("core: invalid config")
)
