package experiments

import (
	"fmt"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/runner"
	"repro/internal/topology"
)

// ClosedLoopMatrix parameterises E13: the closed QoE feedback loop
// measured against its own open-loop baseline. Every population runs a
// dimensioned multi-tier arena under every fault profile twice — once
// with telemetry recording only (open) and once with Config.Control
// armed (closed: elastic admission shifting budgets toward the hot
// root, plus post-fault pre-paging) — so each row pair isolates what
// the feedback loop bought on identical deterministic schedules.
type ClosedLoopMatrix struct {
	// Populations is the ascending MN-count axis (same validation rules
	// as ScaleSweep). The capacity planner dimensions each population,
	// so crowd sizes map to multi-root arenas.
	Populations []int
	// Duration is the virtual span of each scenario; fault windows are
	// fractions of it and control windows scale from it.
	Duration time.Duration
	// Spec is the population mix. The default HotspotSpec concentrates
	// every class around the first root's subtree so one root runs hot
	// while the others idle — the shape elastic admission exists for.
	Spec fleet.Spec
	// Profiles are the fault plans injected under both loop modes.
	// Empty takes closedLoopProfiles(): baseline (no faults, probes
	// armed) and root-blackout (every root down mid-run, so recovery
	// speed compares on the hot root too).
	Profiles []faults.NamedPlan
	// Planner dimensions the arena per population (zero value = urban
	// defaults, like E10).
	Planner capacity.PlannerConfig
	// SampleInterval is the telemetry cadence both loop modes record
	// at; the closed loop also decides on it. Zero takes Duration/100.
	SampleInterval time.Duration
}

// closedLoopProfiles are the default E13 fault rows. The blackout asks
// for more roots than any dimensioned arena has, and the fault expander
// clamps the count to the cells that exist — so every root goes down,
// deterministically including the hot one, and the t90 column compares
// recovery of the same storm with and without pre-paging.
func closedLoopProfiles() []faults.NamedPlan {
	return []faults.NamedPlan{
		{Name: "baseline", Plan: &faults.Plan{}},
		{Name: "root-blackout", Plan: &faults.Plan{
			Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 64, Start: 0.35, Duration: 0.20}},
		}},
	}
}

// HotspotSpec is the crowd-at-the-stadium population: every class is
// slow (below the planner's macro-speed split, so root budgets stay at
// their base dimensioning) and moves under the hotspot model, which
// confines waypoints to the first root's subtree. The demand piles onto
// one root while its siblings idle — exactly the imbalance the paper's
// multi-tier resource model leaves to management policy.
func HotspotSpec() fleet.Spec {
	return fleet.Spec{Profiles: []fleet.Profile{
		{Name: "crowd-voice", Share: 70, Mobility: "hotspot", SpeedMPS: 1.4, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{Voice: true}},
		{Name: "crowd-video", Share: 30, Mobility: "hotspot", SpeedMPS: 1.0, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{Video: true}},
	}}
}

// DefaultClosedLoopMatrix is the full matrix cmd/mmscale -closedloop
// runs: two crowd sizes (2 and 3 roots dimensioned), both default
// profiles, open vs closed. A root's subtree always spans 4 domains of
// floor-budget small cells (~576 channels), so crowds from ~500 up run
// the hot subtree past the 0.80 occupancy trigger.
func DefaultClosedLoopMatrix() ClosedLoopMatrix {
	return ClosedLoopMatrix{
		Populations: []int{500, 800},
		Duration:    10 * time.Second,
		Spec:        HotspotSpec(),
	}
}

// SuiteClosedLoopMatrix is the reduced matrix the benchmark harness
// runs: one crowd, the blackout profile only.
//
// Only the root benchmark runs it; the root package cannot reach a
// _test.go file of this package, so it stays here.
//
//mmlint:testref root BenchmarkE13ClosedLoop (bench gate) runs this cell
func SuiteClosedLoopMatrix() ClosedLoopMatrix {
	m := DefaultClosedLoopMatrix()
	m.Populations = []int{500}
	m.Profiles = closedLoopProfiles()[1:]
	return m
}

// E13ClosedLoop measures the closed QoE feedback loop against its
// open-loop twin. The claim it pins: deciding from the same sim-time
// telemetry the run records anyway, elastic admission moves channel
// budget from idle roots to the hot one (shed-capacity and loss drop)
// and survival-dip pre-paging pulls post-blackout re-registration
// forward (t90 drops) — while staying byte-identical between sequential
// and parallel measurement, because every decision derives from samples
// on the sampling cadence.
//
// Like E9–E11 it is not part of the E1–E8 suite: it runs deliberately via
// cmd/mmscale -closedloop, BenchmarkE13ClosedLoop, or the pinned golden.
func E13ClosedLoop(opt Options, m ClosedLoopMatrix) (*Table, error) {
	return runMatrix(opt, m.matrix(), m.table)
}

// matrix lays the open and closed twins of each (population, profile)
// out adjacent, so the table reads as before/after pairs. Both modes pin
// the same Obs (the runner leaves a pinned Obs alone), so they record
// identically and differ only in Control. The scheme axis is fixed: only
// multitier-rsmc has per-root admission budgets to shift.
func (m ClosedLoopMatrix) matrix() matrix {
	return matrix{num: 13, pops: m.Populations, schemes: []core.Scheme{core.SchemeMultiTier},
		dur: m.Duration, spec: m.Spec, profiles: profilesOr(m.Profiles, closedLoopProfiles),
		planner: &m.Planner, auth: true, obs: true, sample: m.SampleInterval,
		variants: []string{"open", "closed"},
		vary: func(cfg *core.Config, loop string) {
			if loop == "closed" {
				cfg.Control = e13Control(cfg.Duration)
			}
		}}
}

// e13Control is the policy every closed row arms: occupancy mean over a
// tenth of the run crossing 0.80 marks a root hot (wide hysteresis so
// one shift holds instead of flapping), and a registered fraction under
// 0.90 starts pre-paging immediately.
func e13Control(dur time.Duration) *core.ControlConfig {
	return &core.ControlConfig{
		ElasticAdmission: &core.ElasticAdmissionConfig{
			HotOccupancy:  0.80,
			Hysteresis:    0.15,
			Window:        dur / 10,
			MinDuration:   dur / 20,
			ShiftFraction: 0.5,
		},
		PrePaging: &core.PrePagingConfig{
			MinRegisteredFrac: 0.90,
			Hysteresis:        0.05,
			MinDuration:       0,
		},
	}
}

func (m ClosedLoopMatrix) table(cells []cell, res []runner.JobResult) *Table {
	t := &Table{
		ID:    "E13",
		Title: fmt.Sprintf("Closed-loop control: open vs closed x fault profile (mix %s, dimensioned, auth on)", m.Spec.String()),
		Header: []string{"MNs", "profile", "loop",
			"loss", "survival", "t90 recovery",
			"admitted", "shed-capacity", "shed-fault",
			"alerts", "shifted-ch", "prepages"},
	}
	for i, r := range res {
		c := cells[i]
		t.AddRow(fmtI(c.n), c.profile.Name, c.variant,
			fmtStatPct(r.LossRate()),
			fmtStatPct(r.Stat(survivalRate)),
			t90Recovery(r),
			fmtStatI(r.Counter("tier.admission.admitted")),
			fmtStatI(r.Counter("tier.admission.shed_capacity")),
			fmtStatI(r.Counter("tier.admission.shed_fault")),
			fmtStatI(r.Counter("ctl.alerts.raised")),
			fmtStatI(r.Counter("ctl.shift.channels")),
			fmtStatI(r.Counter("ctl.prepage.signals")))
	}
	t.AddNote("open rows record the same telemetry at the same cadence but attach no policy: every ctl.* column reads 0 and the pair isolates the feedback loop's effect")
	t.AddNote("elastic admission: occupancy mean > %.2f for %s shifts %.0f%% of the coolest root's per-station budgets to the hot root (reverted on clear); shifted-ch counts channels moved", 0.80, "dur/20", 50.0)
	t.AddNote("pre-paging: registered fraction < %.2f forces the still-unregistered MNs' location refreshes forward on every sampling tick instead of waiting out idle paging timers", 0.90)
	t.AddNote("t90 recovery as in E11; the blackout downs every root, so closed-loop rows measure pre-paging on the hot root's own storm")
	return t
}
