package experiments

import (
	"fmt"
	"time"

	"repro/internal/capacity"
	"repro/internal/core"
	"repro/internal/degrade"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/runner"
)

// DegradationMatrix parameterises E14: graceful degradation measured
// against the cliff. Every population runs an over-subscribed multi-tier
// arena under every fault profile twice — once with no degradation
// machinery (cliff: admission is first-come-first-served until the pool
// empties, video streams at full rate into the congestion, recovery
// registrations burst unpaced) and once with Config.Degrade armed
// (graceful: the class-priority admission ladder defers and preempts,
// video steps down on the ladder rungs, and the registration-storm
// breaker paces the anchor's Mobile IP leg) — so each row pair isolates
// what planned degradation bought on identical deterministic schedules.
type DegradationMatrix struct {
	// Populations is the ascending MN-count axis (same validation rules
	// as ScaleSweep). The capacity planner dimensions each population,
	// so crowd sizes map to multi-root arenas.
	Populations []int
	// Duration is the virtual span of each scenario; fault windows are
	// fractions of it and the sampling cadence scales from it.
	Duration time.Duration
	// Spec is the population mix. The default DegradationSpec piles a
	// three-class crowd (voice, video, interactive data) onto one root's
	// subtree, so the ladder has classes to rank and the overload is
	// concentrated where the ladder watches.
	Spec fleet.Spec
	// Profiles are the fault plans injected under both modes. Empty
	// takes degradationProfiles(): overload (no faults — the crowd alone
	// is the stressor) and storm (root outage plus radio fade, whose
	// recovery triggers the re-registration storm the breaker paces).
	Profiles []faults.NamedPlan
	// Planner dimensions the arena per population (zero value = urban
	// defaults, like E10 and E13).
	Planner capacity.PlannerConfig
	// SampleInterval is the telemetry cadence both modes record at; the
	// ladder also evaluates occupancy on it. Zero takes Duration/100.
	SampleInterval time.Duration
}

// degradationProfiles are the default E14 fault rows: the bare overload
// (an empty plan — faults armed only for the survival probes, the crowd
// itself is the stressor) and the storm profile from the faults library,
// selected by name so the library stays the single source of truth for
// what a registration storm looks like.
func degradationProfiles() []faults.NamedPlan {
	overload := faults.NamedPlan{Name: "overload", Plan: &faults.Plan{}}
	storm, err := faults.ProfileByName("storm")
	if err != nil {
		// The storm profile is pinned by the faults package's own tests;
		// losing it here degrades the matrix to overload-only rather
		// than failing the whole experiment.
		return []faults.NamedPlan{overload}
	}
	return []faults.NamedPlan{overload, storm}
}

// DegradationSpec is the three-class crowd the ladder ranks: half the
// population carries conversational voice, a third streams video (the
// class the rate-adaptation rungs squeeze), and the rest runs
// interactive data (the first class the ladder defers). Everyone moves
// under the hotspot model, so the whole demand lands on one root's
// subtree and the per-root occupancy the ladder watches actually climbs
// past its thresholds.
func DegradationSpec() fleet.Spec {
	return fleet.Spec{Profiles: []fleet.Profile{
		{Name: "crowd-voice", Share: 50, Mobility: "hotspot", SpeedMPS: 1.4, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{Voice: true}},
		{Name: "crowd-video", Share: 30, Mobility: "hotspot", SpeedMPS: 1.0, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{Video: true}},
		{Name: "crowd-data", Share: 20, Mobility: "hotspot", SpeedMPS: 1.2, SpeedJitter: 0.3,
			Traffic: fleet.Traffic{DataMeanInterval: 200 * time.Millisecond}},
	}}
}

// DefaultDegradationMatrix is the full matrix cmd/mmscale -degrade
// runs: two crowd sizes, both default profiles, cliff vs graceful. The
// populations sit above the hot subtree's floor budget on purpose —
// E14 is about behaviour past the knee, not at it.
func DefaultDegradationMatrix() DegradationMatrix {
	return DegradationMatrix{
		Populations: []int{500, 800},
		Duration:    10 * time.Second,
		Spec:        DegradationSpec(),
	}
}

// SuiteDegradationMatrix is the reduced matrix the benchmark harness
// runs: one crowd, the storm profile only.
//
// Only the root benchmark runs it; the root package cannot reach a
// _test.go file of this package, so it stays here.
//
//mmlint:testref root BenchmarkE14Degradation (bench gate) runs this cell
func SuiteDegradationMatrix() DegradationMatrix {
	m := DefaultDegradationMatrix()
	m.Populations = []int{500}
	m.Profiles = degradationProfiles()[1:]
	return m
}

// E14Degradation measures planned degradation against the cliff. The
// claim it pins: under the same overload and the same storm schedule,
// the class-aware ladder keeps conversational admission and survival
// high by spending the cheap classes first (deferring data, squeezing
// video rate, preempting background-priority sessions for handoffs),
// and the breaker turns the recovery burst into a paced queue instead
// of a synchronized spike — while the cliff rows shed whatever arrived
// last, regardless of class.
//
// Like E9–E13 it is not part of the E1–E8 suite: it runs deliberately via
// cmd/mmscale -degrade, BenchmarkE14Degradation, or the pinned golden.
func E14Degradation(opt Options, m DegradationMatrix) (*Table, error) {
	return runMatrix(opt, m.matrix(), m.table)
}

// matrix lays the cliff and graceful twins of each (population, profile)
// out adjacent, so the table reads as before/after pairs. Both modes pin
// the same Obs (the runner leaves a pinned Obs alone), so they record
// identically and differ only in Degrade: graceful rows arm the library
// defaults — elevated at 0.70 occupancy, critical at 0.85, video rungs
// [1, 0.6, 0.35], a 400 msg/s registration pacer opening at a 32-deep
// backlog. The scheme axis is fixed: only multitier-rsmc has the per-cell
// admission sessions and root anchors the ladder and breaker attach to.
func (m DegradationMatrix) matrix() matrix {
	return matrix{num: 14, pops: m.Populations, schemes: []core.Scheme{core.SchemeMultiTier},
		dur: m.Duration, spec: m.Spec, profiles: profilesOr(m.Profiles, degradationProfiles),
		planner: &m.Planner, auth: true, obs: true, sample: m.SampleInterval,
		variants: []string{"cliff", "graceful"},
		vary: func(cfg *core.Config, mode string) {
			if mode == "graceful" {
				l, b := degrade.DefaultLadderConfig(), degrade.DefaultBreakerConfig()
				cfg.Degrade = &core.DegradeConfig{Ladder: &l, Breaker: &b}
			}
		}}
}

// classSurvival extracts the end-of-run registered fraction of one
// fleet profile from the per-profile survival counters the fault probe
// registers.
func classSurvival(profile string) func(*core.Result) float64 {
	pop := "fault.survival." + profile + ".population"
	surv := "fault.survival." + profile + ".survivors"
	return func(res *core.Result) float64 {
		p := res.Registry.Counter(pop).Value()
		if p == 0 {
			return 0
		}
		return float64(res.Registry.Counter(surv).Value()) / float64(p)
	}
}

// admissionSuccess extracts admitted/(admitted+refused) from a pair of
// partition counters; no decisions at all reads as 0.
func admissionSuccess(admitted, refused string) func(*core.Result) float64 {
	return func(res *core.Result) float64 {
		a := res.Registry.Counter(admitted).Value()
		r := res.Registry.Counter(refused).Value()
		if a+r == 0 {
			return 0
		}
		return float64(a) / float64(a+r)
	}
}

func (m DegradationMatrix) table(cells []cell, res []runner.JobResult) *Table {
	t := &Table{
		ID:    "E14",
		Title: fmt.Sprintf("Graceful degradation: cliff vs graceful x fault profile (mix %s, dimensioned, auth on)", m.Spec.String()),
		Header: []string{"MNs", "profile", "mode",
			"loss", "survival", "voice-surv", "voice-adm", "ho-adm",
			"deferred", "preempted", "stepdowns", "paced", "t90 recovery"},
	}
	for i, r := range res {
		c := cells[i]
		t.AddRow(fmtI(c.n), c.profile.Name, c.variant,
			fmtStatPct(r.LossRate()),
			fmtStatPct(r.Stat(survivalRate)),
			fmtStatPct(r.Stat(classSurvival("crowd-voice"))),
			fmtStatPct(r.Stat(admissionSuccess(
				"tier.admission.class.conversational.admitted",
				"tier.admission.class.conversational.refused"))),
			fmtStatPct(r.Stat(admissionSuccess(
				"tier.admission.handoff.admitted",
				"tier.admission.handoff.refused"))),
			fmtStatI(r.Counter("ctl.degrade.deferred")),
			fmtStatI(r.Counter("ctl.degrade.preempted")),
			fmtStatI(r.Counter("ctl.degrade.video_stepdowns")),
			fmtStatI(r.Counter("ctl.degrade.breaker.paced")),
			t90Recovery(r))
	}
	t.AddNote("cliff rows record the same telemetry at the same cadence but attach no policy: every degradation column reads 0 and the pair isolates what planned degradation bought")
	t.AddNote("ladder defaults: occupancy %.2f enters level 1 (defer interactive-and-below, preempt lower-priority sessions for handoffs and voice), %.2f deepens; video rate scales by the level's rung (%s)", 0.70, 0.85, "1, 0.6, 0.35")
	t.AddNote("voice-adm / ho-adm = admitted/(admitted+refused) over conversational-class and handoff admission decisions; the ladder spends data and video to keep both high")
	t.AddNote("paced counts anchor Mobile IP registrations the storm breaker delayed instead of bursting; t90 recovery as in E11")
	return t
}
