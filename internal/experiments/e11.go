package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/runner"
)

// ResilienceMatrix parameterises E11: the fault-injection matrix that
// measures how each mobility-management scheme survives infrastructure
// failures. Every population runs under every fault profile and every
// scheme with registration authentication armed, so the rows compare
// handoff loss, session survival, signalling load and recovery speed on
// identical deterministic fault schedules.
type ResilienceMatrix struct {
	// Populations is the ascending MN-count axis (same validation rules
	// as ScaleSweep).
	Populations []int
	// Schemes are compared under each (population, profile) cell.
	Schemes []core.Scheme
	// Duration is the virtual span of each scenario; fault windows are
	// fractions of it.
	Duration time.Duration
	// Spec is the population mix (the same demand model E9/E10 use).
	Spec fleet.Spec
	// Profiles are the fault plans to inject, one row group per profile.
	// Empty takes faults.Profiles() — baseline, root-outage,
	// link-degrade, radio-fade.
	Profiles []faults.NamedPlan
}

// DefaultResilienceMatrix is the full matrix cmd/mmscale -faults runs:
// two populations, every scheme, all standard fault profiles.
func DefaultResilienceMatrix() ResilienceMatrix {
	return ResilienceMatrix{
		Populations: []int{500, 2000},
		Schemes:     core.Schemes(),
		Duration:    10 * time.Second,
		Spec:        fleet.DefaultSpec(),
	}
}

// SuiteResilienceMatrix is the reduced matrix the benchmark harness
// runs: one moderate population, the root-outage profile (the one that
// exercises the full deregister/storm/recover cycle), every scheme.
//
// Only the root benchmark runs it; the root package cannot reach a
// _test.go file of this package, so it stays here.
//
//mmlint:testref root BenchmarkE11Resilience (bench gate) runs this cell
func SuiteResilienceMatrix() ResilienceMatrix {
	m := DefaultResilienceMatrix()
	m.Populations = []int{200}
	root, _ := faults.ProfileByName("root-outage")
	m.Profiles = []faults.NamedPlan{root}
	return m
}

// E11Resilience measures fault tolerance across the population × fault
// profile × scheme matrix. The resilience claim it pins: the multi-tier
// architecture localises a root outage to one domain and re-registers
// its population through the location-refresh machinery, while plain
// Mobile IP rides retransmission backoff and reattempt timers, and
// Cellular IP rebuilds soft-state caches from data/paging traffic — all
// three visible as session survival, t90 recovery time and signalling
// load under identical deterministic fault schedules.
//
// Like E9/E10 it is not part of the E1–E8 suite: it runs deliberately via
// cmd/mmscale -faults, BenchmarkE11Resilience, or the pinned golden.
func E11Resilience(opt Options, m ResilienceMatrix) (*Table, error) {
	return runMatrix(opt, m.matrix(), m.table)
}

// matrix runs every scheme under every fault profile with registration
// authentication armed.
func (m ResilienceMatrix) matrix() matrix {
	return matrix{num: 11, pops: m.Populations, schemes: m.Schemes, dur: m.Duration, spec: m.Spec,
		profiles: profilesOr(m.Profiles, faults.Profiles), auth: true}
}

func (m ResilienceMatrix) table(cells []cell, res []runner.JobResult) *Table {
	t := &Table{
		ID:    "E11",
		Title: fmt.Sprintf("Resilience matrix: fault injection x scheme (mix %s, auth on)", m.Spec.String()),
		Header: []string{"MNs", "profile", "scheme",
			"loss", "mean delay", "survival", "signal/s",
			"t90 recovery", "retry-exhausted", "expired", "shed-fault",
			"auth-cpu(ms)"},
	}
	for i, r := range res {
		c := cells[i]
		t.AddRow(fmtI(c.n), c.profile.Name, string(c.scheme),
			fmtStatPct(r.LossRate()),
			fmtStatDur(r.MeanLatency()),
			fmtStatPct(r.Stat(survivalRate)),
			fmtStatF(r.Stat(func(res *core.Result) float64 {
				return float64(res.Summary.SignalingMsgs) / res.Config.Duration.Seconds()
			})),
			t90Recovery(r),
			fmtStatI(r.Counter("mip.registration.retry_exhausted")),
			fmtStatI(r.Counter("mip.registration.expired")),
			fmtStatI(r.Counter("tier.admission.shed_fault")),
			fmtStatF(r.Stat(func(res *core.Result) float64 {
				return float64(res.Registry.Counter("mip.auth.cpu_ns").Value()) / 1e6
			})))
	}
	t.AddNote("survival = fault.session.survivors / population, probed just before the run ends; baseline rows calibrate what the probe reads with no faults injected")
	t.AddNote("t90 recovery = time from station recovery until 90%% of the MNs it deregistered hold a registration again; \"-\" means no outage fired or the storm never converged inside the run")
	t.AddNote("reason-coded drops: shed_fault = admission refused because the domain head was down; retry-exhausted / expired are the Mobile IP registration lifecycle counters")
	t.AddNote("auth-cpu = modelled MHAE sign/verify CPU spend (mip.auth.cpu_ns); zero for Cellular IP, which carries no Mobile IP leg")
	return t
}

// survivalRate is the end-of-run registered fraction of one run.
func survivalRate(res *core.Result) float64 {
	pop := res.Registry.Counter("fault.session.population").Value()
	if pop == 0 {
		return 0
	}
	return float64(res.Registry.Counter("fault.session.survivors").Value()) / float64(pop)
}

// t90Recovery renders the recovery-time sample of the first replication:
// the virtual seconds from station-up until 90% of the affected MNs were
// re-registered, "-" when no tracker converged (no outage, or the storm
// outlived the run).
func t90Recovery(r runner.JobResult) string {
	first := r.First()
	if first == nil {
		return ""
	}
	s := first.Registry.Sample("fault.recovery.t90_s")
	if s.Count() == 0 {
		return "-"
	}
	return fmt.Sprintf("%.3fs", s.Mean())
}
