package core

import (
	"math"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// faultCfg is a root-outage scenario long enough that the outage window
// (30%..55% of the horizon) leaves ample recovery time.
func faultCfg(scheme Scheme) Config {
	cfg := shortCfg(scheme)
	cfg.Duration = 20 * time.Second
	cfg.NumMNs = 8
	cfg.Faults = &faults.Plan{
		Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: 0.30, Duration: 0.25}},
	}
	return cfg
}

func TestFaultProfilesRunAllSchemes(t *testing.T) {
	for _, np := range faults.Profiles() {
		for _, scheme := range Schemes() {
			np, scheme := np, scheme
			t.Run(np.Name+"/"+string(scheme), func(t *testing.T) {
				t.Parallel()
				cfg := shortCfg(scheme)
				cfg.Faults = np.Plan
				res, err := Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				reg := res.Registry
				if got := reg.Counter("fault.session.population").Value(); got != uint64(cfg.NumMNs) {
					t.Fatalf("survival probe saw %d MNs, want %d", got, cfg.NumMNs)
				}
				if res.Summary.Delivered == 0 {
					t.Fatalf("nothing delivered under %s: %s", np.Name, res.Summary)
				}
			})
		}
	}
}

func TestFaultRootOutageDisruptsAndRecovers(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			t.Parallel()
			res, err := Run(faultCfg(scheme))
			if err != nil {
				t.Fatal(err)
			}
			reg := res.Registry
			if got := reg.Counter("fault.station.downs").Value(); got != 1 {
				t.Fatalf("station downs = %d, want 1", got)
			}
			if got := reg.Counter("fault.station.ups").Value(); got != 1 {
				t.Fatalf("station ups = %d, want 1", got)
			}
			affected := reg.Counter("fault.recovery.affected").Value()
			if affected == 0 {
				t.Fatal("root outage deregistered nobody")
			}
			recovered := reg.Counter("fault.recovery.recovered").Value()
			if 10*recovered < 9*affected {
				t.Fatalf("recovery never converged: %d/%d re-registered", recovered, affected)
			}
			if reg.Sample("fault.recovery.t90_s").Count() == 0 {
				t.Fatal("no t90 sample recorded")
			}
			pop := reg.Counter("fault.session.population").Value()
			surv := reg.Counter("fault.session.survivors").Value()
			if surv == 0 || surv > pop {
				t.Fatalf("implausible survival %d/%d", surv, pop)
			}
		})
	}
}

// TestFaultRunStaysDeterministic pins that a faulted run is a pure
// function of the seed, exactly like the legacy path.
func TestFaultRunStaysDeterministic(t *testing.T) {
	cfg := faultCfg(SchemeMultiTier)
	cfg.AuthEnabled = true
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Registry.Render() != b.Registry.Render() {
		t.Fatal("faulted runs with equal seeds diverged")
	}
}

// TestFaultNilAddsNothing pins the nil-Faults invariant behind the E1–E10
// goldens: a config without a plan produces a registry with no "fault."
// names at all — no probes, no counters, no extra events.
func TestFaultNilAddsNothing(t *testing.T) {
	res, err := Run(shortCfg(SchemeMultiTier))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.Registry.Names() {
		if len(name) >= 6 && name[:6] == "fault." {
			t.Fatalf("nil-Faults run registered %q", name)
		}
	}
}

func TestFaultRejectsBadPlan(t *testing.T) {
	cfg := shortCfg(SchemeMultiTier)
	cfg.Faults = &faults.Plan{
		Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 0, Start: 0.5, Duration: 0.1}},
	}
	if _, err := Run(cfg); err == nil {
		t.Fatal("invalid fault plan accepted")
	}
}

// TestAuthedRegistrationsDeliver pins the MHAE leg: with AuthEnabled the
// flat scheme's MNs sign every registration, the HA verifies them, and
// traffic still flows (nothing is spuriously rejected as a replay).
func TestAuthedRegistrationsDeliver(t *testing.T) {
	for _, scheme := range []Scheme{SchemeMobileIP, SchemeMultiTier} {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			t.Parallel()
			cfg := shortCfg(scheme)
			cfg.AuthEnabled = true
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reg := res.Registry
			if got := reg.Counter("mip.ha.auth_checks").Value(); got == 0 {
				t.Fatal("HA verified no registrations with auth enabled")
			}
			if got := reg.Counter("mip.registration.replays").Value(); got != 0 {
				t.Fatalf("%d live registrations rejected as replays", got)
			}
			if res.Summary.Delivered == 0 {
				t.Fatalf("nothing delivered: %s", res.Summary)
			}
		})
	}
}

// fadeScheme is a scheme stub that only has air loss: cells in loss have
// a station, any other cell has none.
type fadeScheme struct {
	loss map[topology.CellID]float64
	sets int
}

func (f *fadeScheme) stationDown(topology.CellID)             {}
func (f *fadeScheme) stationUp(topology.CellID)               {}
func (f *fadeScheme) registered(int) bool                     { return true }
func (f *fadeScheme) signalling() signalCounters              { return signalCounters{} }
func (f *fadeScheme) setAirLoss(c topology.CellID, p float64) { f.loss[c] = p; f.sets++ }
func (f *fadeScheme) airLoss(c topology.CellID) (float64, bool) {
	p, ok := f.loss[c]
	return p, ok
}

// TestFadesStackAndRestoreExactly drives radio fades through applyFault:
// overlapping fades on one cell add their shares, each end removes its
// own, the loss clamps at 1, the exact pre-fade loss returns when the
// last fade ends, and a cell without a station is counted but untouched.
func TestFadesStackAndRestoreExactly(t *testing.T) {
	sch := &fadeScheme{loss: map[topology.CellID]float64{1: 0.01, 2: 0.5}}
	s := &scenario{sch: sch, sched: simtime.NewScheduler()}
	fr := &faultRun{fm: newFaultMetrics(metrics.NewRegistry()), fades: map[topology.CellID]*cellFade{}}
	step := func(kind faults.Kind, cell topology.CellID, extra, want float64) {
		t.Helper()
		s.applyFault(faults.Event{Kind: kind, Cells: []topology.CellID{cell}, Loss: extra}, fr)
		if got := sch.loss[cell]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("after %v(%v) on cell %d: loss %v, want %v", kind, extra, cell, got, want)
		}
	}
	// Nested: A-start, B-start, B-end, A-end.
	step(faults.FadeStart, 1, 0.2, 0.21)
	step(faults.FadeStart, 1, 0.3, 0.51)
	step(faults.FadeEnd, 1, 0.3, 0.21)
	step(faults.FadeEnd, 1, 0.2, 0.01)
	// Staggered: A-start, B-start, A-end, B-end.
	step(faults.FadeStart, 1, 0.2, 0.21)
	step(faults.FadeStart, 1, 0.3, 0.51)
	step(faults.FadeEnd, 1, 0.2, 0.31)
	step(faults.FadeEnd, 1, 0.3, 0.01)
	// Clamped at 1 while either fade stands.
	step(faults.FadeStart, 2, 0.7, 1)
	step(faults.FadeStart, 2, 0.9, 1)
	step(faults.FadeEnd, 2, 0.7, 1)
	step(faults.FadeEnd, 2, 0.9, 0.5)
	if sch.loss[1] != 0.01 || sch.loss[2] != 0.5 {
		t.Fatalf("pre-fade loss not restored exactly: %v", sch.loss)
	}
	sets := sch.sets
	s.applyFault(faults.Event{Kind: faults.FadeStart, Cells: []topology.CellID{3}, Loss: 0.4}, fr)
	s.applyFault(faults.Event{Kind: faults.FadeEnd, Cells: []topology.CellID{3}, Loss: 0.4}, fr)
	if _, ok := sch.loss[3]; ok || sch.sets != sets {
		t.Fatalf("fade touched a cell without a station: %v", sch.loss)
	}
	if got := fr.fm.fadeStarts.Value(); got != 7 {
		t.Fatalf("fade starts = %d, want 7", got)
	}
	if got := fr.fm.fadeEnds.Value(); got != 7 {
		t.Fatalf("fade ends = %d, want 7", got)
	}
}
