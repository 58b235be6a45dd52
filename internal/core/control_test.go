package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// controlCfg is a faulted multi-tier scenario with the full closed loop
// armed: elastic admission over the per-root occupancy gauges plus
// survival-dip pre-paging. The outage guarantees the registered-fraction
// series actually dips, so the pre-paging rule exercises its raise path.
func controlCfg() Config {
	cfg := faultCfg(SchemeMultiTier)
	cfg.Obs = &obs.Config{Capacity: 1 << 14, SampleInterval: 100 * time.Millisecond}
	cfg.Control = &ControlConfig{
		ElasticAdmission: &ElasticAdmissionConfig{
			HotOccupancy:  0.80,
			Hysteresis:    0.10,
			Window:        time.Second,
			MinDuration:   0,
			ShiftFraction: 0.5,
		},
		PrePaging: &PrePagingConfig{MinRegisteredFrac: 0.95, Hysteresis: 0.01},
	}
	return cfg
}

// TestMonitorNilAddsNothing mirrors TestFaultNilAddsNothing: a config
// without Control must leave zero closed-loop residue — no "ctl."
// registry names, no "ctl." series, and no alert events — so every
// pre-control golden stays byte-identical.
func TestMonitorNilAddsNothing(t *testing.T) {
	cfg := faultCfg(SchemeMultiTier)
	cfg.Obs = &obs.Config{Capacity: 1 << 14, SampleInterval: 100 * time.Millisecond}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.Registry.Names() {
		if strings.HasPrefix(name, "ctl.") {
			t.Fatalf("nil-Control run registered %q", name)
		}
	}
	for _, s := range res.Trace.AllSeries() {
		if strings.HasPrefix(s.Name, "ctl.") {
			t.Fatalf("nil-Control run sampled series %q", s.Name)
		}
	}
	for _, ev := range res.Trace.Events() {
		if ev.Kind == obs.KindAlertRaise || ev.Kind == obs.KindAlertClear {
			t.Fatalf("nil-Control run emitted %s at %v", ev.Kind, ev.At)
		}
	}
	if got := res.Trace.RuleNames(); len(got) != 0 {
		t.Fatalf("nil-Control run declared rules %v", got)
	}
}

// TestControlClosedLoopRunsAndCounts proves the armed loop actually
// closes on this scenario: the outage dips registered_frac below the
// threshold, so pre-paging rounds fire, and the shared alert counters
// agree with the monitor transitions.
func TestControlClosedLoopRunsAndCounts(t *testing.T) {
	res, err := Run(controlCfg())
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Registry
	if reg.Counter("ctl.alerts.raised").Value() == 0 {
		t.Fatal("no alert ever raised despite the root outage")
	}
	if reg.Counter("ctl.prepage.rounds").Value() == 0 {
		t.Fatal("survival-dip alert raised but no pre-paging round ran")
	}
	raises, clears := 0, 0
	for _, ev := range res.Trace.Events() {
		switch ev.Kind {
		case obs.KindAlertRaise:
			raises++
		case obs.KindAlertClear:
			clears++
		}
	}
	if uint64(raises) != reg.Counter("ctl.alerts.raised").Value() {
		t.Fatalf("trace has %d raise events, counter says %d", raises, reg.Counter("ctl.alerts.raised").Value())
	}
	if uint64(clears) != reg.Counter("ctl.alerts.cleared").Value() {
		t.Fatalf("trace has %d clear events, counter says %d", clears, reg.Counter("ctl.alerts.cleared").Value())
	}
	if len(res.Trace.RuleNames()) == 0 {
		t.Fatal("armed monitor declared no rule names")
	}
}

// TestControlRunStaysDeterministic pins the closed loop as a pure
// function of the seed: two identical armed runs render identical
// registries and identical traces.
func TestControlRunStaysDeterministic(t *testing.T) {
	a, err := Run(controlCfg())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(controlCfg())
	if err != nil {
		t.Fatal(err)
	}
	if a.Registry.Render() != b.Registry.Render() {
		t.Fatal("closed-loop runs with equal seeds diverged")
	}
	ae, be := a.Trace.Events(), b.Trace.Events()
	if len(ae) != len(be) {
		t.Fatalf("event counts diverged: %d vs %d", len(ae), len(be))
	}
	for i := range ae {
		if ae[i] != be[i] {
			t.Fatalf("event %d diverged: %+v vs %+v", i, ae[i], be[i])
		}
	}
}

// TestControlRejectsBadConfig exercises validateControl and the
// scheme-capability checks in installControl before any event runs.
func TestControlRejectsBadConfig(t *testing.T) {
	cases := map[string]func(*Config){
		"no-obs":        func(c *Config) { c.Obs = nil },
		"no-sampling":   func(c *Config) { c.Obs.SampleInterval = 0 },
		"ea-hot-zero":   func(c *Config) { c.Control.ElasticAdmission.HotOccupancy = 0 },
		"ea-hot-high":   func(c *Config) { c.Control.ElasticAdmission.HotOccupancy = 1.5 },
		"ea-neg-hyst":   func(c *Config) { c.Control.ElasticAdmission.Hysteresis = -0.1 },
		"ea-no-window":  func(c *Config) { c.Control.ElasticAdmission.Window = 0 },
		"ea-neg-dur":    func(c *Config) { c.Control.ElasticAdmission.MinDuration = -time.Second },
		"ea-shift-zero": func(c *Config) { c.Control.ElasticAdmission.ShiftFraction = 0 },
		"ea-shift-big":  func(c *Config) { c.Control.ElasticAdmission.ShiftFraction = 2 },
		"pp-frac-zero":  func(c *Config) { c.Control.PrePaging.MinRegisteredFrac = 0 },
		"pp-neg-hyst":   func(c *Config) { c.Control.PrePaging.Hysteresis = -0.1 },
		"pp-neg-dur":    func(c *Config) { c.Control.PrePaging.MinDuration = -time.Second },
		"pp-no-faults":  func(c *Config) { c.Faults = nil },
		"flat-scheme":   func(c *Config) { c.Scheme = SchemeMobileIP },
	}
	for name, mutate := range cases {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			cfg := controlCfg()
			mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Fatalf("%s config accepted", name)
			}
		})
	}
}
