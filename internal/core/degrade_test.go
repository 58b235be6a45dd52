package core

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/degrade"
	"repro/internal/obs"
)

// degradeCfg is a faulted multi-tier scenario with both degradation
// machines armed at their library defaults.
func degradeCfg() Config {
	cfg := faultCfg(SchemeMultiTier)
	cfg.Obs = &obs.Config{Capacity: 1 << 14, SampleInterval: 100 * time.Millisecond}
	l := degrade.DefaultLadderConfig()
	b := degrade.DefaultBreakerConfig()
	cfg.Degrade = &DegradeConfig{Ladder: &l, Breaker: &b}
	return cfg
}

// TestDegradeRejectsBadConfig covers every newDegradeState rejection
// (its own checks and the machines' parameter validation) plus the
// scheme-capability checks in
// installDegrade: a ladder needs per-root occupancy and a breaker needs a
// registration path, so neither may be armed where it would do nothing.
func TestDegradeRejectsBadConfig(t *testing.T) {
	if _, err := Run(degradeCfg()); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
	cases := map[string]func(*Config){
		"arms-nothing":       func(c *Config) { c.Degrade = &DegradeConfig{} },
		"ladder-no-obs":      func(c *Config) { c.Obs = nil },
		"ladder-no-sampling": func(c *Config) { c.Obs.SampleInterval = 0 },
		"bad-ladder":         func(c *Config) { c.Degrade.Ladder.Elevated = 0 },
		"bad-breaker":        func(c *Config) { c.Degrade.Breaker.Rate = 0 },
		"ladder-mobile-ip": func(c *Config) {
			c.Scheme = SchemeMobileIP
			c.Degrade.Breaker = nil
		},
		"ladder-cellular-ip": func(c *Config) {
			c.Scheme = SchemeCellularIPHard
			c.Degrade.Breaker = nil
		},
		"breaker-cellular-ip": func(c *Config) {
			c.Scheme = SchemeCellularIPHard
			c.Degrade.Ladder = nil
		},
	}
	for name, mutate := range cases {
		name, mutate := name, mutate
		t.Run(name, func(t *testing.T) {
			cfg := degradeCfg()
			mutate(&cfg)
			if _, err := Run(cfg); !errors.Is(err, ErrBadConfig) {
				t.Fatalf("%s config: got %v, want ErrBadConfig", name, err)
			}
		})
	}
}

// TestDegradeNilAddsNothing mirrors TestMonitorNilAddsNothing: a config
// without Degrade leaves no "ctl.degrade." registry names and no ladder
// or breaker events in the trace.
func TestDegradeNilAddsNothing(t *testing.T) {
	cfg := degradeCfg()
	cfg.Degrade = nil
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range res.Registry.Names() {
		if strings.HasPrefix(name, "ctl.degrade.") {
			t.Fatalf("nil-Degrade run registered %q", name)
		}
	}
	for _, ev := range res.Trace.Events() {
		switch ev.Kind {
		case obs.KindDegradeDefer, obs.KindDegradePreempt,
			obs.KindDegradeVideoStepDown, obs.KindDegradeVideoStepUp,
			obs.KindBreakerOpen, obs.KindBreakerHalfOpen, obs.KindBreakerClose:
			t.Fatalf("nil-Degrade run emitted %s at %v", ev.Kind, ev.At)
		}
	}
}

// TestDegradeBreakerPacesMobileIPStorm drives the flat Mobile IP
// recovery storm through a tight breaker: the FA's parked MNs
// re-register at the recovery instant, the bucket runs dry after one
// send, and the backlog opens the breaker.
func TestDegradeBreakerPacesMobileIPStorm(t *testing.T) {
	cfg := faultCfg(SchemeMobileIP)
	cfg.NumMNs = 40
	cfg.Degrade = &DegradeConfig{Breaker: &degrade.BreakerConfig{Rate: 10, Burst: 1, OpenBacklog: 4}}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n := res.Registry.Counter("ctl.degrade.breaker.paced").Value(); n == 0 {
		t.Fatal("breaker paced no registration in the recovery storm")
	}
	if n := res.Registry.Counter("ctl.degrade.breaker.opens").Value(); n == 0 {
		t.Fatal("storm backlog never opened the breaker")
	}
}
