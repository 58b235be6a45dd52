package experiments

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/topology"
)

// TestE11RecoveryConverges pins the matrix's acceptance criterion: after
// a root outage on the multi-tier scheme, at least 90% of the MNs the
// outage deregistered are re-registered again within the recovery
// window, and the t90 sample records how long that took.
func TestE11RecoveryConverges(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMultiTier
	cfg.NumMNs = 16
	cfg.Duration = 20 * time.Second
	cfg.AuthEnabled = true
	cfg.Faults = &faults.Plan{
		Outages: []faults.OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: 0.3, Duration: 0.2}},
	}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Registry
	affected := reg.Counter("fault.recovery.affected").Value()
	if affected == 0 {
		t.Fatal("root outage deregistered no MNs")
	}
	recovered := reg.Counter("fault.recovery.recovered").Value()
	if 10*recovered < 9*affected {
		t.Fatalf("recovery converged %d of %d affected MNs, want >= 90%%", recovered, affected)
	}
	if reg.Sample("fault.recovery.t90_s").Count() == 0 {
		t.Fatal("no t90 recovery sample recorded")
	}
}
