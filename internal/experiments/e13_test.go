package experiments

import (
	"testing"

	"repro/internal/core"
)

// TestE13ClosedLoopImproves pins the matrix's acceptance criterion on a
// single blackout cell: against the open-loop twin of the same run, the
// closed loop must actually shift budget (the hot alert fired), must
// actually pre-page (the dip alert fired), shed strictly less capacity
// on admission, and recover no slower.
func TestE13ClosedLoopImproves(t *testing.T) {
	opt := recoveryOptions()
	m := goldenE13Matrix()
	m.Profiles = closedLoopProfiles()[1:] // blackout
	jobs, _, err := m.matrix().expand(opt)
	if err != nil {
		t.Fatal(err)
	}
	run := func(j int) *core.Result {
		res, err := core.Run(jobs[j].Config)
		if err != nil {
			t.Fatalf("core.Run(%s): %v", jobs[j].Label, err)
		}
		return res
	}
	open, closed := run(0), run(1)

	if v := closed.Registry.Counter("ctl.shift.count").Value(); v == 0 {
		t.Error("closed loop shifted no budget (hot-occupancy alert never raised)")
	}
	if v := closed.Registry.Counter("ctl.prepage.signals").Value(); v == 0 {
		t.Error("closed loop sent no pre-paging signals (survival-dip alert never raised)")
	}
	openShed := open.Registry.Counter("tier.admission.shed_capacity").Value()
	closedShed := closed.Registry.Counter("tier.admission.shed_capacity").Value()
	if closedShed >= openShed {
		t.Errorf("closed loop shed %d capacity refusals, open loop %d; want strictly fewer", closedShed, openShed)
	}
	openT90 := open.Registry.Sample("fault.recovery.t90_s")
	closedT90 := closed.Registry.Sample("fault.recovery.t90_s")
	if openT90.Count() == 0 || closedT90.Count() == 0 {
		t.Fatalf("t90 samples missing: open %d, closed %d", openT90.Count(), closedT90.Count())
	}
	if closedT90.Mean() > openT90.Mean() {
		t.Errorf("closed-loop t90 %.3fs slower than open-loop %.3fs; pre-paging must not hurt recovery",
			closedT90.Mean(), openT90.Mean())
	}
	t.Logf("shed: open %d closed %d; t90: open %.3fs closed %.3fs; shifts %d (ch %d) prepages %d",
		openShed, closedShed, openT90.Mean(), closedT90.Mean(),
		closed.Registry.Counter("ctl.shift.count").Value(),
		closed.Registry.Counter("ctl.shift.channels").Value(),
		closed.Registry.Counter("ctl.prepage.signals").Value())
}
