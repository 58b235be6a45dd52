package experiments

import (
	"testing"

	"repro/internal/core"
	"repro/internal/faults"
)

// TestE14GracefulBeatsCliff pins the matrix's acceptance criterion on a
// single storm cell: against the cliff twin of the same run, the
// graceful mode must actually degrade (defer, preempt, step video down,
// pace the recovery storm), keep conversational and handoff admission
// success at or above 90% while the cliff falls below it, hold voice
// survival, and shed strictly less raw capacity — the cliff refuses
// whatever arrived last, the ladder refuses what it chose to spend.
func TestE14GracefulBeatsCliff(t *testing.T) {
	opt := recoveryOptions()
	m := goldenE14Matrix()
	storm := degradationProfiles()[1]
	if storm.Name != "storm" {
		t.Fatalf("expected storm profile second, got %q", storm.Name)
	}
	m.Profiles = []faults.NamedPlan{storm}
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
	cliff, graceful := run(0), run(1)

	// The cliff must carry zero degradation residue: no policy, no events.
	for _, name := range []string{
		"ctl.degrade.deferred", "ctl.degrade.preempted",
		"ctl.degrade.video_stepdowns", "ctl.degrade.breaker.paced",
	} {
		if v := cliff.Registry.Counter(name).Value(); v != 0 {
			t.Errorf("cliff run has %s = %d; want 0", name, v)
		}
	}
	// The graceful run must exercise every lever.
	for _, name := range []string{
		"ctl.degrade.deferred", "ctl.degrade.preempted",
		"ctl.degrade.video_stepdowns", "ctl.degrade.breaker.paced",
		"ctl.degrade.breaker.opens",
	} {
		if v := graceful.Registry.Counter(name).Value(); v == 0 {
			t.Errorf("graceful run never fired %s", name)
		}
	}

	voiceAdm := admissionSuccess(
		"tier.admission.class.conversational.admitted",
		"tier.admission.class.conversational.refused")
	hoAdm := admissionSuccess(
		"tier.admission.handoff.admitted",
		"tier.admission.handoff.refused")
	if g, c := voiceAdm(graceful), voiceAdm(cliff); g < 0.90 || g <= c {
		t.Errorf("voice admission success: graceful %.4f, cliff %.4f; want graceful >= 0.90 and above cliff", g, c)
	}
	if g, c := hoAdm(graceful), hoAdm(cliff); g < 0.90 || g <= c {
		t.Errorf("handoff admission success: graceful %.4f, cliff %.4f; want graceful >= 0.90 and above cliff", g, c)
	}
	voiceSurv := classSurvival("crowd-voice")
	if g, c := voiceSurv(graceful), voiceSurv(cliff); g < 0.90 || g < c-1e-9 {
		t.Errorf("voice survival: graceful %.4f, cliff %.4f; want graceful >= 0.90 and no worse than cliff", g, c)
	}
	cliffShed := cliff.Registry.Counter("tier.admission.shed_capacity").Value()
	gracefulShed := graceful.Registry.Counter("tier.admission.shed_capacity").Value()
	if gracefulShed >= cliffShed {
		t.Errorf("graceful shed %d capacity refusals, cliff %d; want strictly fewer", gracefulShed, cliffShed)
	}
	t.Logf("voice-adm: cliff %.4f graceful %.4f; ho-adm: cliff %.4f graceful %.4f; shed: cliff %d graceful %d",
		voiceAdm(cliff), voiceAdm(graceful), hoAdm(cliff), hoAdm(graceful), cliffShed, gracefulShed)
	t.Logf("graceful levers: deferred %d preempted %d stepdowns %d paced %d opens %d",
		graceful.Registry.Counter("ctl.degrade.deferred").Value(),
		graceful.Registry.Counter("ctl.degrade.preempted").Value(),
		graceful.Registry.Counter("ctl.degrade.video_stepdowns").Value(),
		graceful.Registry.Counter("ctl.degrade.breaker.paced").Value(),
		graceful.Registry.Counter("ctl.degrade.breaker.opens").Value())
}
