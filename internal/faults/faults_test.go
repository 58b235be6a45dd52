package faults

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/simtime"
	"repro/internal/topology"
)

func testTopology(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.Build(topology.DefaultConfig())
	if err != nil {
		t.Fatalf("topology.Build: %v", err)
	}
	return top
}

func fullPlan() *Plan {
	return &Plan{
		Outages:  []OutageSpec{{Tier: topology.TierMicro, Count: 2, Start: 0.3, Duration: 0.2, Jitter: 0.05}},
		Degrades: []DegradeSpec{{Fraction: 0.5, Loss: 0.2, ExtraDelay: 10 * time.Millisecond, Start: 0.2, Duration: 0.4, Jitter: 0.05}},
		Fades:    []FadeSpec{{Tier: topology.TierPico, Count: 3, ExtraLoss: 0.3, Start: 0.1, Duration: 0.5, Jitter: 0.05}},
	}
}

// Same plan, same topology, same seed, same horizon: identical schedules —
// the determinism contract every fault run rests on.
func TestExpandDeterministic(t *testing.T) {
	top := testTopology(t)
	const horizon = 60 * time.Second
	a, err := fullPlan().Expand(top, 20, simtime.NewRand(42), horizon)
	if err != nil {
		t.Fatalf("expand a: %v", err)
	}
	b, err := fullPlan().Expand(top, 20, simtime.NewRand(42), horizon)
	if err != nil {
		t.Fatalf("expand b: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\nvs\n%v", a, b)
	}
	c, err := fullPlan().Expand(top, 20, simtime.NewRand(43), horizon)
	if err != nil {
		t.Fatalf("expand c: %v", err)
	}
	if reflect.DeepEqual(a, c) {
		t.Fatalf("different seeds produced identical jittered schedules")
	}
}

func TestExpandShape(t *testing.T) {
	top := testTopology(t)
	sched, err := fullPlan().Expand(top, 20, simtime.NewRand(1), 60*time.Second)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(sched) != 6 {
		t.Fatalf("want 6 events (3 windows × on/off), got %d: %v", len(sched), sched)
	}
	for i := 1; i < len(sched); i++ {
		if sched[i].At < sched[i-1].At {
			t.Fatalf("schedule not sorted: event %d at %v after %v", i, sched[i].At, sched[i-1].At)
		}
	}
	counts := map[Kind]int{}
	for _, ev := range sched {
		counts[ev.Kind]++
		switch ev.Kind {
		case StationDown, StationUp:
			if len(ev.Cells) != 2 {
				t.Errorf("%v: want 2 cells, got %v", ev.Kind, ev.Cells)
			}
		case LinkDegrade, LinkRestore:
			if len(ev.Links) != 10 {
				t.Errorf("%v: want 10 links (0.5 of 20), got %v", ev.Kind, ev.Links)
			}
		case FadeStart, FadeEnd:
			if len(ev.Cells) != 3 {
				t.Errorf("%v: want 3 cells, got %v", ev.Kind, ev.Cells)
			}
			// Both edges carry the spec's loss, so each end removes its
			// own share of overlapping fades.
			if ev.Loss != 0.3 {
				t.Errorf("%v: loss %v, want the spec's 0.3", ev.Kind, ev.Loss)
			}
		}
		for j := 1; j < len(ev.Cells); j++ {
			if ev.Cells[j] <= ev.Cells[j-1] {
				t.Errorf("%v: cells not strictly sorted: %v", ev.Kind, ev.Cells)
			}
		}
		for j := 1; j < len(ev.Links); j++ {
			if ev.Links[j] <= ev.Links[j-1] {
				t.Errorf("%v: links not strictly sorted: %v", ev.Kind, ev.Links)
			}
		}
	}
	for _, k := range []Kind{StationDown, StationUp, LinkDegrade, LinkRestore, FadeStart, FadeEnd} {
		if counts[k] != 1 {
			t.Errorf("want exactly one %v event, got %d", k, counts[k])
		}
	}
}

// Count larger than the tier population clamps instead of failing, so one
// profile works across topology sizes.
func TestExpandClampsCount(t *testing.T) {
	top := testTopology(t)
	p := &Plan{Outages: []OutageSpec{{Tier: topology.TierRoot, Count: 99, Start: 0.3, Duration: 0.2}}}
	sched, err := p.Expand(top, 4, simtime.NewRand(1), 60*time.Second)
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	roots := len(top.CellsOfTier(topology.TierRoot))
	if got := len(sched[0].Cells); got != roots {
		t.Fatalf("want count clamped to %d roots, got %d", roots, got)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
	}{
		{"zero outage count", Plan{Outages: []OutageSpec{{Tier: topology.TierRoot, Start: 0.1, Duration: 0.1}}}},
		{"negative start", Plan{Outages: []OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: -0.1, Duration: 0.1}}}},
		{"zero duration", Plan{Outages: []OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: 0.1}}}},
		{"huge jitter", Plan{Outages: []OutageSpec{{Tier: topology.TierRoot, Count: 1, Start: 0.1, Duration: 0.1, Jitter: 0.9}}}},
		{"zero fraction", Plan{Degrades: []DegradeSpec{{Loss: 0.5, Start: 0.1, Duration: 0.1}}}},
		{"no-op degrade", Plan{Degrades: []DegradeSpec{{Fraction: 0.5, Start: 0.1, Duration: 0.1}}}},
		{"loss over one", Plan{Degrades: []DegradeSpec{{Fraction: 0.5, Loss: 1.5, Start: 0.1, Duration: 0.1}}}},
		{"zero fade loss", Plan{Fades: []FadeSpec{{Tier: topology.TierPico, Count: 1, Start: 0.1, Duration: 0.1}}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(); !errors.Is(err, ErrBadPlan) {
			t.Errorf("%s: want ErrBadPlan, got %v", tc.name, err)
		}
	}
}

func TestProfiles(t *testing.T) {
	top := testTopology(t)
	for _, np := range Profiles() {
		if err := np.Plan.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", np.Name, err)
		}
		if _, err := np.Plan.Expand(top, 12, simtime.NewRand(7), 60*time.Second); err != nil {
			t.Errorf("profile %q does not expand on the default topology: %v", np.Name, err)
		}
		got, err := ProfileByName(np.Name)
		if err != nil || got.Name != np.Name {
			t.Errorf("ProfileByName(%q) = %v, %v", np.Name, got.Name, err)
		}
	}
	if _, err := ProfileByName("nope"); !errors.Is(err, ErrBadPlan) {
		t.Errorf("unknown profile: want ErrBadPlan, got %v", err)
	}
}

// The storm profile must combine an outage (whose recovery triggers the
// re-registration storm) with a radio fade, and survive the round trip
// through ProfileByName — it is the stressor the degradation matrix
// selects by name.
func TestStormProfileCombines(t *testing.T) {
	np, err := ProfileByName("storm")
	if err != nil {
		t.Fatal(err)
	}
	if len(np.Plan.Outages) == 0 || len(np.Plan.Fades) == 0 {
		t.Fatalf("storm must combine outages and fades: %+v", np.Plan)
	}
	sched, err := np.Plan.Expand(testTopology(t), 12, simtime.NewRand(7), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	kinds := make(map[Kind]bool)
	for _, ev := range sched {
		kinds[ev.Kind] = true
	}
	for _, k := range []Kind{StationDown, StationUp, FadeStart, FadeEnd} {
		if !kinds[k] {
			t.Errorf("storm schedule missing kind %d events", k)
		}
	}
}
