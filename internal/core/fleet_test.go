package core

import (
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/topology"
)

func fleetConfig(scheme Scheme, mns int) Config {
	topCfg := topology.DefaultConfig()
	topCfg.Roots = 1
	spec := fleet.DefaultSpec()
	return Config{
		Seed:              3,
		Duration:          8 * time.Second,
		Scheme:            scheme,
		Topology:          topCfg,
		NumMNs:            mns,
		MeasureInterval:   100 * time.Millisecond,
		ResourceSwitching: true,
		GuardChannels:     -1,
		Fleet:             &spec,
	}
}

func TestFleetRunAllSchemes(t *testing.T) {
	for _, scheme := range Schemes() {
		scheme := scheme
		t.Run(string(scheme), func(t *testing.T) {
			res, err := Run(fleetConfig(scheme, 20))
			if err != nil {
				t.Fatal(err)
			}
			if res.Summary.Sent == 0 {
				t.Fatal("fleet run sent nothing")
			}
			// Per-profile aggregates exist, cover the whole population,
			// and account for every sent packet.
			var pop int
			var sent uint64
			for _, p := range fleet.DefaultSpec().Profiles {
				bd := res.Registry.Breakdown("fleet.profile." + p.Name)
				pop += bd.Population
				sent += bd.Flows.Sent
				if bd.Population == 0 {
					t.Fatalf("profile %q got no MNs", p.Name)
				}
			}
			if pop != 20 {
				t.Fatalf("profile populations sum to %d, want 20", pop)
			}
			if sent != res.Summary.Sent {
				t.Fatalf("per-profile sent %d != scenario sent %d", sent, res.Summary.Sent)
			}
		})
	}
}

func TestFleetRunDeterministicForSeed(t *testing.T) {
	cfg := fleetConfig(SchemeMultiTier, 24)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary != b.Summary {
		t.Fatalf("fleet run not deterministic:\n%v\n%v", a.Summary, b.Summary)
	}
	if ra, rb := a.Registry.Render(), b.Registry.Render(); ra != rb {
		t.Fatalf("fleet registries diverged:\n%s\n---\n%s", ra, rb)
	}
}

func TestFleetArenaNeutral(t *testing.T) {
	// The per-scenario packet arena is an allocator, not a behaviour
	// change: with and without it the run produces identical results.
	cfg := fleetConfig(SchemeMultiTier, 16)
	plain, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.PacketArena = true
	arena, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Summary != arena.Summary {
		t.Fatalf("arena changed results:\n%v\n%v", plain.Summary, arena.Summary)
	}
	if ra, rb := plain.Registry.Render(), arena.Registry.Render(); ra != rb {
		t.Fatal("arena changed registry contents")
	}
}

func TestFleetSpeedsFollowProfiles(t *testing.T) {
	res, err := Run(fleetConfig(SchemeMultiTier, 40))
	if err != nil {
		t.Fatal(err)
	}
	walk := res.Registry.Breakdown("fleet.profile." + fleet.PedestrianVoice)
	drive := res.Registry.Breakdown("fleet.profile." + fleet.VehicularVideo)
	park := res.Registry.Breakdown("fleet.profile." + fleet.StationaryData)
	if walk.Speed.Mean() <= 0 || walk.Speed.Mean() > 3 {
		t.Fatalf("pedestrian mean speed %v", walk.Speed.Mean())
	}
	if drive.Speed.Mean() < 10 {
		t.Fatalf("vehicular mean speed %v", drive.Speed.Mean())
	}
	if park.Speed.Mean() != 0 {
		t.Fatalf("stationary mean speed %v", park.Speed.Mean())
	}
}

func TestRunRejectsUnknownHomogeneousMobility(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Mobility = "waypont" // typo must error, not silently shuttle
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown mobility kind")
	}
}

func TestFleetRejectsUnknownMobility(t *testing.T) {
	cfg := fleetConfig(SchemeMultiTier, 8)
	bad := fleet.Spec{Profiles: []fleet.Profile{
		{Name: "x", Share: 1, Mobility: "teleport", SpeedMPS: 1, Traffic: fleet.Traffic{Voice: true}},
	}}
	cfg.Fleet = &bad
	if _, err := Run(cfg); err == nil {
		t.Fatal("Run accepted an unknown fleet mobility kind")
	}
}
