package multitier

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/radio"
	"repro/internal/topology"
)

func buildTop(t *testing.T) *topology.Topology {
	t.Helper()
	top, err := topology.Build(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func firstOfTier(t *testing.T, top *topology.Topology, tier topology.Tier) topology.CellID {
	t.Helper()
	cells := top.CellsOfTier(tier)
	if len(cells) == 0 {
		t.Fatalf("no cells of tier %v", tier)
	}
	return cells[0].ID
}

func TestClassifyKinds(t *testing.T) {
	top := buildTop(t)
	macros := top.CellsOfTier(topology.TierMacro)
	// Micros of domain 0.
	var microsD0 []topology.CellID
	for _, c := range top.CellsOfTier(topology.TierMicro) {
		if c.Domain == 0 {
			microsD0 = append(microsD0, c.ID)
		}
	}
	if len(microsD0) < 2 {
		t.Fatal("need 2 micros in domain 0")
	}
	d0 := macros[0].ID // domain 0 root (same order as Build)
	tests := []struct {
		old, new topology.CellID
		want     HandoffKind
	}{
		{topology.NoCell, microsD0[0], KindInitial},
		{microsD0[0], microsD0[1], KindIntraMicroMicro},
		{microsD0[0], d0, KindIntraMicroMacro},
		{d0, microsD0[0], KindIntraMacroMicro},
		{macros[0].ID, macros[1].ID, KindInterSameUpper},
		{macros[0].ID, macros[2].ID, KindInterDiffUpper},
	}
	for i, tt := range tests {
		if got := Classify(top, tt.old, tt.new); got != tt.want {
			t.Errorf("case %d: Classify(%d,%d) = %v, want %v", i, tt.old, tt.new, got, tt.want)
		}
	}
	for _, k := range []HandoffKind{KindInitial, KindIntraMicroMicro, KindIntraMicroMacro,
		KindIntraMacroMicro, KindInterSameUpper, KindInterDiffUpper, HandoffKind(99)} {
		if k.String() == "" {
			t.Fatal("empty kind string")
		}
	}
}

func TestChooseSlowPrefersSmallTier(t *testing.T) {
	top := buildTop(t)
	micro := top.CellsOfTier(topology.TierMicro)[0]
	// At a micro centre a slow MN must pick the pico/micro tier even
	// though the macro signal is stronger in absolute dBm.
	sig := top.MeasureInto(nil, micro.Pos, nil, topology.TierPico)
	got := new(decisionScratch).choose(top, topology.NoCell, sig, mobilitySpeedSlow, nil, DefaultPolicy())
	if got == topology.NoCell {
		t.Fatal("no cell chosen")
	}
	tier := top.TierOf(got)
	if tier != topology.TierMicro && tier != topology.TierPico {
		t.Fatalf("slow MN chose %v tier", tier)
	}
}

const (
	mobilitySpeedSlow = 1.5
	mobilitySpeedFast = 25.0
)

func TestChooseFastPrefersMacroTier(t *testing.T) {
	top := buildTop(t)
	micro := top.CellsOfTier(topology.TierMicro)[0]
	sig := top.MeasureInto(nil, micro.Pos, nil, topology.TierPico)
	got := new(decisionScratch).choose(top, topology.NoCell, sig, mobilitySpeedFast, nil, DefaultPolicy())
	if got == topology.NoCell {
		t.Fatal("no cell chosen")
	}
	tier := top.TierOf(got)
	if tier != topology.TierMacro && tier != topology.TierRoot {
		t.Fatalf("fast MN chose %v tier", tier)
	}
}

func TestChooseResourceFallback(t *testing.T) {
	top := buildTop(t)
	micro := top.CellsOfTier(topology.TierMicro)[0]
	sig := top.MeasureInto(nil, micro.Pos, nil, topology.TierPico)
	// Probe refuses every micro/pico cell: the slow MN must fall back to
	// the macro tier (§3.2 fallback).
	probe := func(cell topology.CellID, _ bool) bool {
		tier := top.TierOf(cell)
		return tier == topology.TierMacro || tier == topology.TierRoot
	}
	got := new(decisionScratch).choose(top, topology.NoCell, sig, mobilitySpeedSlow, probe, DefaultPolicy())
	if got == topology.NoCell {
		t.Fatal("no cell chosen despite usable macro")
	}
	if tier := top.TierOf(got); tier != topology.TierMacro && tier != topology.TierRoot {
		t.Fatalf("fallback chose %v", tier)
	}
}

func TestChooseAllRefusedReturnsNoCell(t *testing.T) {
	top := buildTop(t)
	micro := top.CellsOfTier(topology.TierMicro)[0]
	sig := top.MeasureInto(nil, micro.Pos, nil, topology.TierPico)
	probe := func(topology.CellID, bool) bool { return false }
	if got := new(decisionScratch).choose(top, topology.NoCell, sig, mobilitySpeedSlow, probe, DefaultPolicy()); got != topology.NoCell {
		t.Fatalf("got %v, want NoCell", got)
	}
}

func TestChooseHysteresisKeepsIncumbent(t *testing.T) {
	top := buildTop(t)
	// Midway between two micro cells of the same domain, an MN camped on
	// one should not flip to the other without a margin.
	var m1, m2 *topology.Cell
	for _, c := range top.CellsOfTier(topology.TierMicro) {
		if c.Domain != 0 {
			continue
		}
		if m1 == nil {
			m1 = c
		} else if m2 == nil {
			m2 = c
			break
		}
	}
	if m1 == nil || m2 == nil {
		t.Fatal("need two micros")
	}
	// Exactly at m1's centre, camped on m1: stay.
	sig := top.MeasureInto(nil, m1.Pos, nil, topology.TierPico)
	if got := new(decisionScratch).choose(top, m1.ID, sig, mobilitySpeedSlow, nil, DefaultPolicy()); got != m1.ID {
		t.Fatalf("left incumbent at own centre: %v", got)
	}
}

func TestChooseEmptySignals(t *testing.T) {
	top := buildTop(t)
	if got := new(decisionScratch).choose(top, topology.NoCell, nil, 1, nil, DefaultPolicy()); got != topology.NoCell {
		t.Fatalf("got %v", got)
	}
}

func TestChooseFastFallsBackWhenNoMacroUsable(t *testing.T) {
	top := buildTop(t)
	micro := top.CellsOfTier(topology.TierMicro)[0]
	// Hand-craft signals where only the micro cell is usable.
	sig := []radio.Signal{
		{Cell: int(micro.ID), RSSIDBm: -70, InRange: true},
		{Cell: int(top.DomainRoot(micro.ID)), RSSIDBm: -99, InRange: true},
	}
	got := new(decisionScratch).choose(top, topology.NoCell, sig, mobilitySpeedFast, nil, DefaultPolicy())
	if got != micro.ID {
		t.Fatalf("fast MN refused the only usable cell: %v", got)
	}
}

func TestDirectoryBasics(t *testing.T) {
	dir := NewDirectory()
	p := &Profile{Home: mnA, HomeAgent: addr.MustParse("172.16.0.1"), DemandBPS: 64000}
	dir.AddProfile(p)
	got, err := dir.Profile(mnA)
	if err != nil || got != p {
		t.Fatalf("Profile = %v, %v", got, err)
	}
	if _, err := dir.Profile(addr.MustParse("1.2.3.4")); err == nil {
		t.Fatal("unknown profile lookup succeeded")
	}
	if dir.Profiles() != 1 {
		t.Fatalf("Profiles = %d", dir.Profiles())
	}
	if _, err := dir.StationFor(0); err == nil {
		t.Fatal("unknown station lookup succeeded")
	}
	if dir.DomainAuth(0) != nil {
		t.Fatal("unset domain auth should be nil")
	}
}
