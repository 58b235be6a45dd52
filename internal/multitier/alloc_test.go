package multitier

import (
	"errors"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/simtime"
	"repro/internal/topology"
)

// One steady-state measurement tick — grid-restricted signal measurement
// into a reused scratch, the three-factor decision, and the admission
// probes — must be allocation-free once the MN is camped and no handoff
// is triggered. This is the per-MN-per-tick cost that dominates large
// populations, so the budget is asserted.
func TestEvaluateTickAllocFree(t *testing.T) {
	b := newTierBed(t, nil)
	micro := b.top.CellsOfTier(topology.TierMicro)[0]
	pos := micro.Pos

	b.evaluate(b.mn, pos, 1.0)
	if err := b.sched.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if b.mn.ServingCell() == topology.NoCell {
		t.Fatal("MN failed to camp before the measurement-tick test")
	}
	b.evaluate(b.mn, pos, 1.0) // settle: same position, same target
	if b.mn.pending != nil {
		t.Fatal("unexpected pending handoff at a stable position")
	}

	avg := testing.AllocsPerRun(1000, func() { b.evaluate(b.mn, pos, 1.0) })
	if avg != 0 {
		t.Fatalf("measurement tick allocates %.1f allocs/op, want 0", avg)
	}
}

// Directory.StationFor is probed for every usable cell of every decision
// tick: a hit is an allocation-free slice index, and an id outside the
// registered range or without a station is ErrUnknownCell.
func TestStationForBoundsAndAllocFree(t *testing.T) {
	top, err := topology.Build(topology.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(simtime.NewScheduler(), simtime.NewRand(1))
	dir := NewDirectory()
	cell := top.Cells[3]
	st := NewStation(net.NewNode("st"), cell, top, DefaultStationConfig(cell.Tier), dir, NewStats(nil))
	if got, err := dir.StationFor(cell.ID); err != nil || got != st {
		t.Fatalf("StationFor(%d) = %v, %v; want the registered station", cell.ID, got, err)
	}
	// -1, one past the highest registered id (len of the table), and a
	// lower id with no station.
	for _, id := range []topology.CellID{-1, cell.ID + 1, cell.ID - 1} {
		if _, err := dir.StationFor(id); !errors.Is(err, ErrUnknownCell) {
			t.Fatalf("StationFor(%d) err = %v, want ErrUnknownCell", id, err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if _, err := dir.StationFor(cell.ID); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("StationFor allocates %.1f allocs/op, want 0", avg)
	}
}

// Stations and mobiles decode every control packet into their own
// msgScratch: each decode must read exactly what a fresh scratch reads, with
// no field left over from an earlier message in the same scratch, and
// must not allocate.
func TestMsgScratchDecodeMatchesParseAllocFree(t *testing.T) {
	var sc msgScratch
	seeds := seedMessages()
	for round := 0; round < 2; round++ {
		for _, b := range seeds {
			want, err := new(msgScratch).decode(b)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sc.decode(b)
			if err != nil {
				t.Fatal(err)
			}
			if w, g := marshal(t, want), marshal(t, got); string(w) != string(g) {
				t.Fatalf("decode(%x) re-encodes to %x, a fresh scratch to %x", b, g, w)
			}
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		for _, b := range seeds {
			if _, err := sc.decode(b); err != nil {
				t.Fatal(err)
			}
		}
	})
	if avg != 0 {
		t.Fatalf("scratch decode allocates %.1f allocs/op, want 0", avg)
	}
}
