package multitier

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
)

// faultedController is a stub RSMC whose domain head can be marked
// failed: Authorize then returns ErrFaulted, the way rsmc.RSMC does when
// its station is down.
type faultedController struct {
	faulted bool
}

func (c *faultedController) Authorize(addr.IP, uint64, []byte) error {
	if c.faulted {
		return fmt.Errorf("%w: head down", ErrFaulted)
	}
	return nil
}
func (c *faultedController) OnAttach(addr.IP) {}
func (c *faultedController) OnDetach(addr.IP) {}

// TestStationFailFlushesAndDeregisters pins the forced-deregistration
// contract: failing a root drops every buffered packet with the fault
// reason code (packets released, not leaked), wipes anchor registrations
// (counted as fault deregistrations), and detaches served MNs.
func TestStationFailFlushesAndDeregisters(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micros := b.microsOfDomain(0)
	b.evaluateAt(micros[0], 1.0)
	b.run(t, 2*time.Second)
	root := b.fab.Roots[0]
	if !root.AnchorRegistered(b.mn.Home()) {
		t.Fatal("anchor registration missing before the fault")
	}

	root.Fail()
	if !root.Node().Down() {
		t.Fatal("Fail left the node up")
	}
	if root.AnchorRegistered(b.mn.Home()) {
		t.Fatal("anchor registration survived the fault")
	}
	if got := b.reg.Counter("tier.fault.deregistrations").Value(); got == 0 {
		t.Fatal("forced deregistration not counted")
	}
	// Packets toward the dead root die at its node as accounted drops,
	// not in limbo.
	dropped := b.net.Dropped
	b.cnSend(1)
	b.run(t, 3*time.Second)
	if b.net.Dropped == dropped {
		t.Fatal("packet sent into the dead root was not accounted as a drop")
	}

	root.Recover()
	if root.Node().Down() {
		t.Fatal("Recover left the node down")
	}
	// Recovery is earned, not assumed: the refresh machinery re-anchors
	// the MN within its location-update cadence. The MN has gone idle by
	// now (ActiveTimeout 2s), so allow a full idle PagingInterval (10s).
	b.run(t, 15*time.Second)
	if !root.AnchorRegistered(b.mn.Home()) {
		t.Fatal("anchor registration not rebuilt after recovery")
	}
}

// TestFailDrainsForwardBuffer pins the reason-coded flush of RSMC
// forwarding buffers: packets parked for a coverage-lost MN die as fault
// drops when the station fails, and the counter attributes them.
func TestFailDrainsForwardBuffer(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micros := b.microsOfDomain(0)
	b.evaluateAt(micros[0], 1.0)
	b.run(t, 500*time.Millisecond)

	// Losing coverage mid-stream parks downlink packets in the serving
	// station's forwarding buffer (see TestCoverageLossBuffersThenRecovers).
	station := b.fab.Station(micros[0])
	b.evaluate(b.mn, geo.Pt(-1e7, -1e7), 1.0) // total coverage loss
	b.cnSend(1)
	b.cnSend(2)
	b.run(t, 600*time.Millisecond)
	if b.reg.Counter("tier.rsmc.buffered").Value() == 0 && b.stats.Buffered.Value() == 0 {
		t.Fatal("coverage loss buffered nothing — the flush below would test an empty buffer")
	}

	dropped := b.net.Dropped
	station.Fail()
	flushed := b.reg.Counter("tier.fault.drops").Value()
	if flushed == 0 {
		t.Fatal("buffered packets not flushed as fault drops")
	}
	// Every flushed packet went through the network's drop accounting
	// (which also Releases it to the pool) — none vanished unaccounted.
	if got := b.net.Dropped - dropped; got != flushed {
		t.Fatalf("flush released %d packets but accounted %d drops", flushed, got)
	}
}

// TestHandoffIntoFaultedDomainShedsFault pins the shed_fault reason
// code: an admission whose domain controller reports ErrFaulted is
// counted as a fault shed, not an auth failure or a policy shed.
func TestHandoffIntoFaultedDomainShedsFault(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micros := b.microsOfDomain(0)
	ctrl := &faultedController{}
	for _, cid := range micros {
		b.fab.Station(cid).SetController(ctrl)
	}
	b.evaluateAt(micros[0], 1.0)
	b.run(t, 500*time.Millisecond)

	ctrl.faulted = true
	b.evaluateAt(micros[1], 1.0)
	b.run(t, time.Second)
	if got := b.reg.Counter("tier.admission.shed_fault").Value(); got == 0 {
		t.Fatal("faulted admission not counted as shed_fault")
	}
	if got := b.reg.Counter("tier.handoff.auth_failures").Value(); got != 0 {
		t.Fatalf("fault shed miscounted as %d auth failures", got)
	}
}

// TestFailIsIdempotent guards double injection: failing a failed station
// must not double-count deregistrations or re-drain buffers.
func TestFailIsIdempotent(t *testing.T) {
	b := newTierBed(t, noShadowStations)
	micros := b.microsOfDomain(0)
	b.evaluateAt(micros[0], 1.0)
	b.run(t, 2*time.Second)
	root := b.fab.Roots[0]
	root.Fail()
	first := b.reg.Counter("tier.fault.deregistrations").Value()
	if first == 0 {
		t.Fatal("first Fail deregistered nothing — the double-count guard below is vacuous")
	}
	root.Fail()
	if got := b.reg.Counter("tier.fault.deregistrations").Value(); got != first {
		t.Fatalf("second Fail recounted deregistrations: %d -> %d", first, got)
	}
}
