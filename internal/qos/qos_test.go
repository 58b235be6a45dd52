package qos

import (
	"errors"
	"testing"
	"testing/quick"

	"repro/internal/addr"
	"repro/internal/packet"
)

func TestChannelPoolGuardSemantics(t *testing.T) {
	p := NewChannelPool(10, 2)
	// New sessions can take 8.
	for i := 0; i < 8; i++ {
		if err := p.AdmitNew(); err != nil {
			t.Fatalf("new admit %d: %v", i, err)
		}
	}
	if err := p.AdmitNew(); !errors.Is(err, ErrNoChannels) {
		t.Fatalf("9th new admit: %v, want ErrNoChannels", err)
	}
	if p.Blocked != 1 {
		t.Fatalf("Blocked = %d", p.Blocked)
	}
	// Handoffs can take the guard channels.
	if err := p.AdmitHandoff(); err != nil {
		t.Fatalf("handoff into guard: %v", err)
	}
	if err := p.AdmitHandoff(); err != nil {
		t.Fatalf("handoff into guard 2: %v", err)
	}
	if err := p.AdmitHandoff(); !errors.Is(err, ErrNoChannels) {
		t.Fatalf("handoff past capacity: %v", err)
	}
	if p.Dropped != 1 {
		t.Fatalf("Dropped = %d", p.Dropped)
	}
	if p.InUse() != 10 || p.Free() != 0 || p.Utilization() != 1 {
		t.Fatalf("pool state: %d in use, %d free", p.InUse(), p.Free())
	}
}

func TestChannelPoolRelease(t *testing.T) {
	p := NewChannelPool(2, 0)
	if err := p.Release(); !errors.Is(err, ErrNotGranted) {
		t.Fatalf("release on empty: %v", err)
	}
	if err := p.AdmitNew(); err != nil {
		t.Fatal(err)
	}
	if err := p.Release(); err != nil {
		t.Fatal(err)
	}
	if p.InUse() != 0 {
		t.Fatal("release did not free channel")
	}
}

func TestChannelPoolClamping(t *testing.T) {
	p := NewChannelPool(-5, 10)
	if p.Total() != 0 {
		t.Fatalf("negative total: %d", p.Total())
	}
	if p.Utilization() != 1 {
		t.Fatal("zero-channel pool should read fully utilised")
	}
	p2 := NewChannelPool(4, 10) // guard clamps to total
	for i := 0; i < 4; i++ {
		if err := p2.AdmitHandoff(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p2.AdmitNew(); !errors.Is(err, ErrNoChannels) {
		t.Fatal("all-guard pool admitted a new session")
	}
}

func TestBandwidthPool(t *testing.T) {
	b := NewBandwidthPool(1000)
	if err := b.Reserve(600); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(500); !errors.Is(err, ErrNoBandwidth) {
		t.Fatalf("over-reserve: %v", err)
	}
	if err := b.Reserve(400); err != nil {
		t.Fatal(err)
	}
	if b.Available() != 0 || b.Used() != 1000 {
		t.Fatalf("state: used=%v avail=%v", b.Used(), b.Available())
	}
	if err := b.Release(2000); !errors.Is(err, ErrNotGranted) {
		t.Fatalf("over-release: %v", err)
	}
	if err := b.Release(1000); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 0 {
		t.Fatal("release did not return bandwidth")
	}
	// Negative inputs clamp.
	if err := b.Reserve(-10); err != nil {
		t.Fatal(err)
	}
	if b.Used() != 0 {
		t.Fatal("negative reserve changed usage")
	}
}

// A refusal is a normal outcome under load: AdmitNew, AdmitHandoff and
// Reserve refuse with their sentinel and allocate nothing doing it.
func TestRejectAllocFree(t *testing.T) {
	p := NewChannelPool(1, 0)
	if err := p.AdmitNew(); err != nil {
		t.Fatal(err)
	}
	b := NewBandwidthPool(100)
	if avg := testing.AllocsPerRun(100, func() {
		if err := p.AdmitNew(); !errors.Is(err, ErrNoChannels) {
			t.Fatalf("AdmitNew on a full pool: %v", err)
		}
		if err := p.AdmitHandoff(); !errors.Is(err, ErrNoChannels) {
			t.Fatalf("AdmitHandoff on a full pool: %v", err)
		}
		if err := b.Reserve(200); !errors.Is(err, ErrNoBandwidth) {
			t.Fatalf("Reserve past capacity: %v", err)
		}
	}); avg != 0 {
		t.Fatalf("a refusal allocates %.1f allocs/op, want 0", avg)
	}
}

func TestAdmitAtomicRollback(t *testing.T) {
	c := NewCellResources(10, 0, 100)
	// Channel fits but bandwidth does not: channel must be rolled back.
	_, err := c.Admit(Request{BPS: 500})
	if !errors.Is(err, ErrNoBandwidth) {
		t.Fatalf("err = %v", err)
	}
	if c.Channels.InUse() != 0 {
		t.Fatal("failed admit leaked a channel")
	}
}

func TestSessionRelease(t *testing.T) {
	c := NewCellResources(2, 0, 1000)
	s, err := c.Admit(Request{BPS: 400})
	if err != nil {
		t.Fatal(err)
	}
	if s.BPS() != 400 {
		t.Fatalf("BPS = %v", s.BPS())
	}
	if err := s.Release(); err != nil {
		t.Fatal(err)
	}
	if c.Channels.InUse() != 0 || c.Bandwidth.Used() != 0 {
		t.Fatal("release incomplete")
	}
	if err := s.Release(); !errors.Is(err, ErrNotGranted) {
		t.Fatalf("double release: %v", err)
	}
	var nilSession *Session
	if err := nilSession.Release(); !errors.Is(err, ErrNotGranted) {
		t.Fatalf("nil release: %v", err)
	}
}

func TestCanAdmitMatchesAdmit(t *testing.T) {
	c := NewCellResources(3, 1, 1000)
	reqs := []Request{
		{BPS: 400}, {BPS: 400}, {BPS: 400, Handoff: true}, {BPS: 100, Handoff: true},
	}
	for i, req := range reqs {
		can := c.CanAdmit(req)
		s, err := c.Admit(req)
		if can != (err == nil) {
			t.Fatalf("req %d: CanAdmit=%v but Admit err=%v", i, can, err)
		}
		_ = s
	}
}

// Property: CanAdmit never disagrees with Admit, under arbitrary
// interleavings of admits and releases.
func TestCanAdmitConsistencyProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		c := NewCellResources(5, 2, 2000)
		var sessions []*Session
		for _, op := range ops {
			switch op % 4 {
			case 0, 1: // admit new / handoff
				req := Request{BPS: float64(op%7) * 100, Handoff: op%4 == 1}
				can := c.CanAdmit(req)
				s, err := c.Admit(req)
				if can != (err == nil) {
					return false
				}
				if s != nil {
					sessions = append(sessions, s)
				}
			case 2: // release oldest
				if len(sessions) > 0 {
					if err := sessions[0].Release(); err != nil {
						return false
					}
					sessions = sessions[1:]
				}
			case 3: // invariants
				if c.Channels.InUse() != len(sessions) {
					return false
				}
				if c.Bandwidth.Used() < 0 || c.Bandwidth.Used() > c.Bandwidth.Capacity() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func mkPkt(seq uint32) *packet.Packet {
	return packet.New(addr.MustParse("10.0.0.1"), addr.MustParse("10.0.0.2"),
		packet.ClassStreaming, 1, seq, []byte("x"))
}

func TestSwitchBufferFIFOAndDrain(t *testing.T) {
	b := NewSwitchBuffer(10)
	for i := uint32(0); i < 5; i++ {
		if !b.Buffer(mkPkt(i)) {
			t.Fatalf("buffer %d refused", i)
		}
	}
	if b.Len() != 5 {
		t.Fatalf("Len = %d", b.Len())
	}
	var got []uint32
	n := b.Drain(func(p *packet.Packet) { got = append(got, p.Seq) })
	if n != 5 || b.Len() != 0 {
		t.Fatalf("drained %d, remaining %d", n, b.Len())
	}
	for i, s := range got {
		if s != uint32(i) {
			t.Fatalf("order broken: %v", got)
		}
	}
}

func TestSwitchBufferOverflow(t *testing.T) {
	b := NewSwitchBuffer(2)
	if !b.Buffer(mkPkt(0)) || !b.Buffer(mkPkt(1)) {
		t.Fatal("initial buffering refused")
	}
	if b.Buffer(mkPkt(2)) {
		t.Fatal("overflow accepted")
	}
	if b.Overflow != 1 {
		t.Fatalf("Overflow = %d", b.Overflow)
	}
	if n := b.Discard(); n != 2 || b.Len() != 0 {
		t.Fatalf("Discard = %d, Len = %d", n, b.Len())
	}
	// After discard there is room again.
	if !b.Buffer(mkPkt(3)) {
		t.Fatal("post-discard buffering refused")
	}
}

// TestChannelPoolGrowShrinkClamp pins the elastic-budget contract the
// PR 9 shift/revert path relies on: a shrink clamps at the guard floor,
// a shrink under load leaves in-use sessions intact (the pool simply
// refuses admissions until releases catch up), and Grow→revert is an
// exact round-trip whenever the shrink was not clamped.
func TestChannelPoolGrowShrinkClamp(t *testing.T) {
	p := NewChannelPool(10, 2)
	for i := 0; i < 7; i++ {
		if err := p.AdmitNew(); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
	}
	// Shrink below the busy count: sessions keep their channels.
	if got := p.Grow(-6); got != -6 {
		t.Fatalf("Grow(-6) applied %d", got)
	}
	if p.Total() != 4 || p.InUse() != 7 {
		t.Fatalf("post-shrink total=%d inUse=%d, want 4/7", p.Total(), p.InUse())
	}
	if p.Free() != -3 {
		t.Fatalf("oversubscribed Free = %d, want -3", p.Free())
	}
	if err := p.AdmitNew(); !errors.Is(err, ErrNoChannels) {
		t.Fatalf("oversubscribed pool admitted a new session: %v", err)
	}
	if err := p.AdmitHandoff(); !errors.Is(err, ErrNoChannels) {
		t.Fatalf("oversubscribed pool admitted a handoff: %v", err)
	}
	// Releases catch up; admissions resume only once below total.
	for i := 0; i < 4; i++ {
		if err := p.Release(); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.AdmitHandoff(); err != nil {
		t.Fatalf("handoff after releases caught up: %v", err)
	}
	// Shrink clamps at the guard floor and reports the clamped delta.
	if got := p.Grow(-100); got != -(4 - 2) {
		t.Fatalf("clamped shrink applied %d, want %d", got, -(4 - 2))
	}
	if p.Total() != 2 {
		t.Fatalf("total shrank past the guard floor: %d", p.Total())
	}
}

func TestChannelPoolGrowRevertRoundTrip(t *testing.T) {
	p := NewChannelPool(10, 2)
	for i := 0; i < 5; i++ {
		if err := p.AdmitNew(); err != nil {
			t.Fatal(err)
		}
	}
	for _, delta := range []int{3, -3, -5, 5, 8, -8} {
		before := p.Total()
		applied := p.Grow(delta)
		if applied != delta {
			t.Fatalf("Grow(%d) from total %d clamped to %d", delta, before, applied)
		}
		if back := p.Grow(-applied); back != -applied {
			t.Fatalf("revert Grow(%d) applied %d", -applied, back)
		}
		if p.Total() != before {
			t.Fatalf("Grow(%d)→revert left total %d, want %d", delta, p.Total(), before)
		}
		if p.InUse() != 5 {
			t.Fatalf("Grow/revert perturbed inUse: %d", p.InUse())
		}
	}
}

// TestBandwidthPoolGrowShrinkClamp mirrors the channel-pool contract at
// the bandwidth ledger: shrinks clamp at zero capacity, reservations
// survive an oversubscribing shrink, and unclamped Grow→revert is an
// exact round-trip.
func TestBandwidthPoolGrowShrinkClamp(t *testing.T) {
	b := NewBandwidthPool(1000)
	if err := b.Reserve(700); err != nil {
		t.Fatal(err)
	}
	if got := b.Grow(-600); got != -600 {
		t.Fatalf("Grow(-600) applied %v", got)
	}
	if b.Capacity() != 400 || b.Used() != 700 {
		t.Fatalf("post-shrink capacity=%v used=%v, want 400/700", b.Capacity(), b.Used())
	}
	if b.Available() != -300 {
		t.Fatalf("oversubscribed Available = %v, want -300", b.Available())
	}
	if err := b.Reserve(1); !errors.Is(err, ErrNoBandwidth) {
		t.Fatalf("oversubscribed pool reserved: %v", err)
	}
	// Releases pay the debt down; reservations resume under capacity.
	if err := b.Release(400); err != nil {
		t.Fatal(err)
	}
	if err := b.Reserve(100); err != nil {
		t.Fatalf("reserve after releases caught up: %v", err)
	}
	// Shrink clamps at zero capacity and reports the clamped delta.
	if got := b.Grow(-5000); got != -400 {
		t.Fatalf("clamped shrink applied %v, want -400", got)
	}
	if b.Capacity() != 0 {
		t.Fatalf("capacity went negative: %v", b.Capacity())
	}
	// Exact round-trips while unclamped.
	b2 := NewBandwidthPool(1000)
	for _, delta := range []float64{250, -250, -999, 999.5} {
		before := b2.Capacity()
		applied := b2.Grow(delta)
		if applied != delta {
			t.Fatalf("Grow(%v) from capacity %v clamped to %v", delta, before, applied)
		}
		if back := b2.Grow(-applied); back != -applied {
			t.Fatalf("revert Grow(%v) applied %v", -applied, back)
		}
		if b2.Capacity() != before {
			t.Fatalf("Grow(%v)→revert left capacity %v, want %v", delta, b2.Capacity(), before)
		}
	}
}

func TestSessionRecordsClass(t *testing.T) {
	c := NewCellResources(4, 1, 1000)
	s, err := c.Admit(Request{BPS: 100, Class: packet.ClassConversational})
	if err != nil {
		t.Fatal(err)
	}
	if s.Class() != packet.ClassConversational {
		t.Fatalf("Class = %v", s.Class())
	}
	unclassified, err := c.Admit(Request{BPS: 100})
	if err != nil {
		t.Fatal(err)
	}
	if unclassified.Class() != 0 {
		t.Fatalf("unclassified request recorded class %v", unclassified.Class())
	}
}

// mkArenaPkt draws a buffer-test packet from the given arena so packet
// ownership is observable through the arena's live count.
func mkArenaPkt(a *packet.Arena, seq uint32) *packet.Packet {
	return packet.NewFrom(a, addr.MustParse("10.0.0.1"), addr.MustParse("10.0.0.2"),
		packet.ClassStreaming, 1, seq, []byte("x"))
}

// TestSwitchBufferDrainTransfersOwnership pins the ownership half of the
// Drain contract: the buffer hands each packet to the deliver callback
// without releasing it — the callback (the new-path send, or the
// preemption drop sink) owns it from there.
func TestSwitchBufferDrainTransfersOwnership(t *testing.T) {
	a := packet.NewArena()
	b := NewSwitchBuffer(0)
	for i := uint32(0); i < 4; i++ {
		if !b.Buffer(mkArenaPkt(a, i)) {
			t.Fatalf("buffer %d refused", i)
		}
	}
	if a.Live() != 4 {
		t.Fatalf("arena live %d before drain, want 4", a.Live())
	}
	n := b.Drain(func(p *packet.Packet) {
		// The packet must still be live here: reading and releasing it is
		// the callback's right as the new owner.
		if p.Seq > 4 {
			t.Fatalf("drained corrupt packet seq %d", p.Seq)
		}
		packet.Release(p)
	})
	if n != 4 || b.Len() != 0 {
		t.Fatalf("drained %d, remaining %d", n, b.Len())
	}
	if a.Live() != 0 {
		t.Fatalf("arena live %d after drain+release, want 0", a.Live())
	}
}

// TestSwitchBufferDiscardReleasesToPool pins the other half: Discard
// releases every parked packet back to its allocator itself, so a
// discarding station must NOT release them again.
func TestSwitchBufferDiscardReleasesToPool(t *testing.T) {
	a := packet.NewArena()
	b := NewSwitchBuffer(0)
	for i := uint32(0); i < 3; i++ {
		if !b.Buffer(mkArenaPkt(a, i)) {
			t.Fatalf("buffer %d refused", i)
		}
	}
	if n := b.Discard(); n != 3 || b.Len() != 0 {
		t.Fatalf("Discard = %d, Len = %d", n, b.Len())
	}
	if a.Live() != 0 {
		t.Fatalf("arena live %d after discard, want 0", a.Live())
	}
	if a.FreeLen() != 3 {
		t.Fatalf("arena free list %d after discard, want 3", a.FreeLen())
	}
	// The pool recycles the discarded storage on the next draw.
	p := mkArenaPkt(a, 9)
	if a.Reused() != 1 {
		t.Fatalf("post-discard draw reused %d packets, want 1", a.Reused())
	}
	packet.Release(p)
}

func TestSwitchBufferUnbounded(t *testing.T) {
	b := NewSwitchBuffer(0)
	for i := uint32(0); i < 1000; i++ {
		if !b.Buffer(mkPkt(i)) {
			t.Fatal("unbounded buffer refused")
		}
	}
	if b.Len() != 1000 || b.Overflow != 0 {
		t.Fatalf("Len=%d Overflow=%d", b.Len(), b.Overflow)
	}
}
