package netsim

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// The wired send → deliver → release cycle must be allocation-free in
// steady state, on an unlimited link (hops ride the delay FIFO) and on a
// rate-limited one (hops ride the direction's FIFO behind two heap
// events): packets come from the free list, hops are held by value in
// rings that stop growing once warm, and the receiver returns the packet
// to the pool. Asserted (not benchmarked) so a regression fails go test.
// Packets come from a private arena, not the global sync.Pool, which the
// race detector's build drops items from at random.
func TestLinkSendDeliverAllocFree(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  LinkConfig
	}{
		{"unlimited", LinkConfig{Delay: time.Millisecond}},
		{"rate-limited", LinkConfig{Delay: time.Millisecond, RateBps: 1e6, QueueLimit: 16}},
	} {
		cfg := tc.cfg
		t.Run(tc.name, func(t *testing.T) {
			sched := simtime.NewScheduler()
			net := New(sched, simtime.NewRand(1))
			a := net.NewNode("a")
			b := net.NewNode("b")
			l := net.Connect(a, b, cfg)
			b.SetHandler(HandlerFunc(func(p *packet.Packet, _ *Node, _ *Link) { packet.Release(p) }))

			src, dst := addr.MustParse("10.0.0.1"), addr.MustParse("10.0.0.2")
			payload := packet.ZeroPayload(160)
			arena := packet.NewArena()
			seq := uint32(0)
			cycle := func() {
				for k := 0; k < 4; k++ { // a burst, so several hops are in flight at once
					p := packet.NewFrom(arena, src, dst, packet.ClassConversational, 1, seq, payload)
					seq++
					if err := a.Send(l, p); err != nil {
						t.Fatal(err)
					}
				}
				for sched.Step() {
				}
			}
			for i := 0; i < 512; i++ { // warm packet pool, rings, event arena
				cycle()
			}
			if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
				t.Fatalf("link send/deliver allocates %.1f allocs/op, want 0", avg)
			}
		})
	}
}

// The air interface (DeliverDirect) must be allocation-free too, with
// deliveries of two delays in flight at once. Packets come from a
// private arena, as above.
func TestDeliverDirectAllocFree(t *testing.T) {
	sched := simtime.NewScheduler()
	net := New(sched, simtime.NewRand(1))
	bs := net.NewNode("bs")
	mn := net.NewNode("mn")
	mn.SetHandler(HandlerFunc(func(p *packet.Packet, _ *Node, _ *Link) { packet.Release(p) }))

	src, dst := addr.MustParse("10.0.0.1"), addr.MustParse("10.0.0.9")
	payload := packet.ZeroPayload(160)
	arena := packet.NewArena()
	seq := uint32(0)
	cycle := func() {
		for k := 0; k < 4; k++ { // two air delays, two deliveries each
			p := packet.NewFrom(arena, src, dst, packet.ClassStreaming, 2, seq, payload)
			seq++
			if err := net.DeliverDirect(bs, mn, p, time.Duration(2+2*(k%2))*time.Millisecond, 0.01); err != nil {
				t.Fatal(err)
			}
		}
		for sched.Step() {
		}
	}
	for i := 0; i < 512; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(2000, cycle); avg != 0 {
		t.Fatalf("DeliverDirect allocates %.1f allocs/op, want 0", avg)
	}
}
