package netsim

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// seqPkt builds a packet of the given size tagged with seq.
func seqPkt(size int, seq uint32) *packet.Packet {
	return packet.New(addr.MustParse("10.0.0.1"), addr.MustParse("10.0.0.2"),
		packet.ClassBackground, 1, seq, make([]byte, size-packet.HeaderSize))
}

// arrival is one expected or observed delivery.
type arrival struct {
	seq uint32
	at  time.Duration
}

// Shortening a link's delay lets a later packet overtake the ones
// already in flight: each packet keeps the delay it was sent with, and
// packets sent with one delay arrive in send order.
func TestSetDelayOvertake(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{Delay: 10 * time.Millisecond})
	var got []arrival
	b.SetHandler(HandlerFunc(func(p *packet.Packet, _ *Node, _ *Link) {
		got = append(got, arrival{p.Seq, sched.Now()})
	}))
	send := func(seq uint32) {
		if err := a.Send(l, seqPkt(1000, seq)); err != nil {
			t.Fatal(err)
		}
	}
	send(0) // arrives 10 ms
	sched.RunUntil(time.Millisecond)
	send(1) // arrives 11 ms
	l.SetDelay(time.Millisecond)
	send(2) // arrives 2 ms
	send(3) // arrives 2 ms
	l.SetDelay(9 * time.Millisecond)
	send(4) // arrives 10 ms, behind seq 0
	send(5) // arrives 10 ms
	sched.Run()
	ms := time.Millisecond
	want := []arrival{{2, 2 * ms}, {3, 2 * ms}, {0, 10 * ms}, {4, 10 * ms}, {5, 10 * ms}, {1, 11 * ms}}
	if len(got) != len(want) {
		t.Fatalf("arrivals %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arrivals %+v, want %+v", got, want)
		}
	}
}

// Every accepted send ends in exactly one way — delivered, dropped before
// delivery, or still in flight — at any instant, across links of two
// delays, the air interface, loss, a down receiver, a node without a
// handler and protocol-level discards (which are not send fates).
func TestHopConservation(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	c := net.NewNode("c") // never gets a handler
	links := []*Link{
		net.Connect(a, b, LinkConfig{Delay: 2 * time.Millisecond, Loss: 0.1}),
		net.Connect(a, b, LinkConfig{Delay: 5 * time.Millisecond}),
		net.Connect(a, c, LinkConfig{Delay: 2 * time.Millisecond}),
	}
	b.SetHandler(HandlerFunc(func(p *packet.Packet, _ *Node, _ *Link) {
		if p.Seq%5 == 0 {
			net.Drop(b, p, metrics.DropNoRoute)
			return
		}
		packet.Release(p)
	}))
	check := func() {
		t.Helper()
		transit := net.Dropped - net.Discarded
		if net.Sent != net.Delivered+transit+uint64(net.InFlight()) {
			t.Fatalf("at %v: sent %d != delivered %d + dropped in transit %d + in flight %d",
				sched.Now(), net.Sent, net.Delivered, transit, net.InFlight())
		}
	}
	r := simtime.NewRand(3)
	for k := 0; k < 400; k++ {
		seq := uint32(k)
		sched.At(time.Duration(r.Intn(100))*time.Millisecond, func() {
			switch p := seqPkt(100, seq); {
			case seq%3 == 0:
				_ = net.DeliverDirect(a, b, p, 4*time.Millisecond, 0.2)
			default:
				if err := a.Send(links[int(seq)%len(links)], p); err != nil {
					t.Fatal(err)
				}
			}
			b.SetDown(seq%17 == 0)
			check()
		})
	}
	sched.RunUntil(50 * time.Millisecond)
	check()
	if net.InFlight() == 0 {
		t.Fatal("no packet in flight mid-run")
	}
	sched.Run()
	check()
	if net.InFlight() != 0 || net.Discarded == 0 || net.Dropped == net.Discarded {
		t.Fatalf("in flight %d, discarded %d, dropped %d: a fate went unexercised",
			net.InFlight(), net.Discarded, net.Dropped)
	}
}
