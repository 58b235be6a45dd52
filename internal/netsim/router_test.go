package netsim

import (
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// buildTriangle wires src -- r1 -- r2 -- dst with /16 routes on both routers.
func buildTriangle(t *testing.T) (net *Network, sched *simtime.Scheduler, src, dst *Node, rx *sink) {
	t.Helper()
	sched = simtime.NewScheduler()
	net = New(sched, simtime.NewRand(2))
	src = net.NewNode("src")
	r1n := net.NewNode("r1")
	r2n := net.NewNode("r2")
	dst = net.NewNode("dst")
	src.AddAddr(addr.MustParse("10.1.0.1"))
	dst.AddAddr(addr.MustParse("10.2.0.1"))

	lSrc := net.Connect(src, r1n, LinkConfig{Delay: time.Millisecond})
	lMid := net.Connect(r1n, r2n, LinkConfig{Delay: time.Millisecond})
	lDst := net.Connect(r2n, dst, LinkConfig{Delay: time.Millisecond})

	r1 := NewStaticRouter(r1n)
	r1.AddRoute(addr.MustParsePrefix("10.2.0.0/16"), lMid)
	r1.AddRoute(addr.MustParsePrefix("10.1.0.0/16"), lSrc)
	r2 := NewStaticRouter(r2n)
	r2.AddRoute(addr.MustParsePrefix("10.2.0.0/16"), lDst)
	r2.AddRoute(addr.MustParsePrefix("10.1.0.0/16"), lMid)

	rx = newSink(net)
	dst.SetHandler(rx)
	return net, sched, src, dst, rx
}

func TestRouterForwardsAcrossHops(t *testing.T) {
	_, sched, src, _, rx := buildTriangle(t)
	pkt := packet.New(addr.MustParse("10.1.0.1"), addr.MustParse("10.2.0.1"),
		packet.ClassInteractive, 1, 0, []byte("hello"))
	if err := src.SendVia(src.Links()[0].Peer(src), pkt); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(rx.got) != 1 {
		t.Fatalf("delivered %d", len(rx.got))
	}
	if rx.at[0] != 3*time.Millisecond {
		t.Fatalf("end-to-end delay %v, want 3ms", rx.at[0])
	}
	if rx.got[0].TTL != packet.MaxTTL-2 {
		t.Fatalf("TTL = %d, want %d (2 router hops)", rx.got[0].TTL, packet.MaxTTL-2)
	}
}

func TestRouterLongestPrefixWins(t *testing.T) {
	sched := simtime.NewScheduler()
	net := New(sched, simtime.NewRand(3))
	r := net.NewNode("r")
	wide := net.NewNode("wide")
	narrow := net.NewNode("narrow")
	lWide := net.Connect(r, wide, LinkConfig{})
	lNarrow := net.Connect(r, narrow, LinkConfig{})
	router := NewStaticRouter(r)
	router.AddRoute(addr.MustParsePrefix("10.0.0.0/8"), lWide)
	router.AddRoute(addr.MustParsePrefix("10.5.0.0/16"), lNarrow)

	if got := router.Lookup(addr.MustParse("10.5.1.1")); got != lNarrow {
		t.Fatal("longest prefix not preferred")
	}
	if got := router.Lookup(addr.MustParse("10.6.1.1")); got != lWide {
		t.Fatal("fallback to shorter prefix failed")
	}
	if got := router.Lookup(addr.MustParse("11.0.0.1")); got != nil {
		t.Fatal("no-route lookup should be nil")
	}
	// A down link is skipped in favour of a wider live route.
	lNarrow.SetDown(true)
	if got := router.Lookup(addr.MustParse("10.5.1.1")); got != lWide {
		t.Fatal("down link not skipped")
	}
}

func TestRouterDefaultRoute(t *testing.T) {
	sched := simtime.NewScheduler()
	net := New(sched, simtime.NewRand(3))
	r := net.NewNode("r")
	inet := net.NewNode("inet")
	l := net.Connect(r, inet, LinkConfig{})
	router := NewStaticRouter(r)
	router.Default = l
	rx := newSink(net)
	inet.SetHandler(rx)
	pkt := packet.New(addr.MustParse("1.1.1.1"), addr.MustParse("8.8.8.8"),
		packet.ClassBackground, 0, 0, nil)
	router.Receive(pkt, nil, nil)
	sched.Run()
	if len(rx.got) != 1 {
		t.Fatal("default route not used")
	}
}

func TestRouterLocalDelivery(t *testing.T) {
	sched := simtime.NewScheduler()
	net := New(sched, simtime.NewRand(3))
	r := net.NewNode("r")
	r.AddAddr(addr.MustParse("10.0.0.254"))
	router := NewStaticRouter(r)
	var local []*packet.Packet
	router.Local = HandlerFunc(func(pkt *packet.Packet, from *Node, link *Link) {
		local = append(local, pkt)
	})
	pkt := packet.New(addr.MustParse("1.1.1.1"), addr.MustParse("10.0.0.254"),
		packet.ClassControl, 0, 0, nil)
	router.Receive(pkt, nil, nil)
	if len(local) != 1 {
		t.Fatal("local handler not invoked")
	}
	// Without a Local handler, locally-addressed packets drop.
	router.Local = nil
	before := net.Dropped
	router.Receive(pkt, nil, nil)
	if net.Dropped != before+1 {
		t.Fatal("local packet without handler not dropped")
	}
}

func TestRouterNoRouteDrops(t *testing.T) {
	sched := simtime.NewScheduler()
	net := New(sched, simtime.NewRand(3))
	r := net.NewNode("r")
	router := NewStaticRouter(r)
	pkt := packet.New(addr.MustParse("1.1.1.1"), addr.MustParse("9.9.9.9"),
		packet.ClassBackground, 0, 0, nil)
	router.Receive(pkt, nil, nil)
	if net.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", net.Dropped)
	}
	sched.Run()
}

func TestRouterTTLExpiry(t *testing.T) {
	// Two routers pointing at each other: packet must die by TTL, not loop
	// forever.
	sched := simtime.NewScheduler()
	net := New(sched, simtime.NewRand(3))
	an := net.NewNode("a")
	bn := net.NewNode("b")
	l := net.Connect(an, bn, LinkConfig{})
	ra := NewStaticRouter(an)
	rb := NewStaticRouter(bn)
	loopPrefix := addr.MustParsePrefix("10.0.0.0/8")
	ra.AddRoute(loopPrefix, l)
	rb.AddRoute(loopPrefix, l)
	pkt := packet.New(addr.MustParse("10.0.0.1"), addr.MustParse("10.0.0.2"),
		packet.ClassBackground, 0, 0, nil)
	ra.Receive(pkt, nil, nil)
	sched.Run()
	if net.Dropped != 1 {
		t.Fatalf("looping packet: dropped=%d, want 1 TTL drop", net.Dropped)
	}
	if sched.Fired() > 3*packet.MaxTTL {
		t.Fatalf("loop generated %d events, TTL failed to bound it", sched.Fired())
	}
}
