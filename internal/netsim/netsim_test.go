package netsim

import (
	"errors"
	"testing"
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/simtime"
)

func testNet() (*Network, *simtime.Scheduler) {
	sched := simtime.NewScheduler()
	return New(sched, simtime.NewRand(1)), sched
}

type sink struct {
	got  []*packet.Packet
	from []*Node
	at   []time.Duration
	net  *Network
}

func newSink(n *Network) *sink { return &sink{net: n} }

func (s *sink) Receive(pkt *packet.Packet, from *Node, link *Link) {
	s.got = append(s.got, pkt)
	s.from = append(s.from, from)
	s.at = append(s.at, s.net.Scheduler().Now())
}

func mkPkt(size int) *packet.Packet {
	return packet.New(addr.MustParse("10.0.0.1"), addr.MustParse("10.0.0.2"),
		packet.ClassBackground, 1, 0, make([]byte, size-packet.HeaderSize))
}

func TestLinkDeliveryDelay(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{Delay: 5 * time.Millisecond})
	rx := newSink(net)
	b.SetHandler(rx)
	if err := a.Send(l, mkPkt(100)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(rx.got) != 1 {
		t.Fatalf("delivered %d packets", len(rx.got))
	}
	if rx.at[0] != 5*time.Millisecond {
		t.Fatalf("delivered at %v, want 5ms", rx.at[0])
	}
	if rx.from[0] != a {
		t.Fatalf("from = %v", rx.from[0])
	}
}

func TestLinkSerializationDelay(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	// 8000 bits/s: a 100-byte (800-bit) packet takes 100ms to serialize.
	l := net.Connect(a, b, LinkConfig{RateBps: 8000})
	rx := newSink(net)
	b.SetHandler(rx)
	if err := a.Send(l, mkPkt(100)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(l, mkPkt(100)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(rx.got) != 2 {
		t.Fatalf("delivered %d packets", len(rx.got))
	}
	if rx.at[0] != 100*time.Millisecond || rx.at[1] != 200*time.Millisecond {
		t.Fatalf("arrival times %v, want 100ms/200ms (back-to-back serialization)", rx.at)
	}
}

func TestLinkDuplexIndependentDirections(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{RateBps: 8000})
	rxA, rxB := newSink(net), newSink(net)
	a.SetHandler(rxA)
	b.SetHandler(rxB)
	if err := a.Send(l, mkPkt(100)); err != nil {
		t.Fatal(err)
	}
	if err := b.Send(l, mkPkt(100)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	// Directions do not contend: both arrive at 100ms.
	if len(rxA.got) != 1 || len(rxB.got) != 1 {
		t.Fatalf("deliveries %d/%d", len(rxA.got), len(rxB.got))
	}
	if rxA.at[0] != 100*time.Millisecond || rxB.at[0] != 100*time.Millisecond {
		t.Fatalf("duplex directions contended: %v %v", rxA.at, rxB.at)
	}
}

func TestLinkQueueOverflow(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{RateBps: 8000, QueueLimit: 3})
	rx := newSink(net)
	b.SetHandler(rx)
	drops := 0
	net.SetObserver(obsFunc(func(at *Node, pkt *packet.Packet, reason metrics.DropReason) {
		if reason == metrics.DropQueueFull {
			drops++
		}
	}))
	for i := 0; i < 5; i++ {
		if err := a.Send(l, mkPkt(100)); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	if len(rx.got) != 3 || drops != 2 {
		t.Fatalf("delivered=%d dropped=%d, want 3/2", len(rx.got), drops)
	}
}

// obsFunc adapts a drop callback to Observer.
type obsFunc func(at *Node, pkt *packet.Packet, reason metrics.DropReason)

func (f obsFunc) OnDrop(at *Node, pkt *packet.Packet, reason metrics.DropReason) {
	f(at, pkt, reason)
}

func TestLinkLossStatistical(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{Loss: 0.3})
	rx := newSink(net)
	b.SetHandler(rx)
	const n = 10000
	for i := 0; i < n; i++ {
		if err := a.Send(l, mkPkt(50)); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	rate := float64(len(rx.got)) / n
	if rate < 0.67 || rate > 0.73 {
		t.Fatalf("delivery rate %v with 30%% loss", rate)
	}
	if net.Sent != n || net.Delivered+net.Dropped != n {
		t.Fatalf("conservation: sent=%d delivered=%d dropped=%d", net.Sent, net.Delivered, net.Dropped)
	}
}

func TestNodeDownDropsArrivals(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{Delay: time.Millisecond})
	rx := newSink(net)
	b.SetHandler(rx)
	if err := a.Send(l, mkPkt(50)); err != nil {
		t.Fatal(err)
	}
	b.SetDown(true) // fails while packet in flight
	sched.Run()
	if len(rx.got) != 0 {
		t.Fatal("down node received a packet")
	}
	if net.Dropped != 1 {
		t.Fatalf("Dropped = %d", net.Dropped)
	}
	// Down node cannot send either.
	if err := b.Send(l, mkPkt(50)); !errors.Is(err, ErrNodeDown) {
		t.Fatalf("send from down node: %v", err)
	}
}

func TestLinkDownRejectsSend(t *testing.T) {
	net, _ := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{})
	l.SetDown(true)
	if err := a.Send(l, mkPkt(50)); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("err = %v, want ErrLinkDown", err)
	}
	if a.LinkTo(b) != nil {
		t.Fatal("LinkTo should skip down links")
	}
	l.SetDown(false)
	if a.LinkTo(b) != l {
		t.Fatal("LinkTo should find restored link")
	}
}

func TestSendNotOnLink(t *testing.T) {
	net, _ := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	c := net.NewNode("c")
	l := net.Connect(a, b, LinkConfig{})
	if err := c.Send(l, mkPkt(50)); !errors.Is(err, ErrNotOnLink) {
		t.Fatalf("err = %v, want ErrNotOnLink", err)
	}
	if l.Peer(c) != nil {
		t.Fatal("Peer of non-endpoint should be nil")
	}
}

func TestSendNilPacket(t *testing.T) {
	net, _ := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{})
	if err := a.Send(l, nil); !errors.Is(err, ErrNilPacket) {
		t.Fatalf("err = %v, want ErrNilPacket", err)
	}
	if err := net.DeliverDirect(a, b, nil, 0, 0); !errors.Is(err, ErrNilPacket) {
		t.Fatalf("err = %v, want ErrNilPacket", err)
	}
}

func TestAddrOwnership(t *testing.T) {
	net, _ := testNet()
	a := net.NewNode("a")
	ip := addr.MustParse("10.0.0.9")
	a.AddAddr(ip)
	if !a.HasAddr(ip) || net.NodeByAddr(ip) != a {
		t.Fatal("address registration failed")
	}
	if a.Addr() != ip {
		t.Fatalf("Addr = %v", a.Addr())
	}
	a.RemoveAddr(ip)
	if a.HasAddr(ip) || net.NodeByAddr(ip) != nil {
		t.Fatal("address removal failed")
	}
	if a.Addr() != addr.Unspecified {
		t.Fatal("addressless node should report unspecified")
	}
}

func TestDeliverDirect(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("bs")
	m := net.NewNode("mn")
	rx := newSink(net)
	m.SetHandler(rx)
	if err := net.DeliverDirect(a, m, mkPkt(60), 2*time.Millisecond, 0); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(rx.got) != 1 || rx.at[0] != 2*time.Millisecond {
		t.Fatalf("air delivery: n=%d at=%v", len(rx.got), rx.at)
	}
	if rx.from[0] != a {
		t.Fatal("air delivery lost sender")
	}
}

func TestDeliverDirectLoss(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("bs")
	m := net.NewNode("mn")
	rx := newSink(net)
	m.SetHandler(rx)
	const n = 5000
	for i := 0; i < n; i++ {
		if err := net.DeliverDirect(a, m, mkPkt(60), 0, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	sched.Run()
	rate := float64(len(rx.got)) / n
	if rate < 0.46 || rate > 0.54 {
		t.Fatalf("air delivery rate %v with 50%% loss", rate)
	}
}

func TestHandlerlessNodeDrops(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b") // no handler
	l := net.Connect(a, b, LinkConfig{})
	if err := a.Send(l, mkPkt(50)); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if net.Dropped != 1 || net.Delivered != 0 {
		t.Fatalf("handlerless delivery: dropped=%d delivered=%d", net.Dropped, net.Delivered)
	}
}

func TestQueueDepthAccounting(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{RateBps: 800}) // 1 byte / 10ms
	b.SetHandler(newSink(net))
	for i := 0; i < 3; i++ {
		if err := a.Send(l, mkPkt(50)); err != nil {
			t.Fatal(err)
		}
	}
	if l.QueueDepth(a) != 3 {
		t.Fatalf("QueueDepth = %d, want 3", l.QueueDepth(a))
	}
	if l.QueueDepth(b) != 0 {
		t.Fatal("reverse direction should be empty")
	}
	sched.Run()
	if l.QueueDepth(a) != 0 {
		t.Fatalf("QueueDepth after drain = %d", l.QueueDepth(a))
	}
	c := net.NewNode("c")
	if l.QueueDepth(c) != 0 {
		t.Fatal("non-endpoint QueueDepth should be 0")
	}
}

func TestNodesReturnsCopy(t *testing.T) {
	net, _ := testNet()
	net.NewNode("a")
	nodes := net.Nodes()
	nodes[0] = nil
	if net.Nodes()[0] == nil {
		t.Fatal("Nodes leaked internal slice")
	}
	links := net.NewNode("x").Links()
	if len(links) != 0 {
		t.Fatal("fresh node has links")
	}
}
