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

// A rate-limited link keeps each direction FIFO: both directions send
// bursts of mixed sizes at mixed instants, and every packet must arrive
// at its own serialization end plus the delay, in send order per
// direction, with QueueLimit drops and QueueDepth exactly as a
// hand-kept transmitter model predicts.
func TestRateLimitedArrivalsFIFOPerDirection(t *testing.T) {
	const (
		rate  = 80_000 // 10 bytes per ms
		delay = 3 * time.Millisecond
		limit = 4
	)
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{Delay: delay, RateBps: rate, QueueLimit: limit})
	got := map[*Node][]arrival{}
	for _, nd := range []*Node{a, b} {
		nd := nd
		nd.SetHandler(HandlerFunc(func(p *packet.Packet, _ *Node, _ *Link) {
			got[nd] = append(got[nd], arrival{p.Seq, sched.Now()})
		}))
	}
	// model is the transmitter of one direction as the link must behave:
	// a serialization queue with at most limit packets not yet sent.
	type model struct {
		busyUntil time.Duration
		txEnds    []time.Duration // serialization ends still ahead
		want      []arrival
		drops     int
	}
	models := map[*Node]*model{a: {}, b: {}}
	depth := func(m *model) int {
		n := 0
		for _, e := range m.txEnds {
			if e > sched.Now() {
				n++
			}
		}
		return n
	}
	r := simtime.NewRand(7)
	seq := uint32(0)
	for k := 0; k < 60; k++ {
		at := time.Duration(r.Intn(40)) * time.Millisecond
		from, size := a, 20+r.Intn(200)
		if r.Bool(0.5) {
			from = b
		}
		s := seq
		seq++
		sched.At(at, func() {
			m := models[from]
			if q := depth(m); q != l.QueueDepth(from) {
				t.Fatalf("at %v: QueueDepth(%s) = %d, model %d", sched.Now(), from, l.QueueDepth(from), q)
			}
			if depth(m) >= limit {
				m.drops++
			} else {
				start := max(sched.Now(), m.busyUntil)
				m.busyUntil = start + time.Duration(size*8)*time.Second/rate
				m.txEnds = append(m.txEnds, m.busyUntil)
				m.want = append(m.want, arrival{s, m.busyUntil + delay})
			}
			if err := from.Send(l, seqPkt(size, s)); err != nil {
				t.Fatal(err)
			}
		})
	}
	drops := 0
	net.SetObserver(obsFunc(func(_ *Node, _ *packet.Packet, reason metrics.DropReason) {
		if reason != metrics.DropQueueFull {
			t.Fatalf("unexpected drop %v", reason)
		}
		drops++
	}))
	sched.Run()
	for from, to := range map[*Node]*Node{a: b, b: a} {
		m := models[from]
		if len(got[to]) != len(m.want) {
			t.Fatalf("%s -> %s: %d arrivals, want %d", from, to, len(got[to]), len(m.want))
		}
		for i := range m.want {
			if got[to][i] != m.want[i] {
				t.Fatalf("%s -> %s: arrival %d is %+v, want %+v", from, to, i, got[to][i], m.want[i])
			}
		}
		if l.QueueDepth(from) != 0 {
			t.Fatalf("QueueDepth(%s) = %d after the drain", from, l.QueueDepth(from))
		}
	}
	if want := models[a].drops + models[b].drops; drops != want || want == 0 {
		t.Fatalf("queue-full drops = %d, model %d (want some)", drops, want)
	}
	if net.InFlight() != 0 || net.Sent != net.Delivered+net.Dropped {
		t.Fatalf("sent %d, delivered %d, dropped %d, in flight %d", net.Sent, net.Delivered, net.Dropped, net.InFlight())
	}
}

// Shortening a rate-limited link's delay lets a later packet overtake
// the ones already in flight: each packet still arrives at its own
// instant, carrying its own payload.
func TestRateLimitedSetDelayOvertake(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	l := net.Connect(a, b, LinkConfig{Delay: 10 * time.Millisecond, RateBps: 8e6})
	var got []arrival
	b.SetHandler(HandlerFunc(func(p *packet.Packet, _ *Node, _ *Link) {
		got = append(got, arrival{p.Seq, sched.Now()})
	}))
	// 1000-byte packets serialize in 1 ms at 8 Mb/s.
	send := func(seq uint32) {
		if err := a.Send(l, seqPkt(1000, seq)); err != nil {
			t.Fatal(err)
		}
	}
	send(0) // done 1 ms, arrives 11 ms
	send(1) // done 2 ms, arrives 12 ms
	l.SetDelay(time.Millisecond)
	send(2) // done 3 ms, arrives 4 ms
	send(3) // done 4 ms, arrives 5 ms
	l.SetDelay(9 * time.Millisecond)
	send(4) // done 5 ms, arrives 14 ms
	send(5) // done 6 ms, arrives 15 ms
	sched.Run()
	ms := time.Millisecond
	want := []arrival{{2, 4 * ms}, {3, 5 * ms}, {0, 11 * ms}, {1, 12 * ms}, {4, 14 * ms}, {5, 15 * ms}}
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
// delivery, or still in flight — at any instant, across unlimited and
// rate-limited links, the air interface, loss, a down receiver, a node
// without a handler, a queue limit and protocol-level discards (which are
// not send fates).
func TestHopConservation(t *testing.T) {
	net, sched := testNet()
	a := net.NewNode("a")
	b := net.NewNode("b")
	c := net.NewNode("c") // never gets a handler
	links := []*Link{
		net.Connect(a, b, LinkConfig{Delay: 2 * time.Millisecond, Loss: 0.1}),
		net.Connect(a, b, LinkConfig{Delay: 5 * time.Millisecond, RateBps: 1e5, QueueLimit: 2}),
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
