package netsim

import (
	"fmt"
	"time"

	"repro/internal/metrics"
	"repro/internal/packet"
)

// LinkConfig describes one duplex link's characteristics.
type LinkConfig struct {
	// Delay is the one-way propagation delay.
	Delay time.Duration
	// RateBps is the transmission rate in bits per second; zero means
	// infinite (no serialization delay).
	RateBps float64
	// QueueLimit bounds packets queued per direction awaiting
	// transmission; zero means unlimited.
	QueueLimit int
	// Loss is the independent per-packet loss probability in [0,1].
	Loss float64
}

// Link is a duplex point-to-point link. Each direction has its own
// transmission queue and busy time so cross-traffic does not interfere.
type Link struct {
	net  *Network
	a, b *Node
	cfg  LinkConfig
	dirs [2]direction
	down bool
}

type direction struct {
	busyUntil time.Duration
	queued    int
}

// Connect joins two nodes with a new duplex link.
func (n *Network) Connect(a, b *Node, cfg LinkConfig) *Link {
	l := &Link{net: n, a: a, b: b, cfg: cfg}
	n.links = append(n.links, l)
	a.links = append(a.links, l)
	b.links = append(b.links, l)
	return l
}

// Peer returns the node at the other end from n, or nil when n is not an
// endpoint.
func (l *Link) Peer(n *Node) *Node {
	switch n {
	case l.a:
		return l.b
	case l.b:
		return l.a
	default:
		return nil
	}
}

// Config returns the link parameters.
func (l *Link) Config() LinkConfig { return l.cfg }

// SetLoss changes the link's loss probability (failure injection).
func (l *Link) SetLoss(p float64) { l.cfg.Loss = p }

// SetDelay changes the link's propagation delay (failure injection:
// backbone latency degradation). Packets already in flight keep the
// delay they were sent with.
func (l *Link) SetDelay(d time.Duration) { l.cfg.Delay = d }

// SetDown marks the link failed. Packets already in flight still arrive;
// new sends fail. Only tests cut links (fault injection downs nodes):
// the netsim and Mobile IP retry tests use it.
//
//mmlint:testref netsim and Mobile IP retry tests cut a link
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports the failure state.
func (l *Link) Down() bool { return l.down }

// String implements fmt.Stringer.
func (l *Link) String() string { return fmt.Sprintf("%s<->%s", l.a, l.b) }

// txDelay returns the serialization time for a packet of the given size.
func (l *Link) txDelay(size int) time.Duration {
	if l.cfg.RateBps <= 0 {
		return 0
	}
	seconds := float64(size*8) / l.cfg.RateBps
	return time.Duration(seconds * float64(time.Second))
}

// Send transmits pkt from node n toward the link peer, modelling queueing,
// serialization, propagation and random loss. The error reports only local
// conditions (down node/link, queue overflow is not an error — it is an
// observed drop, as in a real NIC).
//
//mmlint:noalloc
func (nd *Node) Send(l *Link, pkt *packet.Packet) error {
	if pkt == nil {
		return ErrNilPacket
	}
	if nd.down {
		return fmt.Errorf("%w: %s", ErrNodeDown, nd) //mmlint:alloc-ok error path, not steady state
	}
	if l.down {
		return fmt.Errorf("%w: %s", ErrLinkDown, l) //mmlint:alloc-ok error path, not steady state
	}
	var dir *direction
	switch nd {
	case l.a:
		dir = &l.dirs[0]
	case l.b:
		dir = &l.dirs[1]
	default:
		return fmt.Errorf("%w: %s on %s", ErrNotOnLink, nd, l) //mmlint:alloc-ok error path, not steady state
	}
	net := nd.net
	net.Sent++

	if l.cfg.QueueLimit > 0 && dir.queued >= l.cfg.QueueLimit {
		net.observeDrop(nd, pkt, metrics.DropQueueFull)
		return nil
	}

	f := net.getFlight()
	f.to, f.from, f.link, f.pkt, f.dir = l.Peer(nd), nd, l, pkt, dir
	f.lost = net.rng.Bool(l.cfg.Loss)
	if l.cfg.RateBps <= 0 && l.cfg.QueueLimit <= 0 {
		// No serialization delay and no queue bound: the transmitter is
		// never busy (done == now for every packet), so the queue counter
		// could only ever be observed at zero and the txDone event would
		// be a same-instant no-op. Skip both and ride the constant-delay
		// FIFO line: arrival == now + Delay for every packet of the link,
		// and the scheduler heap stays flat no matter how many packets
		// are in flight.
		net.sched.AfterFIFO(l.cfg.Delay, f.fireFn)
		return nil
	}
	now := net.sched.Now()
	start := now
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	done := start + l.txDelay(pkt.Size())
	dir.busyUntil = done
	dir.queued++
	net.sched.At(done, f.txFn)
	net.sched.At(done+l.cfg.Delay, f.fireFn)
	return nil
}

// SendVia finds the first up link from nd to peer and sends on it.
//
//mmlint:noalloc
func (nd *Node) SendVia(peer *Node, pkt *packet.Packet) error {
	l := nd.LinkTo(peer)
	if l == nil {
		return fmt.Errorf("%w: no up link %s -> %s", ErrLinkDown, nd, peer) //mmlint:alloc-ok error path, not steady state
	}
	return nd.Send(l, pkt)
}
