package netsim

import (
	"fmt"
	"time"

	"repro/internal/packet"
)

// LinkConfig describes one duplex link's characteristics.
type LinkConfig struct {
	// Delay is the one-way propagation delay. Links have no rate and
	// no queue: a packet arrives Delay after it is sent, whatever else
	// is in flight.
	Delay time.Duration
	// Loss is the independent per-packet loss probability in [0,1].
	Loss float64
}

// Link is a duplex point-to-point link. Its two directions share the
// delay and loss but never contend: packets cross independently.
type Link struct {
	net  *Network
	a, b *Node
	cfg  LinkConfig
	down bool
	// fifo is the in-flight FIFO of the link's delay, resolved on the
	// first send after creation or a SetDelay.
	fifo *delayFIFO
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
func (l *Link) SetDelay(d time.Duration) {
	l.cfg.Delay = d
	l.fifo = nil
}

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

// Send transmits pkt from node n toward the link peer, modelling
// propagation and random loss. The error reports only local conditions
// (down node or link, n not an endpoint).
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
	var to *Node
	switch nd {
	case l.a:
		to = l.b
	case l.b:
		to = l.a
	default:
		return fmt.Errorf("%w: %s on %s", ErrNotOnLink, nd, l) //mmlint:alloc-ok error path, not steady state
	}
	net := nd.net
	net.Sent++
	// Every packet of the link arrives Delay after it is sent, so it
	// rides the constant-delay FIFO and the scheduler heap stays flat no
	// matter how many packets are in flight.
	if l.fifo == nil {
		l.fifo = net.fifo(l.cfg.Delay)
	}
	l.fifo.post(to, nd, l, pkt, net.rng.Bool(l.cfg.Loss))
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
