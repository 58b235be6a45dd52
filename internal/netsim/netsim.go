// Package netsim is the discrete-event network substrate: nodes joined by
// duplex links with a constant propagation delay and random loss. Every
// protocol entity in the simulator (base stations, gateways, home agents,
// routers, mobile nodes) is a Node whose Handler reacts to delivered
// packets.
//
// The wired world is built from persistent links; the air interface is a
// per-delivery call (Network.DeliverDirect) because radio "links" between a
// mobile node and whichever base station currently serves it appear and
// disappear with movement.
//
// Packets in flight are held by value, never in per-send records: a
// hop waits in the FIFO of its delay, which posts one handle-less
// callback per hop on the scheduler's line of that delay. Every accepted
// send is therefore delivered, dropped, or counted by InFlight.
//
// A hop is written into its ring cell field by field (hopRing.tail, then
// hop.put) and its arrival reads the front cell's fields into locals
// (hopRing.arriveFront); no hop value is passed to a push or returned by
// a pop. A struct passed by value is spilled to the stack as narrow
// stores and copied with wide loads the CPU cannot forward from them —
// the same store-forwarding stall that cost simtime's line append 0.86 s
// of its 1.09 s flat time on the 1k-MN media workload (see simtime.Line).
package netsim

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Errors returned by send operations.
var (
	ErrNodeDown   = errors.New("netsim: node is down")
	ErrLinkDown   = errors.New("netsim: link is down")
	ErrNotOnLink  = errors.New("netsim: node is not an endpoint of link")
	ErrNilPacket  = errors.New("netsim: nil packet")
	ErrNilHandler = errors.New("netsim: node has no handler")
)

// NodeID identifies a node within its network.
type NodeID uint32

// Handler reacts to packets delivered to a node. from is the sending node;
// link is nil for air-interface deliveries.
type Handler interface {
	Receive(pkt *packet.Packet, from *Node, link *Link)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(pkt *packet.Packet, from *Node, link *Link)

// Receive implements Handler.
func (f HandlerFunc) Receive(pkt *packet.Packet, from *Node, link *Link) { f(pkt, from, link) }

var _ Handler = (HandlerFunc)(nil)

// Observer watches packet drops for metrics collection. Sends and
// deliveries are only counted (Network.Sent, Network.Delivered).
// Implementations must not mutate packets.
type Observer interface {
	OnDrop(at *Node, pkt *packet.Packet, reason metrics.DropReason)
}

// Network owns the nodes, links, clock and randomness of one simulated
// internetwork.
type Network struct {
	sched    *simtime.Scheduler
	rng      *simtime.Rand
	nodes    []*Node
	links    []*Link
	observer Observer
	// fifos holds one in-flight FIFO per distinct constant delay, in
	// creation order; links and air deliveries of equal delay share one.
	fifos []*delayFIFO

	// Totals for integration-test conservation checks. Every accepted
	// send (Sent) ends in exactly one way: delivered to a handler
	// (Delivered), dropped before delivery (Dropped minus Discarded), or
	// still in flight (InFlight). Discarded counts the protocol-level
	// drops of Network.Drop, which are not send fates.
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Discarded uint64
}

// hop is one packet in flight across a link or the air interface: the
// state its arrival needs, held by value in a FIFO ring.
type hop struct {
	to   *Node
	from *Node
	link *Link // nil for an air delivery
	pkt  *packet.Packet
	lost bool
}

// hopRing is a FIFO of in-flight hops: a circular buffer whose length is
// a power of two, so push and pop index with a mask.
type hopRing struct {
	buf   []hop
	head  int
	count int
}

// tail reserves the cell at the ring tail, doubling the ring when it is
// full, and returns it for the caller to fill field by field (see the
// package comment for why hops are never stored whole).
//
//mmlint:noalloc
func (r *hopRing) tail() *hop {
	if r.count == len(r.buf) {
		grown := make([]hop, max(2*len(r.buf), 16)) //mmlint:alloc-ok ring growth is amortized doubling
		for k := 0; k < r.count; k++ {
			grown[k] = r.buf[(r.head+k)&(len(r.buf)-1)]
		}
		r.buf, r.head = grown, 0
	}
	h := &r.buf[(r.head+r.count)&(len(r.buf)-1)]
	r.count++
	return h
}

// put fills the reserved cell h with one hop.
//
//mmlint:noalloc
func (h *hop) put(to, from *Node, link *Link, pkt *packet.Packet, lost bool) {
	h.to = to
	h.from = from
	h.link = link
	h.pkt = pkt
	h.lost = lost
}

// arriveFront removes the front hop, clearing its cell so the ring does
// not keep the packet reachable, and resolves its arrival. The hop's
// fields are read into locals before the cell is cleared, never copied
// out as one value.
//
//mmlint:noalloc
func (r *hopRing) arriveFront(n *Network) {
	h := &r.buf[r.head]
	to, from, link, pkt, lost := h.to, h.from, h.link, h.pkt, h.lost
	*h = hop{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.count--
	n.arrive(to, from, link, pkt, lost)
}

// delayFIFO carries every in-flight hop of one constant delay d. Each
// send pushes its hop and posts the FIFO's callback, bound once, on the
// scheduler's line of delay d. A line runs its entries in push order and
// a post is never cancelled, so the k-th callback to fire is the k-th
// post, and the FIFO front is always the hop whose arrival is due.
type delayFIFO struct {
	net    *Network
	d      time.Duration
	line   *simtime.Line
	hops   hopRing
	fireFn func()
}

// fifo returns (creating on first use) the in-flight FIFO of delay d.
// Networks see a handful of distinct delays (wired hops, a few air
// profiles, degraded links), so a scan beats a map.
func (n *Network) fifo(d time.Duration) *delayFIFO {
	for _, q := range n.fifos {
		if q.d == d {
			return q
		}
	}
	q := &delayFIFO{net: n, d: d, line: n.sched.Line(d)}
	q.fireFn = q.fire
	n.fifos = append(n.fifos, q)
	return q
}

// post puts a hop in flight: it arrives d from now.
//
//mmlint:noalloc
func (q *delayFIFO) post(to, from *Node, link *Link, pkt *packet.Packet, lost bool) {
	q.hops.tail().put(to, from, link, pkt, lost)
	q.line.Post(q.fireFn)
}

// fire resolves the front hop's arrival.
//
//mmlint:noalloc
func (q *delayFIFO) fire() { q.hops.arriveFront(q.net) }

// arrive resolves one hop: loss or delivery. The loss was decided at
// send time but is attributed here so traces read causally.
//
//mmlint:noalloc
func (n *Network) arrive(to, from *Node, link *Link, pkt *packet.Packet, lost bool) {
	if lost {
		n.observeDrop(to, pkt, metrics.DropLinkLoss)
		return
	}
	n.deliver(to, pkt, from, link)
}

// InFlight returns the packets sent but not yet arrived: every hop still
// in a FIFO. Only tests read it, to check that every send is accounted
// for (see Network.Sent).
//
//mmlint:testref hop-conservation checks in the netsim and core tests
func (n *Network) InFlight() int {
	k := 0
	for _, q := range n.fifos {
		k += q.hops.count
	}
	return k
}

// New creates an empty network on the given scheduler, drawing loss
// randomness from a fork of rng.
func New(sched *simtime.Scheduler, rng *simtime.Rand) *Network {
	return &Network{
		sched: sched,
		rng:   rng.Fork(),
	}
}

// Scheduler returns the network's clock.
func (n *Network) Scheduler() *simtime.Scheduler { return n.sched }

// SetObserver installs the packet-fate observer (may be nil).
func (n *Network) SetObserver(o Observer) { n.observer = o }

// Links returns all wired links in creation order. The slice is a copy;
// fault injection indexes into it to pick degradation targets.
func (n *Network) Links() []*Link {
	out := make([]*Link, len(n.links))
	copy(out, n.links)
	return out
}

// NewNode creates a node with the given diagnostic name.
func (n *Network) NewNode(name string) *Node {
	node := &Node{net: n, id: NodeID(len(n.nodes) + 1), name: name}
	n.nodes = append(n.nodes, node)
	return node
}

// Node is one addressable network element.
type Node struct {
	net     *Network
	id      NodeID
	name    string
	addrs   []addr.IP
	handler Handler
	links   []*Link
	down    bool
}

// ID returns the node's network-unique id.
func (nd *Node) ID() NodeID { return nd.id }

// Network returns the owning network.
func (nd *Node) Network() *Network { return nd.net }

// String implements fmt.Stringer.
func (nd *Node) String() string { return fmt.Sprintf("%s#%d", nd.name, nd.id) }

// SetHandler installs the packet handler.
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

// AddAddr registers an address as owned by this node.
func (nd *Node) AddAddr(ip addr.IP) { nd.addrs = append(nd.addrs, ip) }

// HasAddr reports whether the node owns ip.
func (nd *Node) HasAddr(ip addr.IP) bool {
	for _, a := range nd.addrs {
		if a == ip {
			return true
		}
	}
	return false
}

// Addr returns the node's first address, or the unspecified address.
func (nd *Node) Addr() addr.IP {
	if len(nd.addrs) == 0 {
		return addr.Unspecified
	}
	return nd.addrs[0]
}

// SetDown marks the node failed (failure injection). A down node neither
// sends nor receives; in-flight packets to it are dropped on arrival.
func (nd *Node) SetDown(down bool) { nd.down = down }

// Down reports the failure state.
func (nd *Node) Down() bool { return nd.down }

// LinkTo returns the first up link whose far end is other, or nil.
func (nd *Node) LinkTo(other *Node) *Link {
	for _, l := range nd.links {
		if l.Peer(nd) == other && !l.down {
			return l
		}
	}
	return nil
}

// observeDrop accounts a packet's death and returns it (with any
// encapsulated inner packet) to the free list: a drop is terminal by
// definition, so every drop site transfers ownership here. Callers must
// not touch the packet after dropping it.
//
//mmlint:noalloc
func (n *Network) observeDrop(at *Node, pkt *packet.Packet, reason metrics.DropReason) {
	n.Dropped++
	if n.observer != nil {
		n.observer.OnDrop(at, pkt, reason)
	}
	packet.Release(pkt)
}

// deliver hands a packet to a node's handler, honouring failure state.
//
//mmlint:noalloc
func (n *Network) deliver(to *Node, pkt *packet.Packet, from *Node, link *Link) {
	if to.down {
		n.observeDrop(to, pkt, metrics.DropBSDown)
		return
	}
	if to.handler == nil {
		n.observeDrop(to, pkt, metrics.DropNoRoute)
		return
	}
	n.Delivered++
	to.handler.Receive(pkt, from, link)
}

// Drop records a protocol-level packet discard (no binding, stale visitor,
// failed admission, failed authentication) through the same accounting
// path as link-level drops, so conservation checks and observers see every
// packet fate.
//
//mmlint:noalloc
func (n *Network) Drop(at *Node, pkt *packet.Packet, reason metrics.DropReason) {
	n.Discarded++
	n.observeDrop(at, pkt, reason)
}

// DeliverDirect models a one-shot air-interface delivery from one node to
// another with the given propagation delay and loss probability. Radio
// links are not persistent Link objects because the serving base station
// changes with mobility; the radio package computes delay and loss from
// signal conditions and calls this.
//
//mmlint:noalloc
func (n *Network) DeliverDirect(from, to *Node, pkt *packet.Packet, delay time.Duration, loss float64) error {
	if pkt == nil {
		return ErrNilPacket
	}
	if from.down {
		// Callers treat air delivery as fire-and-forget, so the packet's
		// fate is ours: without this the packet never returns to the pool
		// when its station is down.
		packet.Release(pkt)
		return fmt.Errorf("%w: %s", ErrNodeDown, from) //mmlint:alloc-ok error path, not steady state
	}
	n.Sent++
	// Air delays are per-station constants, so deliveries ride the
	// constant-delay FIFOs instead of the scheduler heap.
	n.fifo(delay).post(to, from, nil, pkt, n.rng.Bool(loss))
	return nil
}
