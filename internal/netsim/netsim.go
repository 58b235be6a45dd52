// Package netsim is the discrete-event network substrate: nodes joined by
// duplex links with propagation delay, finite transmission rate, bounded
// FIFO queues and random loss. Every protocol entity in the simulator
// (base stations, gateways, home agents, routers, mobile nodes) is a Node
// whose Handler reacts to delivered packets.
//
// The wired world is built from persistent links; the air interface is a
// per-delivery call (Network.DeliverDirect) because radio "links" between a
// mobile node and whichever base station currently serves it appear and
// disappear with movement.
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
	byAddr   map[addr.IP]*Node
	observer Observer
	flights  []*flight // free list of in-flight delivery records

	// Totals for integration-test conservation checks.
	Sent      uint64
	Delivered uint64
	Dropped   uint64
}

// flight is one pooled in-flight delivery: the state a packet needs while
// crossing a link or the air interface. Each flight binds its callback
// funcs once at creation, so the steady-state send path schedules events
// without allocating closures.
type flight struct {
	net    *Network
	to     *Node
	from   *Node
	link   *Link
	pkt    *packet.Packet
	dir    *direction
	lost   bool
	fireFn func()
	txFn   func()
}

// getFlight takes a flight from the free list (or makes one).
//
//mmlint:noalloc
func (n *Network) getFlight() *flight {
	if k := len(n.flights); k > 0 {
		f := n.flights[k-1]
		n.flights = n.flights[:k-1]
		return f
	}
	f := &flight{net: n} //mmlint:alloc-ok pool miss grows the flight pool; steady state recycles
	f.fireFn = f.fire
	f.txFn = f.txDone
	return f
}

// putFlight recycles a flight after its arrival event ran.
//
//mmlint:noalloc
func (n *Network) putFlight(f *flight) {
	f.to, f.from, f.link, f.pkt, f.dir = nil, nil, nil, nil, nil
	f.lost = false
	n.flights = append(n.flights, f) //mmlint:alloc-ok free-list growth is amortized against recycled capacity
}

// txDone marks the link direction free at serialization end. It always
// fires no later than fire (delay >= 0), so the flight is still live.
//
//mmlint:noalloc
func (f *flight) txDone() { f.dir.queued-- }

// fire resolves the arrival: loss or delivery. The loss was decided at
// send time but is attributed here so traces read causally.
//
//mmlint:noalloc
func (f *flight) fire() {
	n, to, from, link, pkt, lost := f.net, f.to, f.from, f.link, f.pkt, f.lost
	n.putFlight(f)
	if lost {
		n.observeDrop(to, pkt, metrics.DropLinkLoss)
		return
	}
	n.deliver(to, pkt, from, link)
}

// New creates an empty network on the given scheduler, drawing loss
// randomness from a fork of rng.
func New(sched *simtime.Scheduler, rng *simtime.Rand) *Network {
	return &Network{
		sched:  sched,
		rng:    rng.Fork(),
		byAddr: make(map[addr.IP]*Node),
	}
}

// Scheduler returns the network's clock.
func (n *Network) Scheduler() *simtime.Scheduler { return n.sched }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sched.Now() }

// SetObserver installs the packet-fate observer (may be nil).
func (n *Network) SetObserver(o Observer) { n.observer = o }

// Nodes returns all nodes in creation order. The slice is a copy.
func (n *Network) Nodes() []*Node {
	out := make([]*Node, len(n.nodes))
	copy(out, n.nodes)
	return out
}

// Links returns all wired links in creation order. The slice is a copy;
// fault injection indexes into it to pick degradation targets.
func (n *Network) Links() []*Link {
	out := make([]*Link, len(n.links))
	copy(out, n.links)
	return out
}

// NodeByAddr returns the node owning ip, or nil.
func (n *Network) NodeByAddr(ip addr.IP) *Node { return n.byAddr[ip] }

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

// Name returns the diagnostic name.
func (nd *Node) Name() string { return nd.name }

// Network returns the owning network.
func (nd *Node) Network() *Network { return nd.net }

// String implements fmt.Stringer.
func (nd *Node) String() string { return fmt.Sprintf("%s#%d", nd.name, nd.id) }

// SetHandler installs the packet handler.
func (nd *Node) SetHandler(h Handler) { nd.handler = h }

// AddAddr registers an address as owned by this node.
func (nd *Node) AddAddr(ip addr.IP) {
	nd.addrs = append(nd.addrs, ip)
	nd.net.byAddr[ip] = nd
}

// RemoveAddr releases ownership of an address (care-of address churn).
func (nd *Node) RemoveAddr(ip addr.IP) {
	for i, a := range nd.addrs {
		if a == ip {
			nd.addrs = append(nd.addrs[:i], nd.addrs[i+1:]...)
			break
		}
	}
	if nd.net.byAddr[ip] == nd {
		delete(nd.net.byAddr, ip)
	}
}

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

// Links returns the node's attached links. The slice is a copy.
func (nd *Node) Links() []*Link {
	out := make([]*Link, len(nd.links))
	copy(out, nd.links)
	return out
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
	f := n.getFlight()
	f.to, f.from, f.pkt = to, from, pkt
	f.lost = n.rng.Bool(loss)
	// Air delays are per-station constants, so deliveries ride the
	// constant-delay FIFO lines instead of the scheduler heap.
	n.sched.AfterFIFO(delay, f.fireFn)
	return nil
}
