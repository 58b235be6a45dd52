package netsim

import (
	"sort"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/packet"
)

// Route maps a destination prefix to an outgoing link.
type Route struct {
	Prefix addr.Prefix
	Via    *Link
}

// StaticRouter forwards packets by longest-prefix match. It is the generic
// wired-backbone element: the simulated "Internet" between home networks,
// corresponding nodes and access networks is built from these. Packets
// addressed to the router itself go to the Local handler.
type StaticRouter struct {
	node   *Node
	routes []Route // sorted by descending prefix length, then insertion
	// Local receives packets addressed to one of the router's own
	// addresses. Nil means such packets are dropped as no-route.
	Local Handler
	// Default is the fallback link when no route matches. Nil means drop.
	Default *Link
}

var _ Handler = (*StaticRouter)(nil)

// NewStaticRouter attaches a fresh router to node and installs it as the
// node's handler.
func NewStaticRouter(node *Node) *StaticRouter {
	r := &StaticRouter{node: node}
	node.SetHandler(r)
	return r
}

// NewDetachedRouter returns a router usable as a forwarding table for node
// without installing it as the node's handler. Protocol entities that need
// their own Receive logic (a multi-tier root station) embed one of these
// for their wired side.
func NewDetachedRouter(node *Node) *StaticRouter {
	return &StaticRouter{node: node}
}

// AddRoute installs a route. Routes are matched longest-prefix-first;
// among equal lengths, the earliest installed wins.
func (r *StaticRouter) AddRoute(prefix addr.Prefix, via *Link) {
	r.routes = append(r.routes, Route{Prefix: prefix, Via: via})
	sort.SliceStable(r.routes, func(i, j int) bool {
		return r.routes[i].Prefix.Bits > r.routes[j].Prefix.Bits
	})
}

// Lookup returns the link for dst, falling back to Default, or nil.
func (r *StaticRouter) Lookup(dst addr.IP) *Link {
	for _, rt := range r.routes {
		if rt.Prefix.Contains(dst) && !rt.Via.Down() {
			return rt.Via
		}
	}
	return r.Default
}

// Receive implements Handler: local delivery or longest-prefix forwarding
// with TTL decrement.
func (r *StaticRouter) Receive(pkt *packet.Packet, from *Node, link *Link) {
	if r.node.HasAddr(pkt.Dst) {
		if r.Local != nil {
			r.Local.Receive(pkt, from, link)
			return
		}
		r.node.net.observeDrop(r.node, pkt, metrics.DropNoRoute)
		return
	}
	r.Forward(pkt)
}

// Forward routes a packet onward without considering local delivery.
// Protocol code calls this for packets it originates.
func (r *StaticRouter) Forward(pkt *packet.Packet) {
	via := r.Lookup(pkt.Dst)
	if via == nil {
		r.node.net.observeDrop(r.node, pkt, metrics.DropNoRoute)
		return
	}
	if err := pkt.DecrementTTL(); err != nil {
		r.node.net.observeDrop(r.node, pkt, metrics.DropTTL)
		return
	}
	// Send errors here mean the link or node went down between Lookup and
	// Send; account the packet rather than propagate, as a real router
	// would increment an interface error counter.
	if err := r.node.Send(via, pkt); err != nil {
		r.node.net.observeDrop(r.node, pkt, metrics.DropLinkLoss)
	}
}
