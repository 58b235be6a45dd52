package mobileip

import (
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// visitor is one mobile node currently served by the FA.
type visitor struct {
	home addr.IP
	node *netsim.Node
}

// ForeignAgent serves visiting mobile nodes on a foreign link (Fig 2.2):
// it relays their registrations to the Home Agent, de-tunnels packets
// arriving for its care-of address, and delivers them over the air.
type ForeignAgent struct {
	node   *netsim.Node
	router *netsim.StaticRouter
	stats  *Stats

	careOf   addr.IP
	visitors map[addr.IP]*visitor // keyed by home address

	// AirDelay and AirLoss characterise the wireless hop to visitors.
	AirDelay time.Duration
	AirLoss  float64
}

var _ netsim.Handler = (*ForeignAgent)(nil)

// NewForeignAgent attaches a Foreign Agent to node. careOf is the care-of
// address it offers (usually the node's own address). The node's handler
// is replaced. stats must be non-nil; NewStats(nil) gives a private
// registry.
func NewForeignAgent(node *netsim.Node, careOf addr.IP, stats *Stats) *ForeignAgent {
	fa := &ForeignAgent{
		node:     node,
		stats:    stats,
		careOf:   careOf,
		visitors: make(map[addr.IP]*visitor),
		AirDelay: 5 * time.Millisecond,
	}
	fa.router = netsim.NewStaticRouter(node)
	node.SetHandler(fa)
	return fa
}

// Node returns the underlying network node.
func (fa *ForeignAgent) Node() *netsim.Node { return fa.node }

// Router returns the embedded router for wired route configuration.
func (fa *ForeignAgent) Router() *netsim.StaticRouter { return fa.router }

// CareOf returns the care-of address this agent offers.
func (fa *ForeignAgent) CareOf() addr.IP { return fa.careOf }

// Attach adds a mobile node to the visitor list (radio association). It
// does not register with the HA — that is the mobile node's job.
func (fa *ForeignAgent) Attach(home addr.IP, node *netsim.Node) {
	fa.visitors[home] = &visitor{home: home, node: node}
}

// Detach removes a visitor (it moved away or powered off).
func (fa *ForeignAgent) Detach(home addr.IP) { delete(fa.visitors, home) }

// OrphanVisitors wipes the visitor list — a crashed agent loses its
// soft state, so recovered visitors must re-attach and re-register.
// Returns how many visitors were orphaned.
func (fa *ForeignAgent) OrphanVisitors() int {
	n := len(fa.visitors)
	clear(fa.visitors)
	return n
}

// RelayRegistration forwards a mobile node's registration request to its
// Home Agent over the wired network (Fig 2.2 step 1b).
func (fa *ForeignAgent) RelayRegistration(req *RegistrationRequest) {
	pkt := packet.NewControl(fa.node.Addr(), req.HomeAg, packet.ProtoMobileIP, req.Marshal())
	fa.stats.Signaling.Inc()
	fa.stats.SignalingBytes.Add(uint64(pkt.Size()))
	fa.router.Forward(pkt)
}

// Receive implements netsim.Handler.
func (fa *ForeignAgent) Receive(pkt *packet.Packet, from *netsim.Node, link *netsim.Link) {
	switch {
	case pkt.Proto == packet.ProtoMobileIP && link == nil:
		// Over-the-air control from a visitor: a registration request to
		// relay (step 1b). The relayed copy is a fresh packet, so the
		// original is terminal here.
		msg, err := ParseMessage(pkt.Payload)
		if err == nil {
			if req, ok := msg.(*RegistrationRequest); ok {
				fa.RelayRegistration(req)
			}
		}
		packet.Release(pkt)
	case pkt.Proto == packet.ProtoMobileIP && fa.node.HasAddr(pkt.Dst):
		// Wired control: a registration reply to relay down to the
		// visitor (step 1c).
		fa.relayReply(pkt)
	case pkt.Proto == packet.ProtoIPinIP && pkt.Dst == fa.careOf:
		fa.deliverTunnelled(pkt)
	case fa.node.HasAddr(pkt.Dst):
		// Addressed to us but nothing we handle: consumed.
		packet.Release(pkt)
	default:
		fa.router.Forward(pkt)
	}
}

func (fa *ForeignAgent) relayReply(pkt *packet.Packet) {
	msg, err := ParseMessage(pkt.Payload)
	if err != nil {
		packet.Release(pkt)
		return
	}
	reply, ok := msg.(*RegistrationReply)
	if !ok {
		packet.Release(pkt)
		return
	}
	v, ok := fa.visitors[reply.Home]
	if !ok {
		// Visitor left while the reply was in flight. Drop releases.
		fa.node.Network().Drop(fa.node, pkt, metrics.DropStale)
		fa.stats.StaleAtFA.Inc()
		return
	}
	// The downlink copy shares the payload bytes; releasing the wired
	// packet only drops its reference.
	down := packet.NewControl(fa.node.Addr(), reply.Home, packet.ProtoMobileIP, pkt.Payload)
	fa.stats.Signaling.Inc()
	fa.stats.SignalingBytes.Add(uint64(down.Size()))
	_ = fa.node.Network().DeliverDirect(fa.node, v.node, down, fa.AirDelay, fa.AirLoss)
	packet.Release(pkt)
}

// deliverTunnelled de-tunnels a packet from the HA and hands it to the
// visitor over the air (Fig 2.2 step 2a, FA side). The tunnel wrapper is
// terminal here: the inner packet is detached before the wrapper is
// released, then travels on alone.
func (fa *ForeignAgent) deliverTunnelled(pkt *packet.Packet) {
	inner, err := pkt.Decapsulate()
	if err != nil {
		packet.Release(pkt)
		return
	}
	pkt.Inner = nil
	packet.Release(pkt)
	v, ok := fa.visitors[inner.Dst]
	if !ok {
		// The mobile node moved on: Mobile IP drops the packet here. This
		// is the loss window the paper's architecture targets.
		fa.node.Network().Drop(fa.node, inner, metrics.DropStale)
		fa.stats.StaleAtFA.Inc()
		return
	}
	_ = fa.node.Network().DeliverDirect(fa.node, v.node, inner, fa.AirDelay, fa.AirLoss)
}
