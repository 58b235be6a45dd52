package mobileip

import (
	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Accessors and MN actions no run path uses: the Mobile IP tests send
// uplink data, return nodes home and inspect agents through them.

// Node returns the underlying network node.
func (ha *HomeAgent) Node() *netsim.Node { return ha.node }

// AttachHome marks a mobile node as present on the home link.
func (ha *HomeAgent) AttachHome(home addr.IP, node *netsim.Node) { ha.grow(home).atHome = node }

// Node returns the underlying network node.
func (mn *MobileNode) Node() *netsim.Node { return mn.node }

// Home returns the permanent home address.
func (mn *MobileNode) Home() addr.IP { return mn.home }

// ReturnHome deregisters: the node detaches from its agent and asks the HA
// to drop the binding (care-of = 0).
func (mn *MobileNode) ReturnHome() {
	if mn.current != nil {
		mn.current.Detach(mn.home)
		mn.current = nil
	}
	mn.registered = false
	mn.startRegistration(addr.Unspecified)
}

// SendData emits an uplink data packet through the current agent (or the
// home link when at home), as Fig 2.2 step 2b: uplink traffic follows
// ordinary IP routing.
func (mn *MobileNode) SendData(pkt *packet.Packet) {
	if mn.current != nil {
		_ = mn.node.Network().DeliverDirect(mn.node, mn.current.Node(), pkt, mn.cfg.AirDelay, mn.cfg.AirLoss)
		return
	}
	haNode := mn.node.Network().NodeByAddr(mn.ha)
	if haNode == nil {
		// No serving agent and no home link: account the loss like the
		// other mobiles do instead of leaking the packet.
		mn.node.Network().Drop(mn.node, pkt, metrics.DropNoRoute)
		return
	}
	_ = mn.node.Network().DeliverDirect(mn.node, haNode, pkt, mn.cfg.AirDelay, mn.cfg.AirLoss)
}
