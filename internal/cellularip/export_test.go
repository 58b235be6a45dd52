package cellularip

import (
	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
)

// Accessors, cache edits and host actions no run path calls: the
// Cellular IP tests drive hosts and inspect caches through them.

// RoutingCache exposes the routing cache.
func (bs *BaseStation) RoutingCache() *SoftCache { return bs.routing }

// PagingCache exposes the paging cache.
func (bs *BaseStation) PagingCache() *SoftCache { return bs.paging }

// Remove deletes every mapping for host.
func (c *SoftCache) Remove(host addr.IP) { delete(c.entries, host) }

// Len returns the number of hosts with at least one live mapping.
func (c *SoftCache) Len() int {
	n := 0
	for host := range c.entries {
		if len(c.Lookup(host)) > 0 {
			n++
		}
	}
	return n
}

// Node returns the underlying network node.
func (h *MobileHost) Node() *netsim.Node { return h.node }

// IP returns the host address.
func (h *MobileHost) IP() addr.IP { return h.ip }

// State returns the current activity state.
func (h *MobileHost) State() HostState { return h.state }

// Serving returns the serving base station, nil when detached.
func (h *MobileHost) Serving() *BaseStation { return h.bs }

// Detach drops the air link entirely (power off / out of coverage).
func (h *MobileHost) Detach() {
	h.abortSemisoft()
	if h.bs != nil {
		h.bs.DetachHost(h.ip)
		h.bs = nil
	}
	h.stopTickers()
}

// SendData emits an uplink data packet through the serving station,
// marking the host active.
func (h *MobileHost) SendData(pkt *packet.Packet) {
	if h.bs == nil {
		h.node.Network().Drop(h.node, pkt, metrics.DropNoRoute)
		return
	}
	h.goActive()
	_ = h.node.Network().DeliverDirect(h.node, h.bs.Node(), pkt, h.cfg.AirDelay, h.cfg.AirLoss)
}
