package cellularip

import (
	"time"

	"repro/internal/addr"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Config carries the Cellular IP protocol timers (§2.2.2: route-update-
// time, paging-update-time, active-state-timeout) and air characteristics.
type Config struct {
	// RouteUpdateTime is the active host's route-update interval.
	RouteUpdateTime time.Duration
	// RouteTimeout is the routing-cache entry lifetime; must exceed
	// RouteUpdateTime.
	RouteTimeout time.Duration
	// PagingUpdateTime is the idle host's paging-update interval.
	PagingUpdateTime time.Duration
	// PagingTimeout is the paging-cache entry lifetime.
	PagingTimeout time.Duration
	// ActiveTimeout is how long after the last data packet a host stays
	// active before falling idle.
	ActiveTimeout time.Duration
	// SemisoftDelay is how long a host listens on both base stations
	// before completing a semisoft handoff.
	SemisoftDelay time.Duration
	// AirDelay and AirLoss characterise the wireless hop.
	AirDelay time.Duration
	AirLoss  float64
}

// DefaultConfig mirrors the timer ratios of the Cellular IP papers.
func DefaultConfig() Config {
	return Config{
		RouteUpdateTime:  500 * time.Millisecond,
		RouteTimeout:     1500 * time.Millisecond,
		PagingUpdateTime: 5 * time.Second,
		PagingTimeout:    15 * time.Second,
		ActiveTimeout:    time.Second,
		SemisoftDelay:    100 * time.Millisecond,
		AirDelay:         4 * time.Millisecond,
	}
}

// BaseStation is one Cellular IP node: it owns a routing cache and a
// paging cache, knows its parent (toward the gateway) and children, and
// serves attached hosts over the air. The gateway is a BaseStation with
// no parent and an external router toward the Internet.
type BaseStation struct {
	node  *netsim.Node
	cfg   Config
	stats *Stats
	sched *simtime.Scheduler

	parent   *netsim.Node
	children []*netsim.Node

	routing *SoftCache
	paging  *SoftCache

	attached map[addr.IP]*netsim.Node

	// bicast is scratch for deliverDown's duplicate list, reused so the
	// semisoft bicast path stays allocation-free per packet.
	bicast []*packet.Packet

	// external is the gateway's wired-side router; nil on ordinary
	// stations.
	external *netsim.StaticRouter
	// served is the address space of hosts inside this access network;
	// the gateway uses it to distinguish downlink from transit. Only set
	// on the gateway.
	served addr.Prefix
}

var _ netsim.Handler = (*BaseStation)(nil)

// NewBaseStation attaches Cellular IP behaviour to node. The node's
// handler is replaced. stats must be non-nil; NewStats(nil) gives a
// private registry.
func NewBaseStation(node *netsim.Node, cfg Config, stats *Stats) *BaseStation {
	sched := node.Network().Scheduler()
	bs := &BaseStation{
		node:     node,
		cfg:      cfg,
		stats:    stats,
		sched:    sched,
		routing:  NewSoftCache(cfg.RouteTimeout, sched),
		paging:   NewSoftCache(cfg.PagingTimeout, sched),
		attached: make(map[addr.IP]*netsim.Node),
	}
	node.SetHandler(bs)
	return bs
}

// NewGateway attaches gateway behaviour: a base station that also routes
// to/from the wider Internet. served is the address space of the hosts
// this access network anchors. stats must be non-nil; NewStats(nil)
// gives a private registry.
func NewGateway(node *netsim.Node, served addr.Prefix, cfg Config, stats *Stats) *BaseStation {
	bs := NewBaseStation(node, cfg, stats)
	bs.external = netsim.NewDetachedRouter(node)
	bs.served = served
	return bs
}

// Node returns the underlying network node.
func (bs *BaseStation) Node() *netsim.Node { return bs.node }

// External returns the gateway's Internet-side router (nil on ordinary
// stations); the scenario configures its routes.
func (bs *BaseStation) External() *netsim.StaticRouter { return bs.external }

// Config returns the protocol configuration.
func (bs *BaseStation) Config() Config { return bs.cfg }

// ConnectChild wires child beneath bs with the given link parameters,
// recording the parent/child relationship both protocols rely on.
func (bs *BaseStation) ConnectChild(child *BaseStation, linkCfg netsim.LinkConfig) *netsim.Link {
	l := bs.node.Network().Connect(bs.node, child.node, linkCfg)
	child.parent = bs.node
	bs.children = append(bs.children, child.node)
	return l
}

// AttachHost associates a host with this station's air interface.
func (bs *BaseStation) AttachHost(ip addr.IP, node *netsim.Node) {
	bs.attached[ip] = node
}

// DetachHost breaks the air association.
func (bs *BaseStation) DetachHost(ip addr.IP) { delete(bs.attached, ip) }

// HasRoute reports whether the station holds live routing or paging
// state for the host — at the gateway this is Cellular IP's notion of
// "registered" (downlink packets reach the host without a flood).
func (bs *BaseStation) HasRoute(ip addr.IP) bool {
	return len(bs.routing.Lookup(ip)) > 0 || len(bs.paging.Lookup(ip)) > 0
}

// SetAirLoss changes the station's air-interface loss probability
// (fault injection: regional radio fade).
func (bs *BaseStation) SetAirLoss(p float64) { bs.cfg.AirLoss = p }

// Fail forces the station down (fault injection): arrivals die at the
// netsim layer and the soft caches are wiped — Cellular IP state is
// soft by design, so a crash loses exactly the routing/paging entries.
// The air associations are kept: hosts have no beacon-loss detection,
// and their own route-update traffic rebuilds the caches after
// recovery (re-registration through the normal refresh machinery).
func (bs *BaseStation) Fail() {
	if bs.node.Down() {
		return
	}
	bs.node.SetDown(true)
	bs.routing.Clear()
	bs.paging.Clear()
}

// Recover brings a failed station back up; caches rebuild from host
// refreshes, which is the measured recovery path.
func (bs *BaseStation) Recover() { bs.node.SetDown(false) }

// Receive implements netsim.Handler. Direction is inferred from the
// ingress interface: air (link == nil) and child links carry uplink,
// the parent link carries downlink.
func (bs *BaseStation) Receive(pkt *packet.Packet, from *netsim.Node, link *netsim.Link) {
	switch {
	case link == nil:
		bs.receiveAir(pkt, from)
	case from == bs.parent:
		bs.deliverDown(pkt)
	default:
		bs.receiveUp(pkt, from)
	}
}

// receiveAir handles packets from attached hosts.
func (bs *BaseStation) receiveAir(pkt *packet.Packet, from *netsim.Node) {
	hop := Mapping{Air: true}
	if pkt.Proto == packet.ProtoCellular {
		bs.handleControl(pkt, hop)
		return
	}
	// Uplink data refreshes the sender's path (CIP integrates location
	// management with routing) and heads for the gateway.
	bs.refreshFromData(pkt.Src, hop)
	bs.forwardUp(pkt)
}

// receiveUp handles packets arriving from a child station.
func (bs *BaseStation) receiveUp(pkt *packet.Packet, from *netsim.Node) {
	hop := Mapping{Via: from}
	if pkt.Proto == packet.ProtoCellular {
		bs.handleControl(pkt, hop)
		return
	}
	bs.refreshFromData(pkt.Src, hop)
	bs.forwardUp(pkt)
}

func (bs *BaseStation) refreshFromData(src addr.IP, hop Mapping) {
	if src.IsUnspecified() {
		return
	}
	bs.routing.Replace(src, hop)
	bs.paging.Replace(src, hop)
}

// handleControl applies a route/paging update and propagates it toward the
// gateway.
func (bs *BaseStation) handleControl(pkt *packet.Packet, hop Mapping) {
	msg, err := ParseMessage(pkt.Payload)
	if err != nil {
		packet.Release(pkt)
		return
	}
	switch m := msg.(type) {
	case *RouteUpdate:
		bs.stats.RouteUpdates.Inc()
		if m.Semisoft {
			bs.routing.Add(m.Host, hop)
		} else {
			bs.routing.Replace(m.Host, hop)
		}
		bs.paging.Replace(m.Host, hop)
	case *PagingUpdate:
		bs.stats.PagingUpdates.Inc()
		bs.paging.Replace(m.Host, hop)
	}
	// Propagate up to the gateway so the whole chain refreshes; at the
	// gateway the update is fully absorbed and the packet is terminal.
	if bs.parent != nil {
		bs.stats.ControlBytes.Add(uint64(pkt.Size()))
		if err := bs.node.SendVia(bs.parent, pkt); err != nil {
			bs.node.Network().Drop(bs.node, pkt, metrics.DropLinkLoss)
		}
		return
	}
	packet.Release(pkt)
}

// forwardUp moves uplink data toward the gateway and out.
func (bs *BaseStation) forwardUp(pkt *packet.Packet) {
	if bs.parent != nil {
		if err := pkt.DecrementTTL(); err != nil {
			bs.node.Network().Drop(bs.node, pkt, metrics.DropTTL)
			return
		}
		if err := bs.node.SendVia(bs.parent, pkt); err != nil {
			bs.node.Network().Drop(bs.node, pkt, metrics.DropLinkLoss)
		}
		return
	}
	// At the gateway. Hosts inside this access network are reached by
	// turning the packet around; everything else exits via the external
	// router.
	if bs.insideDst(pkt.Dst) {
		bs.deliverDown(pkt)
		return
	}
	if bs.external != nil {
		bs.external.Forward(pkt)
		return
	}
	bs.node.Network().Drop(bs.node, pkt, metrics.DropNoRoute)
}

// insideDst reports whether dst belongs to this access network (cache
// entry or served prefix).
func (bs *BaseStation) insideDst(dst addr.IP) bool {
	if len(bs.routing.Lookup(dst)) > 0 || len(bs.paging.Lookup(dst)) > 0 {
		return true
	}
	return bs.served.Bits > 0 && bs.served.Contains(dst)
}

// deliverDown routes a downlink packet toward its host: routing cache
// first, then paging cache, then a paging flood to every child and the
// local air interface.
func (bs *BaseStation) deliverDown(pkt *packet.Packet) {
	maps := bs.routing.Lookup(pkt.Dst)
	if len(maps) == 0 {
		if bs.stats.PageSink != nil {
			// No routing entry: whatever happens next (paging cache or
			// flood) is paging effort spent on this host.
			bs.stats.PageSink(pkt.Dst)
		}
		maps = bs.paging.Lookup(pkt.Dst)
		if len(maps) > 0 {
			bs.stats.Pages.Inc()
		}
	}
	if len(maps) == 0 {
		bs.pageFlood(pkt)
		return
	}
	if len(maps) == 1 {
		bs.sendMapping(pkt, maps[0])
		return
	}
	// Bicast: cut every duplicate before dispatching anything — the
	// original can be consumed (dropped and recycled) by its own
	// sendMapping, so cloning lazily inside the loop would copy a dead
	// packet.
	dups := bs.bicast[:0]
	for range maps[1:] {
		c := pkt.Clone()
		c.Flags |= packet.FlagBicast
		dups = append(dups, c)
	}
	bs.sendMapping(pkt, maps[0])
	for i, m := range maps[1:] {
		c := dups[i]
		dups[i] = nil // scratch must not retain a consumed packet
		bs.sendMapping(c, m)
	}
	bs.bicast = dups[:0]
}

func (bs *BaseStation) sendMapping(pkt *packet.Packet, m Mapping) {
	if m.Air {
		host, ok := bs.attached[pkt.Dst]
		if !ok {
			// Stale air mapping: the host moved away. This is the hard
			// handoff loss window (Fig 2.4).
			bs.stats.StaleAirDrops.Inc()
			bs.node.Network().Drop(bs.node, pkt, metrics.DropStale)
			return
		}
		loss := bs.cfg.AirLoss
		_ = bs.node.Network().DeliverDirect(bs.node, host, pkt, bs.cfg.AirDelay, loss)
		return
	}
	if err := pkt.DecrementTTL(); err != nil {
		bs.node.Network().Drop(bs.node, pkt, metrics.DropTTL)
		return
	}
	if err := bs.node.SendVia(m.Via, pkt); err != nil {
		bs.node.Network().Drop(bs.node, pkt, metrics.DropLinkLoss)
	}
}

// pageFlood broadcasts a packet for an unknown host down every child link
// and the local air interface — the Cellular IP paging procedure when no
// cache entry constrains the search.
//
//mmlint:packetflow-ok delivered/sentAir flags correlate with consumption across branches: the original is dropped when nothing went out and released unless the air delivery consumed it
func (bs *BaseStation) pageFlood(pkt *packet.Packet) {
	delivered := false
	sentAir := false
	if host, ok := bs.attached[pkt.Dst]; ok {
		_ = bs.node.Network().DeliverDirect(bs.node, host, pkt, bs.cfg.AirDelay, bs.cfg.AirLoss)
		delivered = true
		sentAir = true
	}
	for _, child := range bs.children {
		out := pkt.Clone()
		// Flood copies are duplicates for accounting purposes.
		out.Flags |= packet.FlagBicast
		if err := out.DecrementTTL(); err != nil {
			packet.Release(out)
			continue
		}
		bs.stats.PagingBroadcasts.Inc()
		if err := bs.node.SendVia(child, out); err != nil {
			bs.node.Network().Drop(bs.node, out, metrics.DropLinkLoss)
		}
		delivered = true
	}
	if !delivered {
		// Leaf station with no attached host: the packet dies here.
		bs.node.Network().Drop(bs.node, pkt, metrics.DropNoRoute)
		return
	}
	if !sentAir {
		// Only clones went out; the original is dead once the flood fans
		// out (the clones carry the packet onward).
		packet.Release(pkt)
	}
}
