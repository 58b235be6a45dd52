package mobileip

import (
	"errors"
	"time"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Binding is one home-address → care-of-address mapping in the HA cache.
type Binding struct {
	Home    addr.IP
	CareOf  addr.IP
	Expires time.Duration // virtual time of expiry
	LastID  uint64        // highest registration ID accepted
}

// HomeAgent serves a home network prefix: it answers registrations for
// mobile nodes whose home addresses lie in the prefix and intercepts data
// packets addressed to them, tunnelling to the registered care-of address
// (Fig 2.2 step 2a). It embeds a static router for ordinary forwarding.
type HomeAgent struct {
	node   *netsim.Node
	router *netsim.StaticRouter
	prefix addr.Prefix
	sched  *simtime.Scheduler
	stats  *Stats

	bindings map[addr.IP]*Binding
	// atHome maps home addresses to node handles for nodes currently on
	// the home link, reachable without tunnelling.
	atHome map[addr.IP]*netsim.Node
	// homeAirDelay is the home-link delivery latency.
	homeAirDelay time.Duration
	generation   map[addr.IP]uint64 // expiry-sweep generation per binding
	// auth, when armed, requires every registration to carry a fresh
	// MHAE token inside authWindow of the HA's clock.
	auth       *auth.Authenticator
	authWindow time.Duration
	authCostNS uint64
}

var _ netsim.Handler = (*HomeAgent)(nil)

// NewHomeAgent attaches a Home Agent to node, serving prefix. The node's
// handler is replaced. The router starts with no routes; callers add
// routes/default for the wired side. stats must be non-nil;
// NewStats(nil) gives a private registry.
func NewHomeAgent(node *netsim.Node, prefix addr.Prefix, stats *Stats) *HomeAgent {
	ha := &HomeAgent{
		node:         node,
		prefix:       prefix,
		sched:        node.Network().Scheduler(),
		stats:        stats,
		bindings:     make(map[addr.IP]*Binding),
		atHome:       make(map[addr.IP]*netsim.Node),
		homeAirDelay: 2 * time.Millisecond,
		generation:   make(map[addr.IP]uint64),
	}
	ha.router = netsim.NewStaticRouter(node)
	node.SetHandler(ha)
	return ha
}

// Router returns the embedded router for wired route configuration.
func (ha *HomeAgent) Router() *netsim.StaticRouter { return ha.router }

// SetAuth arms MHAE verification: registrations without a token, with a
// bad token, with a replayed nonce, or with a nonce older than window
// are denied with CodeDeniedAuth and counted.
func (ha *HomeAgent) SetAuth(a *auth.Authenticator, window time.Duration) {
	ha.auth = a
	ha.authWindow = window
}

// SetAuthCost sets the modelled CPU cost of one MHAE verification,
// charged to the mip.auth.cpu_ns counter per token actually verified.
func (ha *HomeAgent) SetAuthCost(ns uint64) { ha.authCostNS = ns }

// authorize verifies the request's MHAE extension. It returns true when
// the registration may proceed.
func (ha *HomeAgent) authorize(req *RegistrationRequest) bool {
	if ha.auth == nil {
		return true
	}
	ha.stats.AuthChecks.Inc()
	if !req.HasAuth {
		return false
	}
	if ha.authWindow > 0 && req.Nonce+uint64(ha.authWindow) < uint64(ha.sched.Now()) {
		// Timestamp outside the replay window: a recorded-and-replayed
		// registration, per RFC 5944 §5.7.
		ha.stats.Replays.Inc()
		return false
	}
	if ha.authCostNS > 0 {
		// The verify below always runs the HMAC; charge its modelled CPU
		// cost whether or not the token turns out valid.
		ha.stats.AuthCPUNS.Add(ha.authCostNS)
	}
	if err := ha.auth.VerifyFresh(req.Home, req.Nonce, req.Token[:]); err != nil {
		if errors.Is(err, auth.ErrReplay) {
			ha.stats.Replays.Inc()
		}
		return false
	}
	return true
}

// Binding returns the current binding for home, or nil.
func (ha *HomeAgent) Binding(home addr.IP) *Binding {
	b := ha.bindings[home]
	if b == nil || b.Expires < ha.sched.Now() {
		return nil
	}
	return b
}

// Receive implements netsim.Handler.
func (ha *HomeAgent) Receive(pkt *packet.Packet, from *netsim.Node, link *netsim.Link) {
	switch {
	case pkt.Proto == packet.ProtoMobileIP && ha.node.HasAddr(pkt.Dst):
		ha.handleControl(pkt)
	case ha.prefix.Contains(pkt.Dst) && !ha.node.HasAddr(pkt.Dst):
		ha.intercept(pkt)
	case ha.node.HasAddr(pkt.Dst):
		// Addressed to us but not Mobile IP control: consumed silently.
		packet.Release(pkt)
	default:
		ha.router.Forward(pkt)
	}
}

// handleControl consumes a registration request: the reply is a fresh
// packet, so the request is terminal here and released on every path.
func (ha *HomeAgent) handleControl(pkt *packet.Packet) {
	defer packet.Release(pkt)
	msg, err := ParseMessage(pkt.Payload)
	if err != nil {
		return // malformed control is silently dropped, as in real stacks
	}
	req, ok := msg.(*RegistrationRequest)
	if !ok {
		return
	}
	reply := &RegistrationReply{
		Home:     req.Home,
		HomeAg:   req.HomeAg,
		CareOf:   req.CareOf,
		Lifetime: req.Lifetime,
		ID:       req.ID,
	}
	old := ha.bindings[req.Home]
	switch {
	case !ha.authorize(req):
		reply.Code = CodeDeniedAuth
	case !ha.prefix.Contains(req.Home):
		reply.Code = CodeDeniedUnknownHome
	case old != nil && req.ID < old.LastID:
		// Out-of-order retransmission of an older move: deny it so a
		// late-arriving stale request cannot clobber a newer binding.
		reply.Code = CodeDeniedIdentification
	default:
		reply.Code = CodeAccepted
	}
	if reply.Code == CodeAccepted {
		if req.CareOf.IsUnspecified() {
			delete(ha.bindings, req.Home)
		} else {
			ha.generation[req.Home]++
			gen := ha.generation[req.Home]
			ha.bindings[req.Home] = &Binding{
				Home:    req.Home,
				CareOf:  req.CareOf,
				Expires: ha.sched.Now() + reply.Lifetime,
				LastID:  req.ID,
			}
			// Soft-state expiry: drop the binding unless refreshed.
			ha.sched.After(reply.Lifetime, func() {
				if ha.generation[req.Home] == gen {
					delete(ha.bindings, req.Home)
				}
			})
		}
	} else {
		ha.stats.Denials.Inc()
	}

	out := packet.NewControl(ha.node.Addr(), pkt.Src, packet.ProtoMobileIP, reply.Marshal())
	ha.stats.Signaling.Inc()
	ha.stats.SignalingBytes.Add(uint64(out.Size()))
	ha.router.Forward(out)
}

// intercept tunnels a data packet for a registered visitor, delivers it on
// the home link when the node is home, or drops it.
func (ha *HomeAgent) intercept(pkt *packet.Packet) {
	if node, ok := ha.atHome[pkt.Dst]; ok {
		_ = ha.node.Network().DeliverDirect(ha.node, node, pkt, ha.homeAirDelay, 0)
		return
	}
	b := ha.Binding(pkt.Dst)
	if b == nil {
		// No binding and not at home: Mobile IP loses the packet while the
		// node is between registrations.
		ha.node.Network().Drop(ha.node, pkt, metrics.DropStale)
		return
	}
	tun, err := packet.Encapsulate(ha.node.Addr(), b.CareOf, pkt)
	if err != nil {
		packet.Release(pkt)
		return
	}
	ha.stats.Intercepts.Inc()
	ha.stats.TunnelOverheadBytes.Add(packet.HeaderSize)
	ha.router.Forward(tun)
}
