package mobileip

import (
	"time"

	"repro/internal/addr"
	"repro/internal/auth"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// MNConfig tunes a mobile node's registration behaviour.
type MNConfig struct {
	// Lifetime requested in registrations; renewed at 80% of grant.
	Lifetime time.Duration
	// RetryInterval between registration retransmissions.
	RetryInterval time.Duration
	// MaxRetries before a registration attempt is abandoned.
	MaxRetries int
	// RetryBackoff multiplies the retransmission interval after each
	// attempt (capped exponential backoff); values <= 1 keep the legacy
	// fixed interval.
	RetryBackoff float64
	// RetryCap bounds the backed-off interval; zero means uncapped.
	RetryCap time.Duration
	// RetryJitter spreads each retransmission interval by ±fraction,
	// drawn from the rng installed with SetRand. Zero (or no rng) keeps
	// the schedule exact — the default, so legacy runs draw nothing.
	RetryJitter float64
	// ReattemptInterval restarts a fresh registration round that long
	// after MaxRetries is exhausted, instead of giving up for good —
	// the recovery behaviour that rides out station outages. Zero keeps
	// the legacy give-up.
	ReattemptInterval time.Duration
	// TrackExpiry arms lifetime-expiry accounting (one extra scheduled
	// event per grant, so it stays off on the legacy path).
	TrackExpiry bool
	// AuthCostNS is the modelled CPU cost of one MHAE signing operation,
	// charged to the mip.auth.cpu_ns counter per signed registration.
	// Zero (the default) charges nothing.
	AuthCostNS uint64
	// AirDelay and AirLoss characterise the uplink to the serving agent.
	AirDelay time.Duration
	AirLoss  float64
}

// DefaultMNConfig mirrors common Mobile IP deployments.
func DefaultMNConfig() MNConfig {
	return MNConfig{
		Lifetime:      60 * time.Second,
		RetryInterval: 500 * time.Millisecond,
		MaxRetries:    4,
		AirDelay:      5 * time.Millisecond,
	}
}

// MobileNode is the Mobile IP client state machine: it keeps exactly one
// registration current — either a care-of binding through the serving
// Foreign Agent or a deregistration when at home.
type MobileNode struct {
	node  *netsim.Node
	home  addr.IP
	ha    addr.IP
	cfg   MNConfig
	sched *simtime.Scheduler
	stats *Stats
	rng   *simtime.Rand       // retry jitter stream; nil = exact schedule
	auth  *auth.Authenticator // signs registrations when armed

	// trace receives registration-lifecycle events when armed; a nil
	// trace is inert (obs.Trace methods are nil-receiver no-ops).
	trace      *obs.Trace
	traceActor int32

	current      *ForeignAgent // nil when at home / detached
	registered   bool
	nextID       uint64
	pendingID    uint64
	sentAt       time.Duration
	retries      int
	grantGen     uint64 // bumps per accepted grant; guards expiry events
	retryEvt     simtime.Event
	renewEvt     simtime.Event
	reattemptEvt simtime.Event

	// OnData is invoked for every data packet delivered to the node.
	OnData func(p *packet.Packet)
	// OnRegistered is invoked when a registration round-trip completes.
	OnRegistered func(latency time.Duration)
	// OnRegistrationFailed is invoked after MaxRetries without a reply.
	OnRegistrationFailed func()
	// OnLocationSignal is told about every registration request this
	// node originates — the per-profile signalling attribution hook.
	OnLocationSignal func()
}

var _ netsim.Handler = (*MobileNode)(nil)

// NewMobileNode attaches Mobile IP client behaviour to node. home is the
// permanent address (added to the node), ha the Home Agent's address.
// stats must be non-nil; NewStats(nil) gives a private registry.
func NewMobileNode(node *netsim.Node, home, ha addr.IP, cfg MNConfig, stats *Stats) *MobileNode {
	mn := &MobileNode{
		node:  node,
		home:  home,
		ha:    ha,
		cfg:   cfg,
		sched: node.Network().Scheduler(),
		stats: stats,
	}
	node.AddAddr(home)
	node.SetHandler(mn)
	return mn
}

// SetRand installs the seeded stream retry jitter draws from. Without
// it (the default) the retransmission schedule is exact and draw-free.
func (mn *MobileNode) SetRand(r *simtime.Rand) { mn.rng = r }

// SetAuth arms MHAE-style signing: every registration request carries a
// nonce (virtual-clock timestamp) and an HMAC token the Home Agent
// verifies. Registrations grow by the extension size — the per-message
// authentication cost shows up in the signalling byte counters.
func (mn *MobileNode) SetAuth(a *auth.Authenticator) { mn.auth = a }

// SetTrace arms registration-lifecycle trace emission (attempt, retry,
// exhaustion, accept, lifetime expiry) attributed to the given actor
// index. A nil trace leaves every hook a no-op.
func (mn *MobileNode) SetTrace(tr *obs.Trace, actor int32) {
	mn.trace = tr
	mn.traceActor = actor
}

// Registered reports whether the current location is registered with the
// Home Agent.
func (mn *MobileNode) Registered() bool { return mn.registered }

// CurrentAgent returns the serving Foreign Agent, nil when at home.
func (mn *MobileNode) CurrentAgent() *ForeignAgent { return mn.current }

// MoveTo associates with a new Foreign Agent: the radio link to the old
// agent breaks immediately (its visitor entry goes), the node attaches to
// the new agent and registers through it. Packets tunnelled to the old
// care-of address during the registration round-trip are lost — Mobile
// IP's handoff loss window.
func (mn *MobileNode) MoveTo(fa *ForeignAgent) {
	if mn.current == fa {
		return
	}
	if mn.current != nil {
		mn.current.Detach(mn.home)
	}
	mn.current = fa
	mn.registered = false
	fa.Attach(mn.home, mn.node)
	mn.startRegistration(fa.CareOf())
}

func (mn *MobileNode) startRegistration(careOf addr.IP) {
	mn.cancelTimers()
	mn.nextID++
	mn.pendingID = mn.nextID
	mn.retries = 0
	mn.sentAt = mn.sched.Now()
	mn.trace.Emit(mn.sentAt, obs.KindRegAttempt, mn.traceActor, -1, 0, int64(mn.pendingID))
	mn.sendRegistration(careOf, false)
}

func (mn *MobileNode) sendRegistration(careOf addr.IP, isRetry bool) {
	req := &RegistrationRequest{
		Home:     mn.home,
		HomeAg:   mn.ha,
		CareOf:   careOf,
		Lifetime: mn.cfg.Lifetime,
		ID:       mn.pendingID,
	}
	if mn.auth != nil {
		// Fresh nonce per transmission: retransmissions re-sign with the
		// current virtual clock so they stay monotone past a consumed
		// nonce at the HA.
		req.HasAuth = true
		req.Nonce = uint64(mn.sched.Now())
		copy(req.Token[:], mn.auth.Token(mn.home, req.Nonce))
		if mn.cfg.AuthCostNS > 0 {
			mn.stats.AuthCPUNS.Add(mn.cfg.AuthCostNS)
		}
	}
	if isRetry {
		mn.stats.Retries.Inc()
		mn.trace.Emit(mn.sched.Now(), obs.KindRegRetry, mn.traceActor, -1, int32(mn.retries), int64(mn.pendingID))
	}
	mn.stats.Signaling.Inc()
	if mn.OnLocationSignal != nil {
		mn.OnLocationSignal()
	}
	if mn.current != nil {
		// Over the air to the FA, which relays (Fig 2.2 step 1b).
		pkt := packet.NewControl(mn.home, mn.current.Node().Addr(), packet.ProtoMobileIP, req.Marshal())
		mn.stats.SignalingBytes.Add(uint64(pkt.Size()))
		_ = mn.node.Network().DeliverDirect(mn.node, mn.current.Node(), pkt, mn.cfg.AirDelay, mn.cfg.AirLoss)
	} else {
		// Deregistration sent directly to the HA over the home link: model
		// as an air hop to the HA node.
		haNode := mn.node.Network().NodeByAddr(mn.ha)
		if haNode == nil {
			return
		}
		pkt := packet.NewControl(mn.home, mn.ha, packet.ProtoMobileIP, req.Marshal())
		mn.stats.SignalingBytes.Add(uint64(pkt.Size()))
		_ = mn.node.Network().DeliverDirect(mn.node, haNode, pkt, mn.cfg.AirDelay, mn.cfg.AirLoss)
	}
	mn.retryEvt = mn.sched.AfterFIFO(mn.retryDelay(), func() { mn.onRetryTimer(careOf) })
}

// retryDelay computes the next retransmission timeout: the base interval,
// backed off exponentially per prior retry (capped), spread by the seeded
// jitter stream when one is installed. With the default config this is a
// constant — the legacy fixed schedule, no draws.
func (mn *MobileNode) retryDelay() time.Duration {
	d := mn.cfg.RetryInterval
	if mn.cfg.RetryBackoff > 1 {
		for i := 0; i < mn.retries; i++ {
			d = time.Duration(float64(d) * mn.cfg.RetryBackoff)
			if mn.cfg.RetryCap > 0 && d >= mn.cfg.RetryCap {
				d = mn.cfg.RetryCap
				break
			}
		}
	}
	if mn.cfg.RetryJitter > 0 && mn.rng != nil {
		d = time.Duration(float64(d) * (1 + mn.rng.Uniform(-mn.cfg.RetryJitter, mn.cfg.RetryJitter)))
	}
	return d
}

func (mn *MobileNode) onRetryTimer(careOf addr.IP) {
	if mn.registered {
		return
	}
	if mn.retries >= mn.cfg.MaxRetries {
		mn.stats.RetryExhausted.Inc()
		mn.trace.Emit(mn.sched.Now(), obs.KindRegExhausted, mn.traceActor, -1, int32(mn.retries), int64(mn.pendingID))
		if mn.OnRegistrationFailed != nil {
			mn.OnRegistrationFailed()
		}
		if mn.cfg.ReattemptInterval > 0 {
			// Back off to the reattempt cadence instead of giving up: a
			// downed agent eventually recovers, and this is the line that
			// re-registers through it when it does.
			mn.reattemptEvt = mn.sched.AfterFIFO(mn.cfg.ReattemptInterval, func() { mn.reattempt(careOf) })
		}
		return
	}
	mn.retries++
	mn.sendRegistration(careOf, true)
}

func (mn *MobileNode) reattempt(careOf addr.IP) {
	if mn.registered {
		return
	}
	if mn.current != nil {
		mn.Reregister()
		return
	}
	mn.startRegistration(careOf)
}

// Reregister re-attaches to the current agent and starts a fresh
// registration round. It is the recovery entry point after the serving
// agent restarts — its visitor list was wiped, so registering without
// re-attaching would leave downlink packets dropping as stale forever.
func (mn *MobileNode) Reregister() {
	if mn.current == nil {
		return
	}
	mn.registered = false
	mn.current.Attach(mn.home, mn.node)
	mn.startRegistration(mn.current.CareOf())
}

func (mn *MobileNode) cancelTimers() {
	mn.retryEvt.Cancel()
	mn.renewEvt.Cancel()
	mn.reattemptEvt.Cancel()
}

// Receive implements netsim.Handler: data packets go to OnData,
// registration replies complete the state machine. The mobile node is a
// terminal receiver: every delivered packet is released after handling
// (OnData consumers that need the packet past the callback must Clone).
func (mn *MobileNode) Receive(pkt *packet.Packet, from *netsim.Node, link *netsim.Link) {
	defer packet.Release(pkt)
	if pkt.Proto != packet.ProtoMobileIP {
		if mn.OnData != nil {
			mn.OnData(pkt)
		}
		return
	}
	msg, err := ParseMessage(pkt.Payload)
	if err != nil {
		return
	}
	reply, ok := msg.(*RegistrationReply)
	if !ok {
		return // advertisements are informational here
	}
	if reply.ID != mn.pendingID || mn.registered {
		return // stale or duplicate reply
	}
	if reply.Code != CodeAccepted {
		return // denial: the retry timer will retransmit until MaxRetries
	}
	mn.registered = true
	mn.cancelTimers()
	latency := mn.sched.Now() - mn.sentAt
	mn.trace.Emit(mn.sched.Now(), obs.KindRegAccept, mn.traceActor, -1, 0, int64(latency))
	mn.stats.RegLatency.Observe(latency)
	if mn.OnRegistered != nil {
		mn.OnRegistered(latency)
	}
	// Renew at 80% of the granted lifetime while still attached.
	if reply.Lifetime > 0 && !reply.CareOf.IsUnspecified() {
		renew := time.Duration(float64(reply.Lifetime) * 0.8)
		mn.renewEvt = mn.sched.After(renew, func() {
			if mn.current != nil && mn.current.CareOf() == reply.CareOf {
				mn.registered = false
				mn.startRegistration(reply.CareOf)
			}
		})
		if mn.cfg.TrackExpiry {
			// Count grants that lapse without a newer accepted grant — the
			// binding expired at the HA while the renewal was lost or the
			// agent was down. Any later accept bumps grantGen and voids
			// this probe.
			mn.grantGen++
			gen := mn.grantGen
			mn.sched.AfterFIFO(reply.Lifetime, func() {
				if gen == mn.grantGen && !mn.registered {
					mn.stats.Expired.Inc()
					mn.trace.Emit(mn.sched.Now(), obs.KindRegExpire, mn.traceActor, -1, 0, 0)
				}
			})
		}
	}
}
